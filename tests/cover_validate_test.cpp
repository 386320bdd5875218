#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ccov/covering/construct.hpp"
#include "ccov/covering/cover.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/graph/generators.hpp"
#include "ccov/util/prng.hpp"
#include "reference_validate.hpp"

using namespace ccov::covering;

namespace {

RingCover paper_k4_cover() {
  return RingCover{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}}};
}

}  // namespace

TEST(Cover, PaperK4CoverValidates) {
  const auto rep = validate_cover(paper_k4_cover());
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.uncovered_chords, 0u);
  EXPECT_EQ(rep.non_drc_cycles, 0u);
}

TEST(Cover, PaperInvalidCoverRejected) {
  // The paper's counterexample: two C4s cover K_4's edges but (0,2,3,1)
  // violates the DRC.
  RingCover c{4, {{0, 1, 2, 3}, {0, 2, 3, 1}}};
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.non_drc_cycles, 1u);
}

TEST(Cover, MissingChordDetected) {
  RingCover c{4, {{0, 1, 2, 3}, {0, 1, 3}}};  // chord (0,2) uncovered
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.uncovered_chords, 1u);
  EXPECT_NE(rep.error.find("(0,2)"), std::string::npos);
}

TEST(Cover, DuplicateCoverageCounted) {
  const auto base = validate_cover(paper_k4_cover());
  RingCover c{4, {{0, 1, 2, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2}}};
  const auto rep = validate_cover(c);
  EXPECT_TRUE(rep.ok);
  // The extra triangle re-covers exactly its 3 chords.
  EXPECT_EQ(rep.duplicate_coverage, base.duplicate_coverage + 3);
}

TEST(Cover, StructurallyInvalidCycleReported) {
  RingCover c{5, {{0, 1, 1}}};
  const auto rep = validate_cover(c);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("invalid cycle"), std::string::npos);
}

TEST(Cover, CompositionCounts) {
  const auto comp = composition(paper_k4_cover());
  EXPECT_EQ(comp[3], 2u);
  EXPECT_EQ(comp[4], 1u);
  EXPECT_EQ(count_c3(paper_k4_cover()), 2u);
  EXPECT_EQ(count_c4(paper_k4_cover()), 1u);
}

TEST(Cover, ValidateAgainstPartialDemand) {
  ccov::graph::Graph demand(6);
  demand.add_edge(0, 3);
  demand.add_edge(1, 2);
  RingCover c{6, {{0, 1, 2, 3}}};  // covers (0,3) as cycle edge? edges: 01,12,23,30
  const auto rep = validate_cover_against(c, demand);
  EXPECT_TRUE(rep.ok) << rep.error;
}

TEST(Cover, ValidateAgainstMultigraphDemand) {
  const auto demand = ccov::graph::complete_multigraph(4, 2);
  // Single cover of K_4 does not satisfy lambda = 2.
  const auto rep = validate_cover_against(paper_k4_cover(), demand);
  EXPECT_FALSE(rep.ok);
  // Two copies do.
  RingCover doubled = paper_k4_cover();
  for (const auto& cyc : paper_k4_cover().cycles) doubled.cycles.push_back(cyc);
  EXPECT_TRUE(validate_cover_against(doubled, demand).ok);
}

TEST(Cover, SummaryMentionsValidity) {
  EXPECT_NE(summary(paper_k4_cover()).find("valid"), std::string::npos);
}

TEST(Cover, TinyRingRejected) {
  RingCover c{2, {}};
  EXPECT_FALSE(validate_cover(c).ok);
}

// ---- Differential oracle: the flat chord-count kernel against the
// std::map validator of reference_validate.hpp, every report field.

namespace {

std::string describe(const ValidationReport& r) {
  return "ok=" + std::to_string(r.ok) + " error='" + r.error +
         "' uncovered=" + std::to_string(r.uncovered_chords) +
         " duplicate=" + std::to_string(r.duplicate_coverage) +
         " non_drc=" + std::to_string(r.non_drc_cycles);
}

void expect_same_kn(const RingCover& cover) {
  const auto fast = validate_cover(cover);
  const auto ref = reference::validate_cover(cover);
  EXPECT_TRUE(reference::same_report(fast, ref))
      << to_string(cover) << " n=" << cover.n << "\n  fast: "
      << describe(fast) << "\n  ref:  " << describe(ref);
}

void expect_same_against(const RingCover& cover,
                         const ccov::graph::Graph& demand) {
  const auto fast = validate_cover_against(cover, demand);
  const auto ref = reference::validate_cover_against(cover, demand);
  EXPECT_TRUE(reference::same_report(fast, ref))
      << to_string(cover) << " n=" << cover.n << " demand of "
      << demand.num_edges() << " edges\n  fast: " << describe(fast)
      << "\n  ref:  " << describe(ref);
}

/// One random edit of the kinds a broken construction or a tampered
/// cover file produces: drop, duplicate or reverse a cycle, swap two of
/// its vertices (usually breaking the DRC), put in a vertex >= n, repeat
/// a vertex, cut a cycle below 3 vertices, or add a random triangle.
void perturb(RingCover* cover, ccov::util::Xoshiro256& rng) {
  auto& cycles = cover->cycles;
  const std::uint32_t n = cover->n;
  const auto kind = cycles.empty() ? 7 : rng.below(8);
  if (kind == 7) {
    Cycle tri;
    for (int i = 0; i < 3; ++i)
      tri.push_back(static_cast<Vertex>(rng.below(n + 1)));
    cycles.push_back(std::move(tri));
    return;
  }
  const auto i = static_cast<std::ptrdiff_t>(rng.below(cycles.size()));
  Cycle& c = cycles[static_cast<std::size_t>(i)];
  if (c.empty()) c.push_back(0);
  const auto at = [&]() -> Vertex& { return c[rng.below(c.size())]; };
  switch (kind) {
    case 0:
      cycles.erase(cycles.begin() + i);
      break;
    case 1:
      cycles.push_back(Cycle(c));
      break;
    case 2:
      std::reverse(c.begin(), c.end());
      break;
    case 3:
      std::swap(at(), at());
      break;
    case 4:
      at() = n + static_cast<Vertex>(rng.below(3));
      break;
    case 5:
      at() = at();
      break;
    default:
      c.resize(rng.below(3));
      break;
  }
}

/// m random chords on vertices below `span` (repeats kept: a multigraph).
ccov::graph::Graph random_demand(std::uint32_t span, std::size_t m,
                                 ccov::util::Xoshiro256& rng) {
  ccov::graph::Graph g(span);
  while (g.num_edges() < m) {
    const auto u = static_cast<Vertex>(rng.below(span));
    const auto v = static_cast<Vertex>(rng.below(span));
    if (u != v) g.add_edge(u, v);
  }
  return g;
}

}  // namespace

TEST(CoverOracle, RhoCoversAndPerturbationsMatchReference) {
  ccov::util::Xoshiro256 rng(20010703);
  for (std::uint32_t n = 3; n <= 60; ++n) {
    const RingCover base = build_optimal_cover(n);
    expect_same_kn(base);
    for (int trial = 0; trial < 8; ++trial) {
      RingCover cover = base;
      const auto edits = 1 + rng.below(3);
      for (std::uint64_t e = 0; e < edits; ++e) perturb(&cover, rng);
      expect_same_kn(cover);
    }
  }
}

TEST(CoverOracle, TinyRingsMatchReference) {
  for (std::uint32_t n = 0; n < 3; ++n) {
    expect_same_kn(RingCover{n, {}});
    expect_same_kn(RingCover{n, {{0, 1, 2}}});
    expect_same_against(RingCover{n, {{0, 1}}},
                        ccov::graph::complete_graph(3));
  }
}

TEST(CoverOracle, MultigraphDemandsMatchReference) {
  ccov::util::Xoshiro256 rng(4);
  for (std::uint32_t n = 3; n <= 24; ++n) {
    const RingCover base = build_optimal_cover(n);
    for (std::uint32_t lambda = 1; lambda <= 3; ++lambda) {
      const auto demand = ccov::graph::complete_multigraph(n, lambda);
      RingCover cover{n, {}};
      for (std::uint32_t copy = 0; copy < 4; ++copy) {
        expect_same_against(cover, demand);  // 0..3 copies: short, exact, over
        cover.cycles.insert(cover.cycles.end(), base.cycles.begin(),
                            base.cycles.end());
      }
      perturb(&cover, rng);
      expect_same_against(cover, demand);
    }
  }
}

TEST(CoverOracle, ExplicitDemandsMatchReference) {
  ccov::util::Xoshiro256 rng(2001);
  for (std::uint32_t n = 3; n <= 40; ++n) {
    for (int trial = 0; trial < 6; ++trial) {
      // In range: the greedy's own cover of the demand, then edited; out
      // of range (span n + 3): vertices >= n stay uncovered.
      const bool in_range = trial % 2 == 0;
      const auto demand =
          random_demand(in_range ? n : n + 3, 1 + rng.below(3 * n), rng);
      RingCover cover = in_range ? greedy_cover_demand(n, demand)
                                 : build_optimal_cover(n);
      expect_same_against(cover, demand);
      perturb(&cover, rng);
      expect_same_against(cover, demand);
    }
  }
}
