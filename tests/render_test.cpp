#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ccov/engine/engine.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/util/prng.hpp"
#include "reference_render.hpp"

namespace eng = ccov::engine;
namespace cov = ccov::covering;

namespace {

/// The vertices whose decimal widths the renderer must get right, plus
/// the widest one.
constexpr std::uint32_t kEdgeVertices[] = {0,   9,          10,
                                           99,  100,        1000000000u,
                                           7u,  0xFFFFFFFFu};

cov::Vertex random_vertex(ccov::util::Xoshiro256& rng) {
  switch (rng.below(3)) {
    case 0:
      return kEdgeVertices[rng.below(std::size(kEdgeVertices))];
    case 1:
      return static_cast<cov::Vertex>(rng.below(200));
    default:
      return static_cast<cov::Vertex>(rng());
  }
}

eng::CoverResponse random_response(ccov::util::Xoshiro256& rng) {
  static const char* const kErrors[] = {
      "", "n must be >= 3", "quote \" and backslash \\",
      "control \x01\x1f and \n\t", "utf-8 \xc3\xa9"};
  eng::CoverResponse r;
  r.ok = rng.below(8) != 0;
  r.error = kErrors[rng.below(std::size(kErrors))];
  r.algorithm = rng.below(2) ? "construct" : "greedy";
  r.n = random_vertex(rng);
  r.found = rng.below(4) != 0;
  r.exhausted = rng.below(2) != 0;
  r.nodes = rng.below(3) == 0 ? ~std::uint64_t{0} : rng.below(1000000);
  r.validated = rng.below(2) != 0;
  r.valid = rng.below(2) != 0;
  r.cache_hit = rng.below(2) != 0;
  r.timed_out = rng.below(6) == 0;
  r.degraded = rng.below(6) == 0;
  r.shed = rng.below(6) == 0;
  r.cover.n = r.n;
  const std::uint64_t cycles = rng.below(5) == 0 ? 0 : rng.below(24);
  for (std::uint64_t i = 0; i < cycles; ++i) {
    cov::Cycle c(rng.below(10));  // lengths 0..9: empty and long cycles
    for (cov::Vertex& v : c) v = random_vertex(rng);
    r.cover.add(c);
  }
  return r;
}

}  // namespace

TEST(Render, OnePassCoverMatchesPerValueWriterOnRandomResponses) {
  ccov::util::Xoshiro256 rng(0x5EEDu);
  for (int i = 0; i < 5000; ++i) {
    const eng::CoverResponse r = random_response(rng);
    const std::uint64_t id = i % 7 == 0 ? ~std::uint64_t{0} : rng();
    ASSERT_EQ(eng::serve_response_line(id, r),
              eng::reference::serve_response_line(id, r))
        << "case " << i;
  }
}

TEST(Render, EdgeShapesMatchPerValueWriter) {
  eng::CoverResponse r;
  r.ok = true;
  r.algorithm = "construct";
  r.n = 9;
  r.found = true;
  const auto same = [&](const char* what) {
    EXPECT_EQ(eng::serve_response_line(3, r),
              eng::reference::serve_response_line(3, r))
        << what;
  };
  same("found with an empty cover");
  EXPECT_EQ(eng::serve_response_line(3, r),
            "{\"id\":3,\"ok\":true,\"algo\":\"construct\",\"n\":9,"
            "\"found\":true,\"exhausted\":false,\"nodes\":0,"
            "\"cache_hit\":false,\"cover\":[]}");
  r.cover =
      cov::RingCover(r.cover.n, {{}, {0}, {9, 10}, {99, 100, 0xFFFFFFFFu}});
  same("empty, short and wide cycles");
  r.cover = cov::RingCover(r.cover.n, {{0, 1, 2, 3, 4, 5, 6, 7, 8}});
  same("a cycle longer than 4");
  r.found = false;
  same("found:false hides the cover");
  r.ok = false;
  r.error = "boom";
  same("ok:false");
}

TEST(Render, BatchedSessionLinesMatchPerValueWriter) {
  // Several responses rendered back to back into one reused writer: each
  // line must equal the per-value rendering of the same request answered
  // alone. Every request is distinct, so none is a cache hit.
  std::string input;
  std::vector<std::string> lines;
  for (std::uint32_t n = 2; n <= 40; ++n)
    lines.push_back("{\"algo\":\"construct\",\"n\":" + std::to_string(n) +
                    "}");
  lines.push_back("{\"algo\":\"greedy\",\"n\":12,\"demand\":[[0,5],[3,9]]}");
  lines.push_back("{\"algo\":\"solve\",\"n\":6}");
  for (const std::string& l : lines) input += l + "\n";

  eng::Engine engine;
  eng::ServeConfig config;
  config.batch = 4;
  std::istringstream in(input);
  std::ostringstream out;
  ASSERT_EQ(eng::serve_loop(in, out, engine, config), 0);

  std::istringstream got(out.str());
  std::string line;
  for (std::size_t id = 0; id < lines.size(); ++id) {
    ASSERT_TRUE(std::getline(got, line)) << "missing line " << id;
    eng::ServeCommand cmd;
    std::string error;
    ASSERT_TRUE(eng::parse_serve_line(lines[id], &cmd, &error)) << error;
    eng::Engine alone;
    EXPECT_EQ(line,
              eng::reference::serve_response_line(id, alone.run(cmd.req)))
        << lines[id];
  }
  EXPECT_FALSE(std::getline(got, line));
}
