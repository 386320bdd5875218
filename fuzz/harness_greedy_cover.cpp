#include "harnesses.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "ccov/covering/greedy.hpp"
#include "ccov/graph/generators.hpp"
#include "reference_greedy.hpp"

namespace cov = ccov::covering;

namespace {

using Greedy = cov::RingCover (*)(std::uint32_t, const ccov::graph::Graph&);

/// The cover as text, or the exception's message when the greedy throws.
std::string outcome(Greedy greedy, std::uint32_t n,
                    const ccov::graph::Graph& demand) {
  try {
    return cov::to_string(greedy(n, demand));
  } catch (const std::invalid_argument& e) {
    return std::string("throws: ") + e.what();
  }
}

}  // namespace

/// Differential check of the greedy kernel. Byte 0 picks the ring size
/// n = 3..200; byte 1 holds flags: bit 0 starts from the complete demand
/// K_n (for n <= 64), bit 1 reduces vertices mod n + 2 instead of mod n,
/// so some chords leave the ring and both greedies must throw. The rest
/// is read as chord pairs; a pair naming one vertex twice is skipped.
/// Aborts when greedy_cover_demand differs from the ChordBitset greedy
/// in tests/reference_greedy.hpp, or, on the complete demand,
/// from greedy_cover(n).
int ccov_fuzz_greedy_cover(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::uint32_t n = 3 + data[0] % 198;
  const std::uint8_t flags = data[1];
  const bool complete = (flags & 1) && n <= 64;
  const std::uint32_t span = (flags & 2) ? n + 2 : n;
  ccov::graph::Graph demand =
      complete ? ccov::graph::complete_graph(n) : ccov::graph::Graph(n);
  for (std::size_t i = 2; i + 1 < size; i += 2) {
    const std::uint32_t u = data[i] % span, v = data[i + 1] % span;
    if (u != v) demand.add_edge(u, v);
  }
  const std::string got = outcome(cov::greedy_cover_demand, n, demand);
  if (got != outcome(cov::reference::greedy_cover_demand, n, demand))
    std::abort();
  if (complete && demand.num_vertices() == n &&
      got != cov::to_string(cov::greedy_cover(n)))
    std::abort();
  return 0;
}
