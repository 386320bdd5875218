#include "harnesses.hpp"

#include <cstdlib>

#include "ccov/covering/construct.hpp"
#include "ccov/graph/generators.hpp"
#include "reference_validate.hpp"

namespace cov = ccov::covering;

/// Differential check of the cover validator. Byte 0 picks the ring size
/// n = 0..63 (n < 3 included); byte 1 holds flags: bit 0 starts from the
/// rho-cover of n (for 3 <= n <= 40) instead of an empty one, bit 1 adds
/// an explicit demand, bit 2 makes that demand lambda*K_n with lambda =
/// 1 + bits 4-5. The rest is read as cycles, each a length byte (mod 8)
/// and that many vertex bytes, then, with an explicit demand, the bytes
/// after a 0xFF separator as chord pairs. Vertices are reduced mod n + 3,
/// so some lie off the ring. Aborts when validate_cover or
/// validate_cover_against differs from the std::map reference in any
/// ValidationReport field.
int ccov_fuzz_validate_cover(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return 0;
  const std::uint32_t n = data[0] % 64;
  const std::uint8_t flags = data[1];
  const std::uint32_t span = n + 3;
  cov::RingCover cover;
  cover.n = n;
  if ((flags & 1) && n >= 3 && n <= 40) cover = cov::build_optimal_cover(n);

  std::size_t i = 2;
  while (i < size && data[i] != 0xFF) {
    const std::size_t len = data[i++] % 8;
    cov::Cycle c;
    for (std::size_t j = 0; j < len && i < size; ++j)
      c.push_back(data[i++] % span);
    cover.cycles.push_back(std::move(c));
  }

  if (!(flags & 2)) {
    if (!cov::reference::same_report(cov::validate_cover(cover),
                                     cov::reference::validate_cover(cover)))
      std::abort();
    return 0;
  }
  ccov::graph::Graph demand(n);
  if (flags & 4)
    demand = ccov::graph::complete_multigraph(n, 1 + ((flags >> 4) & 3));
  for (++i; i + 1 < size; i += 2) {
    const std::uint32_t u = data[i] % span, v = data[i + 1] % span;
    if (u != v) demand.add_edge(u, v);
  }
  if (!cov::reference::same_report(
          cov::validate_cover_against(cover, demand),
          cov::reference::validate_cover_against(cover, demand)))
    std::abort();
  return 0;
}
