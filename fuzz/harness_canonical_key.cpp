#include "harnesses.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "ccov/engine/cache.hpp"
#include "reference_canonical_key.hpp"

namespace eng = ccov::engine;

/// Differential check of the canonical-key kernel. Byte 0 picks the ring
/// size n = 3..258; each following byte pair is one demand chord, its
/// vertices reduced mod n (self-loops and repeated chords included — the
/// demand is a multiset). Aborts when the fast key or its group element
/// differs from the exhaustive 2n-image scan, when mapping a cover into
/// the canonical frame differs from the reference's image, or when
/// mapping it back is not the identity.
int ccov_fuzz_canonical_key(const std::uint8_t* data, std::size_t size) {
  if (size < 1) return 0;
  eng::CoverRequest req;
  req.algorithm = "greedy";
  req.n = 3u + data[0];
  // Bounded so the O(n * m log m) reference stays fast per input.
  const std::size_t chords = std::min<std::size_t>((size - 1) / 2, 512);
  for (std::size_t i = 0; i < chords; ++i)
    req.demand.push_back({data[1 + 2 * i] % req.n, data[2 + 2 * i] % req.n});

  const eng::CanonicalKey fast = eng::canonical_request_key(req);
  const eng::CanonicalKey ref = eng::reference::canonical_request_key(req);
  if (fast.key != ref.key ||
      fast.to_canonical.reflect != ref.to_canonical.reflect ||
      fast.to_canonical.shift != ref.to_canonical.shift)
    std::abort();

  // The demand chords as 2-vertex cycles: the in-place apply_element
  // must match the reference's rotate/reflect image, and apply_inverse
  // must undo it exactly, vertex for vertex.
  ccov::covering::RingCover cover;
  cover.n = req.n;
  for (const auto& e : req.demand) cover.cycles.push_back({e.u, e.v});
  ccov::covering::RingCover moved = cover;
  eng::apply_element(&moved, fast.to_canonical);
  if (moved.cycles !=
      eng::reference::apply_element(cover, fast.to_canonical).cycles)
    std::abort();
  eng::apply_inverse(&moved, fast.to_canonical);
  if (moved.cycles != cover.cycles) std::abort();
  return 0;
}
