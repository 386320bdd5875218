#include "ccov/baselines/emz.hpp"

#include "ccov/covering/bounds.hpp"
#include "ccov/covering/greedy.hpp"

namespace ccov::baselines {

std::uint64_t emz_objective(const covering::RingCover& cover) {
  return cover.verts.size();
}

std::uint64_t emz_lower_bound(std::uint32_t n) {
  // At least rho-lower-bound cycles are needed and each has >= 3 vertices.
  return 3 * covering::parity_lower_bound(n);
}

covering::RingCover emz_greedy_cover(std::uint32_t n) {
  return covering::greedy_cover(n);
}

}  // namespace ccov::baselines
