#pragma once
/// \file construct.hpp
/// DRC-covering constructions for Theorems 1 and 2: optimal for odd n
/// and even n <= 12; even n >= 14 gets rho(n) + floor((p-1)/2), p = n/2.

#include "ccov/covering/cover.hpp"

namespace ccov::covering {

/// Optimal DRC-covering of K_n over C_n for odd n >= 3 (Theorem 1).
/// Inductive construction K_{n-2} -> K_n: exactly p C3 and p(p-1)/2 C4,
/// p = (n-1)/2, meeting the capacity lower bound. O(n^2) time/output.
RingCover construct_odd_cover(std::uint32_t n);

/// DRC-covering of K_n over C_n for even n >= 4 (Theorem 2). For
/// n <= 12 (base covers plus two-vertex insertion steps): exactly rho(n)
/// cycles and, for n >= 6, the paper's composition (4 C3 for n = 4q,
/// 2 C3 for n = 4q+2). For n >= 14 a general construction with
/// p(p+1)/2 = rho(n) + floor((p-1)/2) cycles, p = n/2 — valid, not optimal.
RingCover construct_even_cover(std::uint32_t n);

/// Dispatch to the odd/even construction. The result always validates; it
/// has exactly rho(n) cycles except for even n >= 14 (see above).
RingCover build_optimal_cover(std::uint32_t n);

}  // namespace ccov::covering
