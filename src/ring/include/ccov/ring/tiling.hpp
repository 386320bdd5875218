#pragma once
/// \file tiling.hpp
/// Exact tilings of the ring by arcs. A cycle
/// admits a DRC routing iff its routing arcs tile the ring exactly once
/// (winding number 1), so tilings are the combinatorial heart of the paper.

#include <cstdint>
#include <vector>

#include "ccov/ring/arc.hpp"

namespace ccov::ring {

/// True when the arcs cover every ring edge exactly once. Order-insensitive.
bool is_exact_tiling(const Ring& r, const std::vector<Arc>& arcs);

/// Per-ring-edge coverage counts induced by a set of arcs.
std::vector<std::uint32_t> edge_load(const Ring& r, const std::vector<Arc>& arcs);

/// Maximum entry of edge_load (the congestion of the arc set).
std::uint32_t max_load(const Ring& r, const std::vector<Arc>& arcs);

/// Sum of arc lengths.
std::uint64_t total_length(const std::vector<Arc>& arcs);

}  // namespace ccov::ring
