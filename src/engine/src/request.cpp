#include "ccov/engine/request.hpp"

#include <sstream>

#include "ccov/covering/cycle.hpp"

namespace ccov::engine {

std::string deterministic_row(const CoverResponse& resp) {
  std::ostringstream os;
  os << "algo=" << resp.algorithm << " n=" << resp.n << " ok=" << resp.ok
     << " found=" << resp.found << " exhausted=" << resp.exhausted
     << " nodes=" << resp.nodes << " cycles=" << resp.cover.size()
     << " c3=" << covering::count_c3(resp.cover)
     << " c4=" << covering::count_c4(resp.cover)
     << " validated=" << resp.validated << " valid=" << resp.valid
     << " error='" << resp.error << "' cover=[";
  for (std::size_t i = 0; i < resp.cover.size(); ++i) {
    if (i) os << ";";
    os << covering::to_string(resp.cover.cycle(i));
  }
  os << "]";
  return os.str();
}

graph::Graph demand_graph(std::uint32_t n,
                          const std::vector<graph::Edge>& demand) {
  graph::Graph g(n);
  for (const auto& e : demand)
    if (g.multiplicity(e.u, e.v) == 0) g.add_edge(e.u, e.v);
  return g;
}

}  // namespace ccov::engine
