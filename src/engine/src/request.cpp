#include "ccov/engine/request.hpp"

#include <algorithm>
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
  for (std::size_t i = 0; i < resp.cover.cycles.size(); ++i) {
    if (i) os << ";";
    os << covering::to_string(resp.cover.cycles[i]);
  }
  os << "]";
  return os.str();
}

graph::Graph demand_graph(std::uint32_t n,
                          const std::vector<graph::Edge>& demand) {
  std::vector<graph::Edge> chords;
  chords.reserve(demand.size());
  for (const auto& e : demand) chords.push_back(graph::normalized(e));
  const auto lex = [](const graph::Edge& x, const graph::Edge& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  };
  std::sort(chords.begin(), chords.end(), lex);
  chords.erase(std::unique(chords.begin(), chords.end()), chords.end());
  graph::Graph g(n);
  for (const auto& e : chords) g.add_edge(e.u, e.v);
  return g;
}

}  // namespace ccov::engine
