#include "ccov/wdm/network.hpp"

#include <stdexcept>

namespace ccov::wdm {

WdmRingNetwork::WdmRingNetwork(std::uint32_t n,
                               const covering::RingCover& cover,
                               const Instance& instance)
    : ring_(n) {
  if (cover.n != n)
    throw std::invalid_argument("WdmRingNetwork: cover size mismatch");
  const auto report = covering::validate_cover_against(cover, instance.demands());
  if (!report.ok)
    throw std::invalid_argument("WdmRingNetwork: invalid covering: " +
                                report.error);
  std::uint32_t lambda = 0;
  subs_.reserve(cover.size());
  for (const auto cyc : cover.cycles()) {
    auto routing = covering::drc_route(ring_, cyc);
    if (!routing)  // unreachable after validation; defensive
      throw std::invalid_argument("WdmRingNetwork: cycle violates DRC");
    subs_.push_back(Subnetwork{covering::Cycle(cyc.begin(), cyc.end()),
                               std::move(*routing), lambda});
    lambda += 2;  // working + spare per sub-network
  }
}

std::uint64_t WdmRingNetwork::adm_count() const {
  std::uint64_t adms = 0;
  for (const auto& s : subs_) adms += s.cycle.size();
  return adms;
}

std::uint64_t WdmRingNetwork::transit_count() const {
  std::uint64_t transit = 0;
  for (const auto& s : subs_) transit += ring_.size() - s.cycle.size();
  return transit;
}

std::optional<std::size_t> WdmRingNetwork::serving_subnetwork(
    Vertex u, Vertex v) const {
  for (std::size_t k = 0; k < subs_.size(); ++k) {
    const auto& c = subs_[k].cycle;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Vertex a = c[i];
      const Vertex b = c[(i + 1) % c.size()];
      if ((a == u && b == v) || (a == v && b == u)) return k;
    }
  }
  return std::nullopt;
}

}  // namespace ccov::wdm
