// Experiment T2 — Theorem 2 reproduction (even n).
//
// The paper: for n = 2p (p >= 3), rho(n) = ceil((p^2+1)/2); for n = 4q the
// covering has 4 C3 + (2q^2-3) C4, for n = 4q+2 it has 2 C3 + (2q^2+2q-1)
// C4. This library certifies those values exactly for even n <= 12
// (construction meeting the parity lower bound; the n = 10 base was found
// by exhaustive search). For larger even n the general construction is
// valid but uses floor((p-1)/2) extra cycles (n = 14: 28 vs rho = 25). Covers
// come through the engine's BatchRunner: one "construct" request per n,
// validated by the engine, rows in deterministic order.

#include <iostream>

#include "ccov/covering/bounds.hpp"
#include "ccov/engine/batch.hpp"
#include "ccov/engine/engine.hpp"
#include "ccov/util/table.hpp"

int main() {
  using namespace ccov::covering;
  namespace eng = ccov::engine;

  std::vector<eng::CoverRequest> requests;
  for (std::uint32_t n = 4; n <= 40; n += 2) {
    eng::CoverRequest req;
    req.algorithm = "construct";
    req.n = n;
    requests.push_back(req);
  }

  eng::Engine engine;
  eng::BatchRunner runner(engine);
  const auto responses = runner.run(requests);

  ccov::util::Table t({"n", "p", "rho(n) formula", "construction", "gap",
                       "C3", "C3 thm", "C4", "C4 thm", "parity LB",
                       "valid"});
  for (const auto& resp : responses) {
    const auto n = resp.n;
    std::string c3t = "-", c4t = "-";
    if (n >= 6) {
      const auto comp = theorem_composition(n);
      c3t = std::to_string(comp.c3);
      c4t = std::to_string(comp.c4);
    }
    t.add(n, n / 2, rho(n), resp.cover.size(), resp.cover.size() - rho(n),
          count_c3(resp.cover), c3t, count_c4(resp.cover), c4t,
          parity_lower_bound(n), resp.valid ? "yes" : "NO");
  }
  t.print(std::cout,
          "Theorem 2: DRC-covering of K_n over C_n, even n (paper: rho = "
          "ceil((p^2+1)/2))");
  std::cout
      << "\nShape check: gap = 0 with theorem compositions for n <= 12 "
         "(optimal, certified by the parity lower bound and, for n <= 10, "
         "exhaustive search); for n >= 14 the general construction is "
         "valid with gap floor((p-1)/2) — rho(n) remains the certified "
         "lower bound.\n";
  return 0;
}
