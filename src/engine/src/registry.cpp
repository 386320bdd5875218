#include "ccov/engine/registry.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "ccov/baselines/c4_cover.hpp"
#include "ccov/baselines/emz.hpp"
#include "ccov/baselines/triple_cover.hpp"
#include "ccov/covering/bounds.hpp"
#include "ccov/covering/construct.hpp"
#include "ccov/covering/greedy.hpp"
#include "ccov/covering/solver.hpp"
#include "ccov/extensions/lambda_cover.hpp"

namespace ccov::engine {

namespace {

/// Shared preconditions for the built-ins that only understand the plain
/// all-to-all instance.
void require_all_to_all(const CoverRequest& req, const char* name) {
  if (!req.demand.empty())
    throw std::invalid_argument(std::string(name) +
                                ": explicit demands are not supported");
  if (req.lambda != 1)
    throw std::invalid_argument(std::string(name) +
                                ": lambda != 1 is not supported");
}

std::uint64_t effective_budget(const CoverRequest& req) {
  return req.budget != 0 ? req.budget : covering::rho(req.n);
}

/// Solver options for this run: the request's search knobs plus its
/// runtime interruption controls (deadline fixed at accept time, the
/// server's cancel token).
covering::SolverOptions runtime_solver_options(const CoverRequest& req) {
  covering::SolverOptions opts = req.solver;
  opts.deadline = req.deadline;
  opts.cancel = req.cancel;
  return opts;
}

AlgorithmOutcome outcome_from(covering::SolverResult res) {
  AlgorithmOutcome out{std::move(res.cover), res.found, res.exhausted,
                       res.nodes};
  out.timed_out = res.timed_out;
  out.cancelled = res.cancelled;
  return out;
}

/// The built-in strategies, sorted by name (names() lists them in table
/// order; the static_assert below keeps the order and uniqueness).
constexpr Algorithm kAlgorithms[] = {
    {"c4", "classical C4 covering of K_n, no routing constraint (ref [2])",
     [](const CoverRequest& req) {
       require_all_to_all(req, "c4");
       return AlgorithmOutcome{
           covering::RingCover{req.n, baselines::greedy_c4_cover(req.n)}};
     },
     nullptr},
    {"construct",
     "Theorems 1-2 covering of K_n; above rho(n) for even n >= 14",
     [](const CoverRequest& req) {
       require_all_to_all(req, "construct");
       return AlgorithmOutcome{covering::build_optimal_cover(req.n)};
     },
     nullptr},
    {"emz", "greedy cover minimizing the Eilam-Moran-Zaks size objective",
     [](const CoverRequest& req) {
       require_all_to_all(req, "emz");
       return AlgorithmOutcome{baselines::emz_greedy_cover(req.n)};
     },
     nullptr},
    {"greedy", "greedy DRC-covering baseline (accepts an explicit demand)",
     [](const CoverRequest& req) {
       if (req.lambda != 1)
         throw std::invalid_argument("greedy: lambda != 1 is not supported");
       if (req.demand.empty())
         return AlgorithmOutcome{covering::greedy_cover(req.n)};
       return AlgorithmOutcome{covering::greedy_cover_demand(
           req.n, demand_graph(req.n, req.demand))};
     },
     nullptr},
    {"lambda", "DRC-covering of lambda*K_n (--lambda copies of the optimum)",
     [](const CoverRequest& req) {
       if (!req.demand.empty())
         throw std::invalid_argument(
             "lambda: explicit demands are not supported");
       return AlgorithmOutcome{
           extensions::build_lambda_cover(req.n, req.lambda)};
     },
     [](const CoverRequest& req, const covering::RingCover& cover) {
       return extensions::validate_lambda_cover(cover, req.lambda);
     }},
    {"solve",
     "exact branch-and-bound search within --budget cycles "
     "(default rho(n))",
     [](const CoverRequest& req) {
       require_all_to_all(req, "solve");
       return outcome_from(covering::solve_with_budget(
           req.n, effective_budget(req), runtime_solver_options(req)));
     },
     nullptr},
    {"solve-parallel",
     "exact search fanned across --threads (shared node budget, "
     "witness identical to solve)",
     [](const CoverRequest& req) {
       require_all_to_all(req, "solve-parallel");
       return outcome_from(covering::solve_with_budget_parallel(
           req.n, effective_budget(req), runtime_solver_options(req),
           req.threads));
     },
     nullptr},
    {"triple",
     "classical triangle covering C(n,3,2), no routing constraint "
     "(refs [6,7])",
     [](const CoverRequest& req) {
       require_all_to_all(req, "triple");
       return AlgorithmOutcome{covering::RingCover{
           req.n, baselines::greedy_triple_cover(req.n)}};
     },
     nullptr},
};

static_assert(std::ranges::adjacent_find(kAlgorithms,
                                         std::ranges::greater_equal{},
                                         &Algorithm::name) ==
                  std::ranges::end(kAlgorithms),
              "kAlgorithms must be sorted by name without duplicates");

}  // namespace

const Algorithm* AlgorithmRegistry::find(std::string_view name) const {
  for (const Algorithm& algo : kAlgorithms)
    if (algo.name == name) return &algo;
  return nullptr;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  std::vector<std::string> out;
  for (const Algorithm& algo : kAlgorithms) out.emplace_back(algo.name);
  return out;
}

std::size_t AlgorithmRegistry::size() const { return std::size(kAlgorithms); }

const AlgorithmRegistry& AlgorithmRegistry::global() {
  static const AlgorithmRegistry reg;
  return reg;
}

}  // namespace ccov::engine
