#include "ccov/engine/registry.hpp"

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

void AlgorithmRegistry::add(Algorithm algo) {
  if (algo.name.empty())
    throw std::invalid_argument("AlgorithmRegistry: empty algorithm name");
  if (!algo.run)
    throw std::invalid_argument("AlgorithmRegistry: algorithm '" + algo.name +
                                "' has no run function");
  util::MutexLock lk(mu_);
  const std::string name = algo.name;
  if (algos_.count(name))
    throw std::invalid_argument("AlgorithmRegistry: duplicate algorithm '" +
                                name + "'");
  algos_.emplace(name, std::move(algo));
}

const Algorithm* AlgorithmRegistry::find(const std::string& name) const {
  util::MutexLock lk(mu_);
  const auto it = algos_.find(name);
  return it == algos_.end() ? nullptr : &it->second;
}

std::vector<std::string> AlgorithmRegistry::names() const {
  util::MutexLock lk(mu_);
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& [name, _] : algos_) out.push_back(name);
  return out;  // std::map iterates in sorted order
}

std::size_t AlgorithmRegistry::size() const {
  util::MutexLock lk(mu_);
  return algos_.size();
}

AlgorithmRegistry& AlgorithmRegistry::global() {
  static AlgorithmRegistry reg;
  // Magic-static init is thread-safe and runs exactly once; keeping the
  // built-in registration here (instead of static registrar objects in
  // this TU) means static-library dead-stripping can never lose it.
  static const bool initialized = (register_builtin_algorithms(reg), true);
  (void)initialized;
  return reg;
}

AlgorithmRegistrar::AlgorithmRegistrar(Algorithm algo) {
  AlgorithmRegistry::global().add(std::move(algo));
}

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

}  // namespace

void register_builtin_algorithms(AlgorithmRegistry& reg) {
  if (reg.contains("construct")) return;  // idempotent

  reg.add({"construct",
           "Theorems 1-2 covering of K_n; above rho(n) for even n >= 14", true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "construct");
             return AlgorithmOutcome{covering::build_optimal_cover(req.n)};
           },
           nullptr});

  reg.add({"solve",
           "exact branch-and-bound search within --budget cycles "
           "(default rho(n))",
           true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "solve");
             return outcome_from(covering::solve_with_budget(
                 req.n, effective_budget(req), runtime_solver_options(req)));
           },
           nullptr});

  reg.add({"solve-parallel",
           "exact search fanned across --threads (shared node budget, "
           "witness identical to solve)",
           true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "solve-parallel");
             return outcome_from(covering::solve_with_budget_parallel(
                 req.n, effective_budget(req), runtime_solver_options(req),
                 req.threads));
           },
           nullptr});

  reg.add({"greedy",
           "greedy DRC-covering baseline (accepts an explicit demand)", true,
           [](const CoverRequest& req) {
             if (req.lambda != 1)
               throw std::invalid_argument(
                   "greedy: lambda != 1 is not supported");
             if (req.demand.empty())
               return AlgorithmOutcome{covering::greedy_cover(req.n)};
             return AlgorithmOutcome{covering::greedy_cover_demand(
                 req.n, demand_graph(req.n, req.demand))};
           },
           nullptr});

  reg.add({"emz",
           "greedy cover minimizing the Eilam-Moran-Zaks size objective",
           true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "emz");
             return AlgorithmOutcome{baselines::emz_greedy_cover(req.n)};
           },
           nullptr});

  reg.add({"c4",
           "classical C4 covering of K_n, no routing constraint (ref [2])",
           true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "c4");
             return AlgorithmOutcome{covering::RingCover{
                 req.n, baselines::greedy_c4_cover(req.n)}};
           },
           nullptr});

  reg.add({"triple",
           "classical triangle covering C(n,3,2), no routing constraint "
           "(refs [6,7])",
           true,
           [](const CoverRequest& req) {
             require_all_to_all(req, "triple");
             return AlgorithmOutcome{covering::RingCover{
                 req.n, baselines::greedy_triple_cover(req.n)}};
           },
           nullptr});

  reg.add({"lambda",
           "DRC-covering of lambda*K_n (--lambda copies of the optimum)",
           true,
           [](const CoverRequest& req) {
             if (!req.demand.empty())
               throw std::invalid_argument(
                   "lambda: explicit demands are not supported");
             return AlgorithmOutcome{
                 extensions::build_lambda_cover(req.n, req.lambda)};
           },
           [](const CoverRequest& req, const covering::RingCover& cover) {
             return extensions::validate_lambda_cover(cover, req.lambda);
           }});
}

}  // namespace ccov::engine
