#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "baselines/heft.hpp"
#include "baselines/list_heuristics.hpp"
#include "core/dag_ce.hpp"
#include "core/matchalgo.hpp"
#include "service/instance_cache.hpp"
#include "sim/schedule_eval.hpp"

namespace perfbench {
namespace {

using match::net::Status;
using match::net::WireResponse;

/// Longest path with every task on its fastest resource and free
/// communication, and total fastest work spread over all resources: no
/// schedule can beat either.
double dag_lower_bound(const match::sim::ScheduleEvaluator& eval) {
  const std::size_t n = eval.num_tasks();
  const std::size_t nr = eval.num_resources();
  std::vector<double> fastest(n, std::numeric_limits<double>::infinity());
  double work = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t r = 0; r < nr; ++r) {
      fastest[t] = std::min(fastest[t], eval.exec_cost(t, r));
    }
    work += fastest[t];
  }
  std::vector<double> finish(n, 0.0);
  double path = 0.0;
  for (const match::graph::NodeId t : eval.topo_order()) {
    double ready = 0.0;
    for (const match::graph::Neighbor& p : eval.dag().predecessors(t)) {
      ready = std::max(ready, finish[p.id]);
    }
    finish[t] = ready + fastest[t];
    path = std::max(path, finish[t]);
  }
  // Summation order differs from the scheduler's, so allow rounding.
  return std::max(path, work / static_cast<double>(nr)) * (1.0 - 1e-12);
}

/// Samples per iteration of one DAG CE solve configured as the service
/// configures it, so the figure follows the library's own sizing rule.
std::size_t dag_ce_batch(const match::sim::ScheduleEvaluator& eval,
                         const match::core::CeCommonParams& defaults,
                         std::size_t budget, std::uint64_t seed) {
  match::core::DagCeParams params;
  static_cast<match::core::CeCommonParams&>(params) = defaults;
  if (budget != 0) params.max_iterations = budget;
  match::rng::Rng rng(seed);
  match::SolverContext ctx;
  ctx.with_rng(rng);
  const match::core::DagCeResult r = match::core::solve_dag_ce(eval, params, ctx);
  return r.iterations == 0 ? 0 : r.evaluations / r.iterations;
}

std::string check_envelope(const WireResponse& response) {
  if (response.status != Status::kOk) {
    return std::string("status ") + match::net::to_string(response.status) +
           ": " + response.error;
  }
  if (!std::isfinite(response.response.cost)) return "non-finite cost";
  return {};
}

}  // namespace

Oracle::Oracle(const Plan& plan) {
  const match::core::CeCommonParams defaults = plan.solver_defaults();
  std::map<std::size_t, std::size_t> dag_batch;  ///< by task count
  entries_.resize(plan.instances.size());
  for (std::size_t k = 0; k < plan.instances.size(); ++k) {
    const match::workload::AnyInstance& any = *plan.instances[k];
    Entry& e = entries_[k];
    e.platform = std::make_unique<match::sim::Platform>(any.make_platform());
    e.tasks = any.size();
    e.resources = e.platform->num_resources();
    if (any.is_tig()) {
      e.tig_eval = std::make_unique<match::sim::CostEvaluator>(any.tig().tig,
                                                               *e.platform);
      e.reference = match::baselines::list_schedule(
                        *e.tig_eval, match::baselines::ListRule::kMinMin)
                        .best_cost;
      if (plan.solvers[k] == match::service::SolverKind::kMatch) {
        match::core::MatchParams params;
        static_cast<match::core::CeCommonParams&>(params) = defaults;
        e.batch = match::core::MatchOptimizer(*e.tig_eval, params)
                      .effective_sample_size();
      }
    } else {
      const match::sim::ScheduleEvaluator eval(any.dag().dag, *e.platform,
                                               defaults.eval_backend);
      e.reference = match::baselines::heft_schedule(eval).best_cost;
      e.lower_bound = dag_lower_bound(eval);
      if (plan.solvers[k] == match::service::SolverKind::kDagCe) {
        // The batch depends on the task count only: one solve per size.
        const auto [it, fresh] = dag_batch.try_emplace(e.tasks, 0);
        if (fresh) {
          it->second = dag_ce_batch(eval, defaults, plan.spec.max_iterations,
                                    plan.solve_seed(k));
        }
        e.batch = it->second;
      }
    }
  }
}

std::string Oracle::check(std::size_t k,
                          const WireResponse& response) const {
  if (std::string why = check_envelope(response); !why.empty()) return why;
  const match::service::MapResponse& r = response.response;
  const Entry& e = entries_[k];
  if (r.mapping.num_tasks() != e.tasks) return "mapping has the wrong size";
  if (e.tig_eval) {
    if (!r.mapping.is_permutation()) return "TIG mapping is not a permutation";
    const double cost = e.tig_eval->makespan(r.mapping);
    if (std::bit_cast<std::uint64_t>(cost) !=
        std::bit_cast<std::uint64_t>(r.cost)) {
      return "TIG cost differs from the re-evaluated makespan";
    }
    return {};
  }
  if (!r.mapping.is_valid(e.resources)) return "DAG task on an unknown resource";
  if (!(r.cost >= e.lower_bound)) return "DAG cost below the lower bound";
  return {};
}

std::string check_identical(const WireResponse& response,
                            const match::service::MapResponse& expected) {
  if (std::string why = check_envelope(response); !why.empty()) return why;
  const match::service::MapResponse& r = response.response;
  if (!(r.mapping == expected.mapping)) return "cached mapping differs";
  if (std::bit_cast<std::uint64_t>(r.cost) !=
      std::bit_cast<std::uint64_t>(expected.cost)) {
    return "cached cost differs";
  }
  return {};
}

std::uint64_t mapping_digest(const match::sim::Mapping& mapping) {
  match::service::Fingerprinter fp;
  for (const match::graph::NodeId r : mapping.assignment()) fp.mix(r);
  return fp.digest();
}

}  // namespace perfbench
