#include "plan.hpp"

#include <stdexcept>

#include "rng/rng.hpp"
#include "rng/splitmix64.hpp"
#include "service/instance_cache.hpp"
#include "service/service.hpp"
#include "workload/dag_suite.hpp"
#include "workload/paper_suite.hpp"

namespace perfbench {
namespace {

using match::service::SolverKind;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  match::rng::SplitMix64 sm(a ^ (b * 0xD1B54A32D192ED03ULL));
  sm.next();
  return sm.next();
}

std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// wire_hit's offered rate: about a quarter of the closed-loop capacity of
// cache hits over two connections (40-42k req/s measured on a 4-core
// Xeon).  A fixed rate keeps latency comparable across commits;
// saturation throughput itself swings too much from run to run to be the
// metric.  At half the capacity, a host slowdown of ~30% brought the
// stack to its knee: the chunked p90 jumped from 0.1 ms to 0.7-1.4 ms in
// three runs of seven.  At a quarter, six runs agreed within 7%.
constexpr double kWireHitRate = 10000.0;

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  // Budgets sit below the fewest iterations the solvers' own stopping
  // rules took on these instance families (MaTCH >= 53 at n = 24-32 and
  // >= 15 at n = 8-14, DAG CE >= 11 at 24-128 tasks), so nearly every
  // solve, wire_hit's cache-filling ones included, runs the full budget.
  static const std::vector<WorkloadSpec> specs = {
      {"tig_solve", Loop::kClosed, 0.0, true, true, 50, 96, 4096},
      {"dag_solve", Loop::kClosed, 0.0, true, true, 10, 144, 4096},
      // wire_hit's cache-filling solves run serially.  Their batches are
      // small enough that parallel_for's completion handshake loses a
      // race: the caller can see the count reach zero and return, freeing
      // its mutex, while the last pool worker is about to lock it to
      // notify.  That aborted about one run in fifty.  No solver runs in
      // wire_hit's measured stream.
      {"wire_hit", Loop::kOpen, kWireHitRate, true, false, 10, 64, 4096, false},
      // A cache far smaller than the request stream: every insert past
      // the first 64 evicts.
      {"wire_miss", Loop::kClosed, 0.0, false, true, 0, 32, 64},
  };
  return specs;
}

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t Plan::solve_seed(std::size_t index) const {
  return spec.fresh_seeds ? mix(seed, index + 1) : mix(seed, 0);
}

match::net::WireRequest Plan::request(std::size_t index) const {
  const std::size_t k = instance_of(index);
  match::net::WireRequest req;
  req.request_id = index + 1;
  req.request.id = req.request_id;
  req.request.solver = solvers[k];
  req.request.options.seed = solve_seed(index);
  req.request.options.max_iterations = spec.max_iterations;
  if (spec.by_fingerprint) {
    req.by_fingerprint = true;
    req.instance_fingerprint = fingerprints[k];
  } else {
    req.request.instance = instances[k];
  }
  return req;
}

match::core::CeCommonParams Plan::solver_defaults() const {
  match::core::CeCommonParams defaults = match::service::ServiceConfig{}.solver_defaults;
  defaults.parallel = spec.parallel_solves;
  return defaults;
}

match::net::WireRequest Plan::registration(std::size_t k) const {
  match::net::WireRequest req;
  req.request_id = kSetupIdBase + k;
  req.request.id = req.request_id;
  if (spec.fresh_seeds) {
    req.request.solver = instances[k]->is_tig() ? SolverKind::kMinMin
                                                : SolverKind::kHeft;
  } else {
    req.request.solver = solvers[k];
    req.request.options.max_iterations = spec.max_iterations;
  }
  req.request.options.seed = mix(seed, 0);
  req.request.instance = instances[k];
  return req;
}

Plan make_plan(const std::string& workload, std::uint64_t seed) {
  namespace wl = match::workload;
  Plan plan;
  plan.spec = workload_spec(workload);
  plan.seed = seed;
  match::rng::Rng rng(mix(seed, name_hash(workload)));

  const auto add = [&plan](wl::AnyInstance instance, SolverKind solver) {
    plan.fingerprints.push_back(
        match::service::fingerprint_instance(instance));
    plan.instances.push_back(
        std::make_shared<const wl::AnyInstance>(std::move(instance)));
    plan.solvers.push_back(solver);
  };
  const auto tig = [&rng](std::size_t n) {
    wl::PaperParams params;
    params.n = n;
    return wl::make_paper_instance(params, rng);
  };
  const auto dag = [&rng](std::size_t tasks, std::size_t layers) {
    wl::DagSuiteParams params;
    params.tasks = tasks;
    params.resources = 8;
    params.layers = layers;
    return wl::make_dag_instance(wl::DagFamily::kLayered, params, rng);
  };

  if (workload == "tig_solve") {
    for (std::size_t k = 0; k < 48; ++k) {
      add(tig(24 + 4 * (k % 3)), SolverKind::kMatch);
    }
  } else if (workload == "dag_solve") {
    // DAG CE ÷ HEFT has a standard deviation of ~0.11 across instances,
    // so quality_ratio needs a large pool to agree across seeds; 144
    // solves fit in a 20 s run.
    for (std::size_t k = 0; k < 144; ++k) add(dag(128, 8), SolverKind::kDagCe);
  } else if (workload == "wire_hit") {
    for (std::size_t k = 0; k < 64; ++k) {
      if (k % 2 == 0) {
        add(tig(8 + 2 * (k / 2 % 4)), SolverKind::kMatch);
      } else {
        add(dag(24 + 8 * (k / 2 % 3), 4), SolverKind::kDagCe);
      }
    }
  } else {  // wire_miss
    // Min-min grows ~n^4, so the TIGs stay small enough that the frame
    // work, not the heuristic, dominates; the DAGs carry the big frames
    // (~180 KB at 512 tasks).
    for (std::size_t k = 0; k < 16; ++k) {
      if (k % 2 == 0) {
        add(tig(40), SolverKind::kMinMin);
      } else {
        add(dag(512, 16), SolverKind::kHeft);
      }
    }
  }
  return plan;
}

}  // namespace perfbench
