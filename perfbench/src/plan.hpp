#pragma once

// Workload plans: every input a benchmark run sends, generated from the
// run's seed before the clock starts.  The serving stack only ever sees
// the wire requests a plan produces.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ce_params.hpp"
#include "net/wire.hpp"
#include "service/request.hpp"
#include "workload/any_instance.hpp"

namespace perfbench {

/// Closed loop: each connection sends its next request when the previous
/// one is answered.  Open loop: requests go out on a Poisson schedule
/// whether or not earlier ones were answered.
enum class Loop { kClosed, kOpen };

/// Client connections per workload (one thread each in a closed loop):
/// with the server's reactor and two service workers this stays within
/// a 4-core host.
inline constexpr std::size_t kConnections = 2;

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kClosed;
  double rate = 0.0;            ///< open loop: arrivals per second
  bool by_fingerprint = false;  ///< requests name pre-registered instances
  /// Every request carries a new solver seed, so none can hit the cache.
  /// Otherwise requests repeat the seed of the set-up solves, so all hit.
  bool fresh_seeds = true;
  /// Per-request iteration budget (0 = the solver's own stopping rule).
  /// A fixed budget gives every solve the same amount of work, so latency
  /// and quality measure the time and the result of that work.
  std::size_t max_iterations = 0;
  /// Requests [0, quality_prefix) define quality_ratio and the solver
  /// counts, so those repeat exactly for a seed however fast the run is.
  std::size_t quality_prefix = 0;
  std::size_t cache_capacity = 4096;  ///< service solution-cache entries
  /// CE solves spread each batch over the global thread pool
  /// (`CeCommonParams::parallel`).
  bool parallel_solves = true;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_specs();

/// Throws `std::invalid_argument` on an unknown name.
const WorkloadSpec& workload_spec(const std::string& name);

/// Wire ids at and above this belong to set-up traffic (registration and
/// cache warm-up), never to the measured stream.
inline constexpr std::uint64_t kSetupIdBase = std::uint64_t{1} << 40;

struct Plan {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  /// The instance pool; request i uses instance `instance_of(i)`.
  std::vector<std::shared_ptr<const match::workload::AnyInstance>> instances;
  std::vector<match::service::SolverKind> solvers;  ///< per instance
  std::vector<std::uint64_t> fingerprints;          ///< per instance

  std::size_t instance_of(std::size_t index) const {
    return index % instances.size();
  }

  /// Solver seed of request `index`: fresh per request, or the fixed
  /// seed the cache warm-up used.
  std::uint64_t solve_seed(std::size_t index) const;

  /// Request `index` of the measured stream; its wire id is index + 1.
  match::net::WireRequest request(std::size_t index) const;

  /// The service's solver knobs for this workload
  /// (`ServiceConfig::solver_defaults`).
  match::core::CeCommonParams solver_defaults() const;

  /// Set-up request for pool instance `k`: sends it inline, so the server
  /// registers it for fingerprint references.  With fixed seeds it is
  /// solved by the workload's solver at the requests' seed, filling the
  /// cache; otherwise by the cheap baseline (min-min / HEFT).
  match::net::WireRequest registration(std::size_t k) const;
};

Plan make_plan(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
