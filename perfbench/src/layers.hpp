#pragma once

// Per-layer measurements for the traced run, taken from the benchmark's
// side of each layer's public surface: CE phase totals from the `kPhase`
// events a `ServiceConfig::sink` receives, and the three hot kernels
// timed on one thread at the workload's size.

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "oracle.hpp"
#include "plan.hpp"

namespace perfbench {

/// Sums `kPhase` seconds by "<solver>.<phase>" ("match.draw", "ce.cost",
/// ...).  Thread-safe: service workers emit concurrently.
class PhaseTotals final : public match::obs::EventSink {
 public:
  void emit(const match::obs::Event& event) override;

  std::map<std::string, double> totals() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> totals_;
};

/// Single-thread kernel costs in nanoseconds per sample, keyed by task
/// count (the first pool instance of each size stands for that size).
struct KernelTimes {
  double draw_ns = 0.0;  ///< GenPermSampler::sample at the largest instance
  std::map<std::size_t, double> tig_eval_ns;  ///< BatchEvaluator::evaluate
  /// ScheduleEvaluator::priority_makespans_batch
  std::map<std::size_t, double> dag_eval_ns;
};

/// Times the kernels on one thread, median of several repetitions after
/// a warm-up, each evaluation over a batch of the size the instance's
/// solver draws (`Oracle::batch_size`).  The draw is timed from a uniform
/// matrix with the alias backend, the solvers' default.
KernelTimes time_kernels(const Plan& plan, const Oracle& oracle);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
