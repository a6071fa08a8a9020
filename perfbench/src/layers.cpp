#include "layers.hpp"

#include <algorithm>
#include <limits>

#include "core/genperm.hpp"
#include "core/stochastic_matrix.hpp"
#include "loadgen.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/rng.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "sim/schedule_eval.hpp"

namespace perfbench {
namespace {

namespace sim = match::sim;
using match::graph::NodeId;

constexpr int kRepeats = 7;
/// Caps the timed batch so large instances stay within a second.
constexpr std::size_t kMaxBatch = 8192;
/// Batch for instances whose solver does not sample (min-min, HEFT).
constexpr std::size_t kFallbackBatch = 256;

/// Median over `kRepeats` timed calls (after one warm-up) of
/// seconds-per-call ÷ `per_call` items, in nanoseconds.
template <typename Fn>
double median_ns(std::size_t per_call, Fn&& fn) {
  fn();
  std::vector<double> ns;
  for (int i = 0; i < kRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ns.push_back(1e9 * seconds_between(t0, Clock::now()) /
                 static_cast<double>(per_call));
  }
  return quantile(std::move(ns), 0.5);
}

/// A block of `count` GenPerm draws of size n from the uniform matrix.
sim::SampleBlock draw_block(std::size_t n, std::size_t count,
                            std::uint64_t seed) {
  const auto p = match::core::StochasticMatrix::uniform(n, n);
  match::core::RowAliasTables tables;
  tables.build(p);
  match::core::GenPermSampler sampler(n);
  match::rng::Rng rng(seed);
  std::vector<NodeId> row(n);
  sim::SampleBlock block(n, count);
  for (std::size_t i = 0; i < count; ++i) {
    sampler.sample(p, tables, rng, row);
    block.store_sample(i, row);
  }
  return block;
}

double tig_eval_ns(const match::workload::Instance& inst, std::size_t count,
                   std::uint64_t seed) {
  match::parallel::ForOptions serial;
  serial.serial_cutoff = std::numeric_limits<std::size_t>::max();
  const sim::Platform platform = inst.make_platform();
  const sim::CostEvaluator eval(inst.tig, platform);
  const sim::BatchEvaluator batch(eval, sim::EvalBackend::kAuto);
  const std::size_t n = inst.size();
  const sim::SampleBlock block = draw_block(n, count, seed);
  std::vector<double> costs(count);
  return median_ns(count, [&] { batch.evaluate(block, costs, serial); });
}

double dag_eval_ns(const match::workload::DagInstance& inst, std::size_t count,
                   std::uint64_t seed) {
  match::parallel::ForOptions serial;
  serial.serial_cutoff = std::numeric_limits<std::size_t>::max();
  const sim::Platform platform = inst.make_platform();
  const sim::ScheduleEvaluator eval(inst.dag, platform, sim::EvalBackend::kAuto);
  const std::size_t n = inst.size();
  const sim::SampleBlock block = draw_block(n, count, seed);
  std::vector<double> costs(count);
  return median_ns(count, [&] { eval.priority_makespans_batch(block, costs, serial); });
}

}  // namespace

void PhaseTotals::emit(const match::obs::Event& event) {
  if (event.kind != match::obs::EventKind::kPhase) return;
  std::lock_guard<std::mutex> lock(mutex_);
  totals_[event.solver + "." + event.phase] += event.seconds;
}

std::map<std::string, double> PhaseTotals::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

void PhaseTotals::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.clear();
}

KernelTimes time_kernels(const Plan& plan, const Oracle& oracle) {
  KernelTimes out;
  std::size_t n = 0;
  for (std::size_t k = 0; k < plan.instances.size(); ++k) {
    const match::workload::AnyInstance& inst = *plan.instances[k];
    n = std::max(n, inst.size());
    const std::size_t batch = std::min(
        kMaxBatch, oracle.batch_size(k) != 0 ? oracle.batch_size(k) : kFallbackBatch);
    if (inst.is_tig() && !out.tig_eval_ns.contains(inst.size())) {
      out.tig_eval_ns[inst.size()] = tig_eval_ns(inst.tig(), batch, plan.seed);
    } else if (inst.is_dag() && !out.dag_eval_ns.contains(inst.size())) {
      out.dag_eval_ns[inst.size()] = dag_eval_ns(inst.dag(), batch, plan.seed);
    }
  }
  const auto p = match::core::StochasticMatrix::uniform(n, n);
  match::core::RowAliasTables tables;
  tables.build(p);
  match::core::GenPermSampler sampler(n);
  match::rng::Rng rng(plan.seed);
  std::vector<NodeId> row(n);
  const std::size_t draws = std::clamp<std::size_t>(kMaxBatch / n, 16, 2048);
  out.draw_ns = median_ns(draws, [&] {
    for (std::size_t i = 0; i < draws; ++i) sampler.sample(p, tables, rng, row);
  });
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

}  // namespace perfbench
