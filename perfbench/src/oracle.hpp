#pragma once

// The correctness gate and the quality references, built off the clock
// from a plan's instance pool.
//
//   TIG answer: the mapping is a permutation of the n resources and the
//               reported cost equals `CostEvaluator::makespan` re-run on
//               it, bit for bit (the paper suite is integer-valued).
//   DAG answer: every task is mapped to an in-range resource and the
//               cost is >= the critical-path lower bound.
//   Cache hit:  the answer is bit-identical to the fresh solve that
//               filled the cache.
//
// References for quality_ratio: min-min for TIGs, HEFT for DAGs, run
// in-process on the same instances.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "plan.hpp"
#include "sim/evaluator.hpp"
#include "sim/platform.hpp"

namespace perfbench {

class Oracle {
 public:
  explicit Oracle(const Plan& plan);

  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// "" when `response` is a correct answer to a request for pool
  /// instance `k`; otherwise what failed.  Which solver answered is the
  /// caller's to check.
  std::string check(std::size_t k, const match::net::WireResponse& response) const;

  /// Reference makespan of pool instance `k` (min-min / HEFT).
  double reference_cost(std::size_t k) const { return entries_[k].reference; }

  /// DAG lower bound of pool instance `k` (0 for TIGs).
  double lower_bound(std::size_t k) const { return entries_[k].lower_bound; }

  /// Samples per CE iteration the service's solver draws for instance
  /// `k`, as the library reports it (MaTCH:
  /// `MatchOptimizer::effective_sample_size`; DAG CE: evaluations ÷
  /// iterations of an off-the-clock `solve_dag_ce` at the service's
  /// defaults and the workload's budget).  0 for solvers that do not
  /// sample.
  std::size_t batch_size(std::size_t k) const { return entries_[k].batch; }

 private:
  struct Entry {
    std::unique_ptr<match::sim::Platform> platform;
    std::unique_ptr<match::sim::CostEvaluator> tig_eval;  ///< TIGs only
    std::size_t tasks = 0;
    std::size_t resources = 0;
    double reference = 0.0;
    double lower_bound = 0.0;
    std::size_t batch = 0;
  };

  std::vector<Entry> entries_;
};

/// "" when `response` is bit-identical (mapping and cost) to `expected`.
std::string check_identical(const match::net::WireResponse& response,
                            const match::service::MapResponse& expected);

/// Order-sensitive 64-bit digest of a mapping, for cheap equality checks
/// between runs.
std::uint64_t mapping_digest(const match::sim::Mapping& mapping);

}  // namespace perfbench
