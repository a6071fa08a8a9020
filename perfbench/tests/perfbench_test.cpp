// Tests of the benchmark itself: seeded inputs, the correctness gate,
// and the load generators' timing contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "baselines/heft.hpp"
#include "baselines/list_heuristics.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "plan.hpp"
#include "sim/evaluator.hpp"
#include "sim/schedule_eval.hpp"

namespace perfbench {
namespace {

using match::net::Status;
using match::net::WireResponse;

TEST(Plan, SameSeedSameInstancesOtherSeedOthers) {
  for (const WorkloadSpec& spec : workload_specs()) {
    const Plan a = make_plan(spec.name, 7);
    const Plan b = make_plan(spec.name, 7);
    const Plan c = make_plan(spec.name, 8);
    EXPECT_EQ(a.fingerprints, b.fingerprints) << spec.name;
    EXPECT_NE(a.fingerprints, c.fingerprints) << spec.name;
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(a.request(i).request.options.seed,
                b.request(i).request.options.seed);
    }
  }
}

TEST(Plan, FreshSeedsMakeEveryRequestADistinctKey) {
  const Plan plan = make_plan("tig_solve", 3);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) seeds.insert(plan.solve_seed(i));
  EXPECT_EQ(seeds.size(), 100u);
  const Plan hit = make_plan("wire_hit", 3);
  EXPECT_EQ(hit.request(5).request.options.seed,
            hit.registration(hit.instance_of(5)).request.options.seed);
  EXPECT_TRUE(hit.request(5).by_fingerprint);
}

/// A correct answer for pool instance k, from the in-process baseline.
WireResponse baseline_answer(const Plan& plan, std::size_t k) {
  const auto& any = *plan.instances[k];
  const match::sim::Platform platform = any.make_platform();
  WireResponse resp;
  resp.status = Status::kOk;
  resp.response.solver = plan.solvers[k];
  if (any.is_tig()) {
    const match::sim::CostEvaluator eval(any.tig().tig, platform);
    const auto r = match::baselines::list_schedule(
        eval, match::baselines::ListRule::kMinMin);
    resp.response.mapping = r.best_mapping;
    resp.response.cost = r.best_cost;
  } else {
    const match::sim::ScheduleEvaluator eval(any.dag().dag, platform);
    const auto r = match::baselines::heft_schedule(eval);
    resp.response.mapping = r.best_mapping;
    resp.response.cost = r.best_cost;
  }
  return resp;
}

TEST(Oracle, AcceptsCorrectTigAnswerAndRejectsTampering) {
  const Plan plan = make_plan("tig_solve", 1);
  const Oracle oracle(plan);
  WireResponse good = baseline_answer(plan, 0);
  good.response.solver = plan.solvers[0];
  EXPECT_EQ(oracle.check(0, good), "");

  // Swap two entries that change the makespan.
  const auto& inst = plan.instances[0]->tig();
  const match::sim::Platform platform = inst.make_platform();
  const match::sim::CostEvaluator eval(inst.tig, platform);
  WireResponse swapped = good;
  bool found = false;
  for (std::size_t b = 1; b < inst.size() && !found; ++b) {
    swapped = good;
    const auto ra = good.response.mapping.resource_of(0);
    swapped.response.mapping.set(0, good.response.mapping.resource_of(b));
    swapped.response.mapping.set(b, ra);
    found = eval.makespan(swapped.response.mapping) != good.response.cost;
  }
  ASSERT_TRUE(found);
  EXPECT_NE(oracle.check(0, swapped), "");

  WireResponse perturbed = good;
  perturbed.response.cost = std::nextafter(good.response.cost, 0.0);
  EXPECT_NE(oracle.check(0, perturbed), "");

  WireResponse duplicate = good;
  duplicate.response.mapping.set(1, good.response.mapping.resource_of(0));
  EXPECT_NE(oracle.check(0, duplicate), "");

  WireResponse shed = good;
  shed.status = Status::kShed;
  EXPECT_NE(oracle.check(0, shed), "");
}

TEST(Oracle, AcceptsCorrectDagAnswerAndRejectsTampering) {
  const Plan plan = make_plan("dag_solve", 1);
  const Oracle oracle(plan);
  const WireResponse good = baseline_answer(plan, 2);
  EXPECT_EQ(oracle.check(2, good), "");
  EXPECT_GT(oracle.lower_bound(2), 0.0);
  EXPECT_LE(oracle.lower_bound(2), oracle.reference_cost(2));

  WireResponse out_of_range = good;
  out_of_range.response.mapping.set(3, 8);  // 8 resources: ids 0..7
  EXPECT_NE(oracle.check(2, out_of_range), "");

  WireResponse too_cheap = good;
  too_cheap.response.cost = 0.5 * oracle.lower_bound(2);
  EXPECT_NE(oracle.check(2, too_cheap), "");
}

TEST(Oracle, CacheHitsMustRepeatTheFillingSolveBitForBit) {
  const Plan plan = make_plan("dag_solve", 1);
  const WireResponse fill = baseline_answer(plan, 0);
  EXPECT_EQ(check_identical(fill, fill.response), "");

  WireResponse swapped = fill;
  swapped.response.mapping.set(0, fill.response.mapping.resource_of(0) ^ 1u);
  EXPECT_NE(check_identical(swapped, fill.response), "");

  WireResponse perturbed = fill;
  perturbed.response.cost = std::nextafter(fill.response.cost, 1e300);
  EXPECT_NE(check_identical(perturbed, fill.response), "");
}

TEST(OpenLoop, TimesFromTheDueTimeAndReportsLateness) {
  std::vector<double> offsets;
  for (int i = 0; i < 10; ++i) offsets.push_back(1e-3 * i);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // Request 2 stalls the generator for 30 ms; everything behind it is due
  // before it can go out.
  const auto sent_at = run_open_loop(start, offsets, [](std::size_t i) {
    if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(30));
  });
  ASSERT_EQ(sent_at.size(), offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_GE(sent_at[i], due_time(start, offsets[i])) << i;
  }
  const auto late = [&](std::size_t i) {
    return seconds_between(due_time(start, offsets[i]), sent_at[i]);
  };
  EXPECT_LT(late(0), 5e-3);
  EXPECT_GT(late(3), 25e-3);  // charged the stall it waited behind
  EXPECT_GT(late(9), 18e-3);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate) {
  const auto a = poisson_schedule(1000.0, 2.0, 11);
  EXPECT_EQ(a, poisson_schedule(1000.0, 2.0, 11));
  EXPECT_NE(a, poisson_schedule(1000.0, 2.0, 12));
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 200.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 2.0);
}

TEST(ClosedLoop, RunsAContiguousRangeOfAtLeastMinCount) {
  std::mutex mutex;
  std::vector<std::size_t> seen;
  const std::size_t count = run_closed_loop(
      2, 0.0, 10, [&](std::size_t, std::size_t index) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.push_back(index);
      });
  EXPECT_GE(count, 10u);
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), count);
  for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ClosedLoop, RethrowsTheFirstFailure) {
  EXPECT_THROW(run_closed_loop(2, 10.0, 0,
                               [](std::size_t, std::size_t index) {
                                 if (index == 3) throw std::runtime_error("x");
                               }),
               std::runtime_error);
}

}  // namespace
}  // namespace perfbench
