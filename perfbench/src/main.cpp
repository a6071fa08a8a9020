// perfbench: one workload against the real serving stack, end to end.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--git-sha SHA] [--record PATH]
//
// Starts `service::MappingService` behind `net::MatchServer` on loopback
// in this process, drives the workload's plan through `net::Client`
// connections, checks every answer (oracle.hpp) and that the server's
// books balance, and prints one JSON object as the last line of stdout.
//
// --trace 0 prints the end-to-end metrics of an untraced run; set-up is
// repeated eleven times and its median reported.  --trace 1 runs half the
// time untraced and half traced (FlightRecorder spans + a phase sink on
// the service) and prints the per-layer metrics, the reconciliation
// residuals, the tracing overhead, and fails the run unless every traced
// answer is bit-identical to the untraced one.  The exit status is 0 only
// when every check passed.

#include <sys/resource.h>

#include <bit>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/spans.hpp"
#include "oracle.hpp"
#include "plan.hpp"
#include "service/service.hpp"

namespace {

using namespace perfbench;
namespace net = match::net;
namespace obs = match::obs;
namespace service = match::service;

/// A set-up of the solve and wire_miss workloads takes ~40-60 ms, so a
/// host pause of 1-50 ms can double one; the median of eleven rides out
/// several.
constexpr std::size_t kSetupRepeats = 11;
constexpr double kWarmUpSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha;
  std::string record_path;
};

/// What the benchmark keeps of one request.
struct Record {
  bool answered = false;
  std::string failure;  ///< "" = status kOk and every check passed
  Clock::time_point sent{};
  Clock::time_point received{};
  double latency = 0.0;  ///< seconds from the due time (open) or send (closed)
  service::ServedBy served_by = service::ServedBy::kSolver;
  double cost = 0.0;
  std::uint64_t digest = 0;
  std::size_t iterations = 0;
  double queue_seconds = 0.0;
  double solve_seconds = 0.0;
};

/// The serving stack under test.  Member order is teardown order in
/// reverse: clients close first, then the server stops, then the
/// service drains, and the observers it writes to go last.
struct Stack {
  std::unique_ptr<PhaseTotals> phases;
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<service::MappingService> service;
  std::unique_ptr<net::MatchServer> server;
  std::vector<net::Client> clients;

  Stack(const Plan& plan, bool traced) {
    if (traced) {
      phases = std::make_unique<PhaseTotals>();
      obs::FlightRecorderConfig rc;
      rc.recent_capacity = std::size_t{1} << 17;
      rc.slow_threshold_seconds = 1e9;  // keep by recency only
      recorder = std::make_unique<obs::FlightRecorder>(rc);
    }
    // Admission bounds wide enough to ride out a host stall of a second
    // at the open-loop rate: a shed request would be a failed one.
    constexpr std::size_t kPending = std::size_t{1} << 15;
    service::ServiceConfig sc;
    sc.cache_capacity = plan.spec.cache_capacity;
    sc.solver_defaults = plan.solver_defaults();
    sc.queue_capacity = kPending;
    sc.sink = phases.get();
    service = std::make_unique<service::MappingService>(sc);
    net::ServerConfig nc;
    nc.admission.max_pending = kPending;
    nc.recorder = recorder.get();
    server = std::make_unique<net::MatchServer>(*service, nc);
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back("127.0.0.1", server->port());
    }
  }
};

/// One stack's life: set-up, the measured stream, teardown.
struct Segment {
  std::vector<Record> records;  ///< by request index
  double wall_seconds = 0.0;
  std::vector<double> setup_seconds;
  std::size_t setup_requests = 0;  ///< registration and warm-up
  std::vector<double> lateness;  ///< open loop: send − due, seconds
  service::ServiceStats before;
  service::ServiceStats after;
  std::map<std::string, double> phases;
  std::vector<obs::SpanTimeline> timelines;
  std::vector<std::string> failures;  ///< set-up, books

  std::size_t end() const { return records.size(); }
};

class Runner {
 public:
  Runner(const Plan& plan, const Oracle& oracle) : plan_(plan), oracle_(oracle) {}

  Segment run(bool traced, double seconds, std::size_t setup_repeats) {
    Segment seg;
    std::unique_ptr<Stack> stack;
    for (std::size_t r = 0; r < setup_repeats; ++r) {
      stack.reset();
      const Clock::time_point t0 = Clock::now();
      stack = std::make_unique<Stack>(plan_, traced);
      set_up(*stack, seg);
      seg.setup_seconds.push_back(seconds_between(t0, Clock::now()));
      if (r + 1 < setup_repeats) close_books(*stack, seg);
    }
    warm_up(*stack, seg);
    if (stack->phases) stack->phases->reset();
    seg.before = stack->service->stats();

    if (plan_.spec.loop == Loop::kClosed) {
      run_closed(*stack, seg, seconds);
    } else {
      run_open(*stack, seg, seconds);
    }

    seg.after = stack->service->stats();
    if (stack->phases) seg.phases = stack->phases->totals();
    close_books(*stack, seg);
    if (stack->recorder) seg.timelines = stack->recorder->snapshot();
    return seg;
  }

 private:
  /// Registers every pool instance inline.  With fixed seeds these are
  /// the solves that fill the cache, and their answers are what every
  /// later hit must repeat.
  void set_up(Stack& stack, Segment& seg) {
    expected_.clear();
    for (std::size_t k = 0; k < plan_.instances.size(); ++k) {
      const net::WireRequest req = plan_.registration(k);
      const net::WireResponse resp = stack.clients[0].call(req);
      std::string why = oracle_.check(k, resp);
      if (why.empty() && resp.response.solver != req.request.solver) {
        why = "answered by the wrong solver";
      }
      if (!why.empty()) {
        seg.failures.push_back("set-up of instance " + std::to_string(k) + ": " + why);
      }
      expected_.push_back(resp.response);
    }
    seg.setup_requests = plan_.instances.size();
  }

  /// Runs the workload's own requests closed-loop, unrecorded, so the
  /// host's clocks and caches and the stack's lazily built state have
  /// settled before the measured stream starts.  Indices far above the
  /// measured range keep fresh-seed requests distinct from it.
  void warm_up(Stack& stack, Segment& seg) {
    constexpr std::size_t kBase = std::size_t{1} << 32;
    std::mutex mutex;
    seg.setup_requests += run_closed_loop(stack.clients.size(), kWarmUpSeconds, 0,
                    [&](std::size_t t, std::size_t index) {
                      const net::WireResponse resp =
                          stack.clients[t].call(plan_.request(kBase + index));
                      Record rec;
                      fill(kBase + index, resp, rec);
                      if (!rec.failure.empty()) {
                        std::lock_guard<std::mutex> lock(mutex);
                        seg.failures.push_back("warm-up: " + rec.failure);
                      }
                    });
  }

  void fill(std::size_t index, const net::WireResponse& resp, Record& rec) const {
    const std::size_t k = plan_.instance_of(index);
    rec.answered = true;
    rec.failure = plan_.spec.fresh_seeds ? oracle_.check(k, resp)
                                         : check_identical(resp, expected_[k]);
    if (rec.failure.empty() && resp.response.solver != plan_.solvers[k]) {
      rec.failure = "answered by the wrong solver";
    }
    if (resp.request_id != index + 1) rec.failure = "answer to the wrong request";
    const service::MapResponse& r = resp.response;
    rec.served_by = r.served_by;
    rec.cost = r.cost;
    rec.digest = mapping_digest(r.mapping);
    rec.iterations = r.iterations;
    rec.queue_seconds = r.queue_seconds;
    rec.solve_seconds = r.solve_seconds;
  }

  void run_closed(Stack& stack, Segment& seg, double seconds) {
    const std::size_t prefix = plan_.spec.quality_prefix;
    std::vector<std::vector<std::pair<std::size_t, Record>>> done(
        stack.clients.size());
    const Clock::time_point t0 = Clock::now();
    const std::size_t count = run_closed_loop(
        stack.clients.size(), seconds, prefix,
        [&](std::size_t t, std::size_t index) {
          const net::WireRequest req = plan_.request(index);
          Record rec;
          rec.sent = Clock::now();
          const net::WireResponse resp = stack.clients[t].call(req);
          rec.received = Clock::now();
          rec.latency = seconds_between(rec.sent, rec.received);
          fill(index, resp, rec);
          done[t].emplace_back(index, std::move(rec));
        });
    seg.wall_seconds = seconds_between(t0, Clock::now());
    seg.records.resize(count);
    for (auto& per_thread : done) {
      for (auto& [index, rec] : per_thread) seg.records[index] = std::move(rec);
    }
  }

  void run_open(Stack& stack, Segment& seg, double seconds) {
    const std::vector<double> offsets =
        poisson_schedule(plan_.spec.rate, seconds, plan_.seed ^ 0x6f70656eULL);
    seg.records.resize(offsets.size());
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

    std::vector<std::thread> readers;
    for (net::Client& client : stack.clients) {
      readers.emplace_back([this, &client, &seg] {
        try {
          for (;;) {
            const net::WireResponse resp = client.receive();
            const Clock::time_point now = Clock::now();
            const std::size_t index = resp.request_id - 1;
            if (resp.request_id == 0 || index >= seg.records.size()) continue;
            Record& rec = seg.records[index];
            rec.received = now;
            fill(index, resp, rec);
          }
        } catch (const std::exception&) {
          // End of stream: the server closes a half-closed connection
          // once every admitted request has been answered.
        }
      });
    }
    const std::size_t conns = stack.clients.size();
    const std::vector<Clock::time_point> sent_at =
        run_open_loop(start, offsets, [&](std::size_t i) {
          stack.clients[i % conns].send(plan_.request(i));
        });
    for (net::Client& client : stack.clients) client.shutdown_send();
    for (std::thread& reader : readers) reader.join();

    seg.wall_seconds = seconds;
    seg.lateness.resize(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      const Clock::time_point due = due_time(start, offsets[i]);
      Record& rec = seg.records[i];
      rec.sent = sent_at[i];
      rec.latency = seconds_between(due, rec.received);
      seg.lateness[i] = seconds_between(due, sent_at[i]);
    }
  }

  /// Closes the connections, stops the server, and checks its books:
  /// every decoded request reached exactly one terminal counter.
  static void close_books(Stack& stack, Segment& seg) {
    stack.clients.clear();
    stack.server->stop();
    const net::ServerCounters c = stack.server->counters();
    if (c.requests != c.terminal()) {
      seg.failures.push_back("server books do not balance: " +
                             std::to_string(c.requests) + " requests, " +
                             std::to_string(c.terminal()) + " terminal");
    }
  }

  const Plan& plan_;
  const Oracle& oracle_;
  std::vector<service::MapResponse> expected_;  ///< wire_hit warm-up answers
};

// ---- Metrics ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> reasons;

  void add(const Segment& seg) {
    attempted += seg.setup_requests + seg.end();
    for (const std::string& why : seg.failures) fail(why);
    for (std::size_t i = 0; i < seg.end(); ++i) {
      const Record& rec = seg.records[i];
      if (!rec.answered) {
        fail("request " + std::to_string(i) + " was never answered");
      } else if (!rec.failure.empty()) {
        fail("request " + std::to_string(i) + ": " + rec.failure);
      }
    }
  }
  void fail(const std::string& why) {
    ++failed;
    if (reasons.size() < 10) reasons.push_back(why);
  }
};

double ms(double seconds) { return 1e3 * seconds; }

std::vector<double> measured_latencies(const Segment& seg) {
  std::vector<double> out;
  for (std::size_t i = 0; i < seg.end(); ++i) {
    if (seg.records[i].answered) out.push_back(seg.records[i].latency);
  }
  return out;
}

// Runs of at least kMinChunks × kChunk requests report latency and
// throughput as the median over consecutive kChunk-request chunks (in
// send order) of each chunk's value; shorter runs (the solve workloads,
// a few hundred requests) over the whole run.  The host pauses the whole
// machine for 1-50 ms several times a minute and slows it for seconds at
// a time (a bare sleep loop and a fixed spin loop see both).  In an open
// loop one pause delays every request due during it; in either loop a
// slow stretch moves a whole-run tail several-fold from run to run.  The
// chunked median reports the system rather than the host's worst
// stretch, and a chunk still holds ten requests beyond its p99.
constexpr std::size_t kChunk = 1000;
constexpr std::size_t kMinChunks = 8;

/// [begin, end) request ranges of the chunks; one range spanning the
/// run when it is too short to split.
std::vector<std::pair<std::size_t, std::size_t>> chunks(const Segment& seg) {
  const std::size_t n = seg.end();
  if (n < kChunk * kMinChunks) return {{0, n}};
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t b = 0; b + kChunk <= n; b += kChunk) out.emplace_back(b, b + kChunk);
  return out;
}

double latency_quantile(const Segment& seg, double q) {
  std::vector<double> per_chunk;
  for (const auto& [begin, end] : chunks(seg)) {
    std::vector<double> lat;
    for (std::size_t i = begin; i < end; ++i) {
      if (seg.records[i].answered) lat.push_back(seg.records[i].latency);
    }
    per_chunk.push_back(quantile(std::move(lat), q));
  }
  return quantile(std::move(per_chunk), 0.5);
}

/// Successful responses per second.
double throughput(const Segment& seg) {
  const auto ok = [&seg](std::size_t begin, std::size_t end) {
    std::size_t n = 0;
    for (std::size_t i = begin; i < end; ++i) {
      n += seg.records[i].answered && seg.records[i].failure.empty();
    }
    return static_cast<double>(n);
  };
  const auto parts = chunks(seg);
  if (parts.size() == 1) return ok(0, seg.end()) / seg.wall_seconds;
  std::vector<double> per_chunk;
  for (const auto& [begin, end] : parts) {
    per_chunk.push_back(ok(begin, end) / seconds_between(seg.records[begin].sent,
                                                         seg.records[end - 1].received));
  }
  return quantile(std::move(per_chunk), 0.5);
}

/// Mean served-makespan ÷ reference over the quality prefix.
double quality_ratio(const Plan& plan, const Oracle& oracle, const Segment& seg) {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(plan.spec.quality_prefix, seg.end()); ++i) {
    sum += seg.records[i].cost / oracle.reference_cost(plan.instance_of(i));
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

std::vector<Metric> end_to_end(const Plan& plan, const Oracle& oracle,
                               const Segment& seg) {
  return {
      {"setup_s", quantile(seg.setup_seconds, 0.5), "s"},
      {"req_per_s", throughput(seg), "1/s"},
      {"latency_p50_ms", ms(latency_quantile(seg, 0.50)), "ms"},
      {"latency_p90_ms", ms(latency_quantile(seg, 0.90)), "ms"},
      {"quality_ratio", quality_ratio(plan, oracle, seg), "ratio"},
  };
}

double sum_phase(const std::map<std::string, double>& phases, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [key, seconds] : phases) {
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += seconds;
    }
  }
  return total;
}

/// How much the thread pool helped the cost pass: the single-thread
/// kernel time of the samples the service's solves evaluated, ÷ the
/// cost-phase time those solves took.  0 when the segment ran no CE
/// solve of this kind.
double eval_speedup(const Plan& plan, const Oracle& oracle, const Segment& seg,
                    const std::map<std::size_t, double>& kernel_ns, bool tig) {
  const auto it = seg.phases.find(tig ? "match.cost" : "ce.cost");
  if (it == seg.phases.end() || !(it->second > 0.0)) return 0.0;
  double serial_seconds = 0.0;
  for (std::size_t i = 0; i < seg.end(); ++i) {
    const Record& rec = seg.records[i];
    const std::size_t k = plan.instance_of(i);
    const auto& inst = *plan.instances[k];
    if (rec.served_by != service::ServedBy::kSolver || oracle.batch_size(k) == 0 ||
        inst.is_tig() != tig) {
      continue;
    }
    serial_seconds += 1e-9 * kernel_ns.at(inst.size()) *
                      static_cast<double>(rec.iterations * oracle.batch_size(k));
  }
  return serial_seconds / it->second;
}

/// The kernel time at the pool's largest size of one kind (0 if none).
double largest_ns(const std::map<std::size_t, double>& by_size) {
  return by_size.empty() ? 0.0 : by_size.rbegin()->second;
}

std::vector<Metric> per_layer(const Plan& plan, const Oracle& oracle,
                              const Segment& plain, const Segment& traced,
                              const KernelTimes& kernels, std::size_t mismatches,
                              const Tally& tally) {
  const Segment& seg = traced;
  std::vector<double> queue, solve;
  double solve_total = 0.0;
  double iterations = 0.0, samples = 0.0;
  std::size_t solves = 0;
  for (std::size_t i = 0; i < seg.end(); ++i) {
    const Record& rec = seg.records[i];
    if (!rec.answered) continue;
    queue.push_back(rec.queue_seconds);
    solve.push_back(rec.solve_seconds);
    solve_total += rec.solve_seconds;
  }
  for (std::size_t i = 0; i < std::min(plan.spec.quality_prefix, seg.end()); ++i) {
    const std::size_t k = plan.instance_of(i);
    if (seg.records[i].served_by != service::ServedBy::kSolver ||
        oracle.batch_size(k) == 0) {
      continue;
    }
    iterations += static_cast<double>(seg.records[i].iterations);
    samples += static_cast<double>(seg.records[i].iterations * oracle.batch_size(k));
    ++solves;
  }
  const auto frac = [solve_total](double part) {
    return solve_total > 0.0 ? part / solve_total : 0.0;
  };
  const double draw = sum_phase(seg.phases, ".draw");
  const double cost = sum_phase(seg.phases, ".cost");
  const double sort = sum_phase(seg.phases, ".sort");
  const double update = sum_phase(seg.phases, ".update");

  // Span stages, joined with the client's view by wire request id.
  std::map<obs::SpanStage, std::vector<double>> stages;
  std::vector<double> transport;
  double client_total = 0.0, unexplained = 0.0;
  for (const obs::SpanTimeline& tl : seg.timelines) {
    if (tl.request_id == 0 || tl.request_id - 1 >= seg.end()) {
      continue;
    }
    const Record& rec = seg.records[tl.request_id - 1];
    if (!rec.answered) continue;
    for (const obs::SpanRecord& span : tl.spans) {
      stages[span.stage].push_back(span.duration_seconds());
    }
    const double client = seconds_between(rec.sent, rec.received);
    const double gap = client - tl.attributed_seconds();
    transport.push_back(gap);
    client_total += client;
    unexplained += gap;
  }
  const auto stage_ms = [&stages](obs::SpanStage stage) {
    const auto it = stages.find(stage);
    return it == stages.end() ? 0.0 : ms(quantile(it->second, 0.5));
  };

  std::vector<double> bytes(plan.instances.size());
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    bytes[k] = static_cast<double>(net::encode_request(plan.request(k)).size());
  }
  double bytes_sum = 0.0;
  for (std::size_t i = 0; i < seg.end(); ++i) {
    bytes_sum += bytes[plan.instance_of(i)];
  }
  const std::size_t measured = seg.end();

  const service::ServiceStats& a = seg.after;
  const service::ServiceStats& b = seg.before;
  const double hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double lookups = hits + static_cast<double>(a.cache_misses - b.cache_misses);

  const double plain_p50 = latency_quantile(plain, 0.5);
  const double traced_p50 = latency_quantile(traced, 0.5);

  return {
      {"core.draw_frac", frac(draw), "ratio"},
      {"core.draw_ns", kernels.draw_ns, "ns"},
      {"core.select_frac", frac(sort), "ratio"},
      {"core.update_frac", frac(update), "ratio"},
      {"core.iterations", solves ? iterations / static_cast<double>(solves) : 0.0, "count"},
      {"core.samples_per_solve", solves ? samples / static_cast<double>(solves) : 0.0, "count"},
      {"sim.eval_frac", frac(cost), "ratio"},
      {"sim.tig_eval_ns", largest_ns(kernels.tig_eval_ns), "ns"},
      {"sim.dag_eval_ns", largest_ns(kernels.dag_eval_ns), "ns"},
      {"parallel.tig_eval_speedup",
       eval_speedup(plan, oracle, seg, kernels.tig_eval_ns, true), "ratio"},
      {"parallel.dag_eval_speedup",
       eval_speedup(plan, oracle, seg, kernels.dag_eval_ns, false), "ratio"},
      {"service.queue_ms_p50", ms(quantile(queue, 0.50)), "ms"},
      {"service.queue_ms_p90", ms(quantile(queue, 0.90)), "ms"},
      {"service.solve_ms_p50", ms(quantile(solve, 0.50)), "ms"},
      {"service.cache_hit_frac", lookups > 0.0 ? hits / lookups : 0.0, "ratio"},
      {"service.evictions", static_cast<double>(a.cache_evictions - b.cache_evictions), "count"},
      {"service.coalesced", static_cast<double>(a.coalesced - b.coalesced), "count"},
      {"service.peak_queue_depth", static_cast<double>(a.peak_queue_depth), "count"},
      {"net.decode_ms_p50", stage_ms(obs::SpanStage::kDecode), "ms"},
      {"net.admission_ms_p50", stage_ms(obs::SpanStage::kAdmission), "ms"},
      {"net.encode_ms_p50", stage_ms(obs::SpanStage::kEncode), "ms"},
      {"net.flush_ms_p50", stage_ms(obs::SpanStage::kWriteFlush), "ms"},
      {"net.request_bytes_mean", measured ? bytes_sum / static_cast<double>(measured) : 0.0, "bytes"},
      {"net.transport_ms_p50", ms(quantile(transport, 0.5)), "ms"},
      {"trace.residual_frac", client_total > 0.0 ? unexplained / client_total : 0.0, "ratio"},
      {"trace.solve_residual_frac",
       solve_total > 0.0 ? 1.0 - (draw + cost + sort + update) / solve_total : 0.0, "ratio"},
      {"trace.overhead_frac", plain_p50 > 0.0 ? traced_p50 / plain_p50 - 1.0 : 0.0, "ratio"},
      {"trace.observer_mismatches", static_cast<double>(mismatches), "count"},
      {"bench.gen_late_ms_p99", ms(quantile(seg.lateness, 0.99)), "ms"},
      {"bench.latency_p99_ms", ms(latency_quantile(plain, 0.99)), "ms"},
      {"bench.latency_p99_run_ms", ms(quantile(measured_latencies(plain), 0.99)), "ms"},
      {"bench.peak_rss_mb", peak_rss_mb(), "MB"},
      {"bench.error_frac",
       tally.attempted ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) : 0.0,
       "ratio"},
  };
}

/// Pure-observer check: every request both segments answered must carry
/// the same cost and mapping.
std::size_t observer_mismatches(const Segment& plain, const Segment& traced) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(plain.end(), traced.end()); ++i) {
    const Record& a = plain.records[i];
    const Record& b = traced.records[i];
    if (!a.answered || !b.answered) continue;
    if (std::bit_cast<std::uint64_t>(a.cost) != std::bit_cast<std::uint64_t>(b.cost) ||
        a.digest != b.digest) {
      ++mismatches;
    }
  }
  return mismatches;
}

// ---- Output -------------------------------------------------------------

std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    append_json_string(out, metrics[i].name);
    out += ": {\"value\": " + number(metrics[i].value) + ", \"unit\": ";
    append_json_string(out, metrics[i].unit);
    out += "}";
  }
  return out + "}";
}

std::string fingerprint_json(const std::map<std::string, std::string>& fp) {
  std::string out = "{";
  for (const auto& [key, value] : fp) {
    if (out.size() > 1) out += ", ";
    append_json_string(out, key);
    out += ": ";
    append_json_string(out, value);
  }
  return out + "}";
}

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1"
               " [--git-sha SHA] [--record PATH]\n  workloads:";
  for (const WorkloadSpec& spec : workload_specs()) std::cerr << ' ' << spec.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage(argv[0]);
        opt.trace = value == "1";
      } else if (arg == "--git-sha") {
        opt.git_sha = value;
      } else if (arg == "--record") {
        opt.record_path = value;
      } else {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (!have_workload || !(opt.seconds > 0.0)) usage(argv[0]);
  try {
    workload_spec(opt.workload);
  } catch (const std::invalid_argument&) {
    usage(argv[0]);
  }
  return opt;
}

int run(const Options& opt) {
  const Plan plan = make_plan(opt.workload, opt.seed);
  const Oracle oracle(plan);
  const auto fingerprint = host_fingerprint(plan, opt.git_sha);
  Runner runner(plan, oracle);

  Tally tally;
  std::vector<Metric> metrics;
  std::size_t samples = 0;
  std::vector<double> setups;
  if (!opt.trace) {
    const Segment seg = runner.run(false, opt.seconds, kSetupRepeats);
    tally.add(seg);
    samples = measured_latencies(seg).size();
    setups = seg.setup_seconds;
    metrics = end_to_end(plan, oracle, seg);
  } else {
    const Segment plain = runner.run(false, opt.seconds / 2, 1);
    const Segment traced = runner.run(true, opt.seconds / 2, 1);
    tally.add(plain);
    tally.add(traced);
    const std::size_t mismatches = observer_mismatches(plain, traced);
    for (std::size_t i = 0; i < mismatches; ++i) {
      tally.fail("traced answer differs from the untraced one");
    }
    samples = measured_latencies(traced).size();
    const KernelTimes kernels = time_kernels(plan, oracle);
    metrics = per_layer(plan, oracle, plain, traced, kernels, mismatches, tally);
  }
  const bool correct = tally.failed == 0;

  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\nfingerprint " << fingerprint_json(fingerprint)
            << "\nlatency samples: " << samples << "\n";
  if (!setups.empty()) {
    std::cout << "set-up seconds:";
    for (const double t : setups) std::cout << ' ' << number(t);
    std::cout << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& why : tally.reasons) std::cout << "FAILED: " << why << "\n";

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!opt.record_path.empty()) {
    std::ofstream record(opt.record_path);
    std::string workload;
    append_json_string(workload, opt.workload);
    record << "{\"workload\": " << workload << ", \"seed\": " << opt.seed
           << ", \"trace\": " << (opt.trace ? 1 : 0)
           << ", \"fingerprint\": " << fingerprint_json(fingerprint)
           << ", \"result\": " << result << "}\n";
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
