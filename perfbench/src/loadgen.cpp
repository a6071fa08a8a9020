#include "loadgen.hpp"

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "rng/rng.hpp"

namespace perfbench {

std::size_t run_closed_loop(
    std::size_t threads, double seconds, std::size_t min_count,
    const std::function<void(std::size_t, std::size_t)>& call) {
  const Clock::time_point start = Clock::now();
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<std::size_t> done{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t index = next.fetch_add(1);
          if (index >= min_count &&
              seconds_between(start, Clock::now()) >= seconds) {
            break;
          }
          call(t, index);
          done.fetch_add(1);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
  return done.load();
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  match::rng::Rng rng(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    offsets.push_back(t);
  }
  return offsets;
}

namespace {

/// Linux rounds every sleep up by the thread's timer slack, 50 µs by
/// default: about the mean gap at the rates used here.  A 1 ns slack lets
/// the generator sleep to within microseconds of a due time, leaving the
/// core to the stack under test instead of spinning on it.
class TightTimerSlack {
 public:
#if defined(__linux__)
  TightTimerSlack() : old_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  }
  ~TightTimerSlack() {
    if (old_ > 0) prctl(PR_SET_TIMERSLACK, old_, 0, 0, 0);
  }

 private:
  int old_;
#endif
};

}  // namespace

std::vector<Clock::time_point> run_open_loop(
    Clock::time_point start, std::span<const double> offsets,
    const std::function<void(std::size_t)>& send) {
  // The last stretch before a due time spins: a wake-up takes a few
  // microseconds even with a tight slack.
  constexpr auto kSpin = std::chrono::microseconds(20);
  const TightTimerSlack slack;
  std::vector<Clock::time_point> sent_at(offsets.size());
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Clock::time_point due = due_time(start, offsets[i]);
    for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
      if (due - now > kSpin) {
        std::this_thread::sleep_for(due - now - kSpin);
      } else {
        std::this_thread::yield();
      }
    }
    sent_at[i] = Clock::now();
    send(i);
  }
  return sent_at;
}

}  // namespace perfbench
