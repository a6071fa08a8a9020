#pragma once

// Load generation: closed loops (each thread waits for its answer before
// sending again) and an open-loop Poisson generator that times every
// request from when it was due, so a stall in the generator or the
// server is charged to every request it delayed.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Runs `threads` threads, each calling `call(thread, index)` back to
/// back with indices drawn from one shared counter starting at 0.  A
/// thread stops once `seconds` have passed and its next index is at
/// least `min_count`, so the indices run form the contiguous range
/// [0, returned count).  The first exception thrown by `call` stops
/// every thread and is rethrown after they are joined.
std::size_t run_closed_loop(
    std::size_t threads, double seconds, std::size_t min_count,
    const std::function<void(std::size_t thread, std::size_t index)>& call);

/// Due offsets (seconds after the start) of a Poisson process at `rate`
/// arrivals per second over `seconds`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

/// Calls `send(i)` for every offset, never before `start + offsets[i]`.
/// A late send is not skipped: the generator catches up by sending
/// back to back, so `sent_at[i] - due` is how late request i went out.
/// Returns the send instants, one per offset.
std::vector<Clock::time_point> run_open_loop(
    Clock::time_point start, std::span<const double> offsets,
    const std::function<void(std::size_t index)>& send);

/// `start + offset` as a steady-clock instant.
inline Clock::time_point due_time(Clock::time_point start, double offset) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset));
}

}  // namespace perfbench
