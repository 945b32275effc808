// Sample statistics and open-loop verdicts used by every workload.
//
// Percentiles are nearest-rank: percentile p of n sorted samples is the
// value at rank ceil(p/100 * n), and the samples "beyond" it are the
// n - ceil(p/100 * n) above that rank. A tail is only reported at a
// percentile that has at least kMinBeyond samples beyond it, so a p99
// never rests on a handful of requests.
#pragma once

#include <chrono>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (every thread), seconds.
double process_cpu_seconds();

inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `values` (need not be sorted). Empty input
/// gives NaN.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank percentile p of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of {99, 95, 90, 75, 50} that has at least kMinBeyond of n
/// samples beyond it; 50 when none has.
double tail_percentile(std::size_t n);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Timing of one open-loop operation, in seconds from the phase start.
/// `due` is when the schedule said to send it, `sent` when the generator
/// started writing it, `writer_free` when the generator's previous write
/// returned (a full pipe blocks it: that wait is the server's, not the
/// generator's), `received` when its response line arrived. An operation
/// with no response has received = +inf.
struct OpTimes {
  double due = 0.0;
  double sent = 0.0;
  double writer_free = 0.0;
  double received = std::numeric_limits<double>::infinity();
  bool ok = false;
};

/// Latency of an operation, timed from its due time so that a stall in
/// the generator or the server is charged to every operation it delays.
/// Failed or unanswered operations count as +inf: they miss any limit.
double latency_from_due(const OpTimes& op);

/// latency_from_due of every operation, in milliseconds.
std::vector<double> latencies_ms(const std::vector<OpTimes>& ops);

/// The generator's own lateness per operation, seconds: how long after it
/// was both due and free to write it did the generator start the write.
std::vector<double> generator_lag(const std::vector<OpTimes>& ops);

/// Achieved send rate: operations sent per second between the first and
/// the last send.
double send_rate(const std::vector<OpTimes>& ops);

/// Percentile p of latency from due over the whole phase, in
/// milliseconds (failures count as +inf). Every operation counts, so an
/// intermittent stall moves the tail as much as it delays operations.
double latency_ms(const std::vector<OpTimes>& ops, double p);

/// True when latency from due rises across the phase: the lower quartile
/// of the last quarter of operations (by due time) exceeds that of the
/// first quarter by more than `growth_ms`. A server that keeps up holds
/// latency flat; one that does not accumulates a queue and every later
/// operation waits longer.
bool backlog_growing(const std::vector<OpTimes>& ops, double growth_ms);

/// True when the generator itself fell behind its schedule: its own lag
/// (see generator_lag) grows across the phase by more than `max_lag_ms`,
/// as backlog_growing judges latency. A host stall makes the generator
/// late for a moment; a generator that cannot produce the offered rate
/// falls further behind with every operation. Such a phase measures the
/// generator, not the server, and is invalid.
bool generator_fell_behind(const std::vector<OpTimes>& ops, double max_lag_ms);

}  // namespace perfbench
