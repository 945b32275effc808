#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<std::size_t>(std::clamp(r, 1.0, static_cast<double>(n)));
}

}  // namespace

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = rank_of(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - rank_of(n, p);
}

double tail_percentile(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(n, p) >= kMinBeyond) return p;
  }
  return 50.0;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double latency_from_due(const OpTimes& op) {
  if (!op.ok) return std::numeric_limits<double>::infinity();
  return op.received - op.due;
}

std::vector<double> latencies_ms(const std::vector<OpTimes>& ops) {
  std::vector<double> lat;
  lat.reserve(ops.size());
  for (const OpTimes& op : ops) lat.push_back(latency_from_due(op) * 1e3);
  return lat;
}

std::vector<double> generator_lag(const std::vector<OpTimes>& ops) {
  std::vector<double> lag;
  lag.reserve(ops.size());
  for (const OpTimes& op : ops) {
    lag.push_back(std::max(0.0, op.sent - std::max(op.due, op.writer_free)));
  }
  return lag;
}

double send_rate(const std::vector<OpTimes>& ops) {
  if (ops.size() < 2) return 0.0;
  double first = ops.front().sent;
  double last = ops.front().sent;
  for (const OpTimes& op : ops) {
    first = std::min(first, op.sent);
    last = std::max(last, op.sent);
  }
  if (last <= first) return 0.0;
  return static_cast<double>(ops.size() - 1) / (last - first);
}

double latency_ms(const std::vector<OpTimes>& ops, double p) {
  return percentile(latencies_ms(ops), p);
}

bool backlog_growing(const std::vector<OpTimes>& ops, double growth_ms) {
  if (ops.size() < 8) return false;
  std::vector<const OpTimes*> by_due;
  by_due.reserve(ops.size());
  for (const OpTimes& op : ops) by_due.push_back(&op);
  std::stable_sort(by_due.begin(), by_due.end(),
                   [](const OpTimes* a, const OpTimes* b) {
                     return a->due < b->due;
                   });
  const std::size_t q = by_due.size() / 4;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < q; ++i) {
    first.push_back(latency_from_due(*by_due[i]));
    last.push_back(latency_from_due(*by_due[by_due.size() - q + i]));
  }
  // The lower quartile: a queue that builds up delays every operation,
  // a host stall only some of them.
  return (percentile(last, 25.0) - percentile(first, 25.0)) * 1e3 > growth_ms;
}

bool generator_fell_behind(const std::vector<OpTimes>& ops, double max_lag_ms) {
  if (ops.size() < 8) return false;
  std::vector<OpTimes> lag(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Lag as if it were latency, so the backlog test applies to it.
    lag[i].due = ops[i].due;
    lag[i].received =
        ops[i].due + std::max(0.0, ops[i].sent - std::max(ops[i].due,
                                                          ops[i].writer_free));
    lag[i].ok = true;
  }
  return backlog_growing(lag, max_lag_ms);
}

}  // namespace perfbench
