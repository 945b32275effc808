// In-memory span recorder for the traced (--trace 1) runs.
//
// A span is one call into a module's public function, recorded from the
// benchmark's side of the call: name ("module.function"), start, end, the
// span that caused it and the trace (one epoch, one request, one device)
// it belongs to. Spans stay in memory while the workload runs and are
// written out once, at exit, so recording costs two clock reads and a
// vector append. Record from one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t trace = 0;
  double start = 0.0;        ///< seconds from the recorder's epoch
  double end = 0.0;
  double duration() const { return end - start; }
};

class Tracer {
 public:
  Tracer();

  /// Seconds since the recorder was created.
  double now() const;

  /// Record a finished span; returns its id.
  std::uint64_t add(std::string name, double start, double end,
                    std::uint64_t parent, std::uint64_t trace);

  /// Open a span now; close it with end().
  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t trace);
  void end(std::uint64_t id);

  /// Time fn() as a span; returns what fn returns.
  template <typename Fn>
  auto time(std::string name, std::uint64_t parent, std::uint64_t trace,
            Fn&& fn) -> decltype(fn()) {
    const std::uint64_t id = begin(std::move(name), parent, trace);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto result = fn();
      end(id);
      return result;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one NDJSON line to `path`.
  void dump(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval covered by its direct children. Overlapping
/// children are counted once; a child's part outside its parent is not
/// subtracted.
std::vector<double> self_times(const std::vector<Span>& spans);

struct SpanTotals {
  std::size_t calls = 0;
  double total = 0.0;  ///< summed duration, seconds
  double self = 0.0;   ///< summed self time, seconds
  std::vector<double> durations;
};

/// Per-name totals over all spans.
std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
