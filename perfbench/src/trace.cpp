#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

double Tracer::now() const { return seconds_between(epoch_, Clock::now()); }

std::uint64_t Tracer::add(std::string name, double start, double end,
                          std::uint64_t parent, std::uint64_t trace) {
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.start = start;
  s.end = end;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent,
                            std::uint64_t trace) {
  const double t = now();
  return add(std::move(name), t, t, parent, trace);
}

void Tracer::end(std::uint64_t id) { spans_.at(id - 1).end = now(); }

void Tracer::dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  char buf[128];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace), s.start * 1e6,
                  s.end * 1e6);
    out << "{\"name\":\"" << s.name << buf;
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) children[it->second].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.calls;
    t.total += spans[i].duration();
    t.self += self[i];
    t.durations.push_back(spans[i].duration());
  }
  return out;
}

}  // namespace perfbench
