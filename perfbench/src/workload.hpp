// Shared types of the four workloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "pnc/data/dataset.hpp"
#include "pnc/infer/engine.hpp"
#include "trace.hpp"

namespace perfbench {

// The repository's modules by their own names: data::, train::, serve::...
using namespace pnc;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the pnc_serve binary to fork
  std::string work_dir;   ///< scratch files (checkpoints, span dumps)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  ///< failed correctness gates

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  double ok_ratio() const {
    return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// The dataset every workload draws from: CBF (three classes, not
/// saturated by ADAPT-pNC) for training, the fleet and stateless serving.
inline constexpr const char* kDataset = "CBF";
inline constexpr std::size_t kHiddenCap = 9;

/// CBF built from the workload seed. `draws` > 1 appends the test and
/// validation splits of further independent draws, so accuracies are
/// taken over enough series that they move little from seed to seed.
data::Dataset make_data(const std::string& name, std::uint64_t seed,
                        std::size_t draws = 1);

/// Seed of the trained fixtures (checkpoints) that do not depend on the
/// workload seed: the workload seed drives what is sent to them.
inline constexpr std::uint64_t kFixtureSeed = 1;

/// Derive an independent stream seed from the workload seed and a tag.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// Every workload repeats its unit of work (a training job, a screen and a
/// calibration, a serve sub-phase) for the run length, but at least
/// kMinRepeats times, and reports the median and the fixed tail
/// percentile that count supports (p75: 10 samples beyond it). The
/// percentile does not depend on how many repeats a run fits, so it is the
/// same on a fast and a slow host.
inline constexpr std::size_t kMinRepeats = 40;
inline const double kBatchTail = tail_percentile(kMinRepeats);

/// The batch workloads (train_va_at, device_fleet) run the library on one
/// thread and time their work in process CPU time. On an idle host that
/// equals wall time; on a shared one it leaves out the time the host runs
/// other tenants on this vCPU, which a multi-threaded wall-clock timing
/// charges to whichever pool worker it stalls. Results are bit-identical
/// at any pool width, so this changes what is timed, not what is computed.
/// util.pool_speedup_mc (traced run) measures the pool at full width.
inline constexpr int kBatchThreads = 1;

/// Process CPU seconds spent in fn().
template <typename Fn>
double cpu_seconds_of(Fn&& fn) {
  const double c0 = process_cpu_seconds();
  fn();
  return process_cpu_seconds() - c0;
}

/// Median of `repeats` timings of fn(), seconds.
template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(t));
}

/// A trained checkpoint on disk for the two workloads that serve it, and
/// the engine pnc_serve compiles from it (the in-process reference).
struct Checkpoint {
  std::string path;
  std::size_t classes = 0;
  double dt = 0.0;
  std::unique_ptr<infer::Engine> engine;
};

/// Train ADAPT-pNC on `dataset` for a few VA epochs and save it under
/// `work_dir`. The checkpoint is a fixed artifact (its own fixed seed):
/// the workload seed drives the traffic sent to it, not the model.
Checkpoint make_checkpoint(const std::string& dataset, int epochs,
                           const std::string& work_dir);

/// The pnc_serve command line serving `ckpt` (one shard, logits on).
std::vector<std::string> serve_argv(const Options& opt,
                                    const Checkpoint& ckpt);

/// Spawn pnc_serve and wait for its first ready health answer.
std::unique_ptr<ServeProcess> spawn_ready(const std::vector<std::string>& argv);

/// CPU seconds of a probe pnc_serve that starts, answers its first ready
/// health request and exits: the server's set-up cost.
double probe_startup_cpu(const std::vector<std::string>& argv, Result& res);

/// One span tree per answered operation of an open-loop phase: `root`
/// (due -> response) with children bench.generator_wait (due -> sent),
/// pnc_serve.front (sent -> the server's submit: pipe, parse, admit and,
/// after the work, serialize and write), serve.queue and serve.service,
/// from the client's clock and the response's queue_us and total_us.
/// `start` places the phase on the tracer's clock.
void add_request_spans(Tracer& tracer, const PhaseResult& phase, double start,
                       const std::string& root);

/// Print non-ok answers by status to stderr.
void report(const std::map<std::string, std::uint64_t>& failures);

/// JSON array text of a series, every number exact.
std::string series_json(const double* values, std::size_t n);

Result run_train_va_at(const Options& opt, Tracer& tracer);
Result run_device_fleet(const Options& opt, Tracer& tracer);
Result run_serve_open_loop(const Options& opt, Tracer& tracer);
Result run_stream_mixed(const Options& opt, Tracer& tracer);

}  // namespace perfbench
