// device_fleet: screen a fleet of fabricated ±10 % circuits of one
// trained checkpoint (hardware::estimate_yield over the enlarged test
// split: an engine stamp plus a full-split forward per circuit), then
// calibrate devices whose RC products drifted with age (calib::calibrate
// over the validation split). No tape and no server run here: this is
// the path of Engine::stamp, large-batch forward and the Dual<K> gradient.
#include <cstdio>
#include <memory>

#include "pnc/calib/calibrator.hpp"
#include "pnc/core/adapt_pnc.hpp"
#include "pnc/hardware/yield.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/train/trainer.hpp"
#include "pnc/util/thread_pool.hpp"
#include "pnc/variation/drift.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kSetupEpochs = 3;
constexpr int kCircuits = 12;         // fabricated circuits per yield call
constexpr std::size_t kDevices = 8;   // drifted devices, calibrated in turn
constexpr std::size_t kEvalDraws = 16;
// Adam steps per calibration (the library default is 40): sized with
// kCircuits so that at least kMinRepeats screens and calibrations fit a
// run on one thread.
constexpr int kCalibIterations = 12;
constexpr double kDriftAge = 2.0;

struct Fleet {
  data::Dataset data;
  std::unique_ptr<core::PrintedTemporalNetwork> model;
  std::unique_ptr<infer::Engine> engine;
};

/// The seed's test and validation splits, and a checkpoint VA-trained on
/// the fixture draw with its compiled engine.
Fleet build(std::uint64_t seed) {
  Fleet f;
  f.data = make_data(kDataset, seed, kEvalDraws);
  const data::Dataset fixture = make_data(kDataset, kFixtureSeed);
  f.model = core::make_adapt_pnc(static_cast<std::size_t>(f.data.num_classes),
                                 f.data.sample_period,
                                 derive(kFixtureSeed, 0x666c74ULL), kHiddenCap);
  train::TrainConfig config;
  config.max_epochs = kSetupEpochs;
  config.patience = kSetupEpochs + 1;
  config.min_lr = 0.0;
  config.train_variation = variation::VariationSpec::printing(0.10, 3);
  config.seed = derive(kFixtureSeed, 0x73657475ULL);
  config.num_threads = kBatchThreads;
  (void)train::train(*f.model, fixture, config);
  f.engine = std::make_unique<infer::Engine>(infer::Engine::compile(*f.model));
  return f;
}

hardware::YieldConfig yield_config(std::uint64_t seed) {
  hardware::YieldConfig config;
  config.accuracy_threshold = 0.5;
  config.num_circuits = kCircuits;
  config.seed = derive(seed, 0x7969656c64ULL);
  return config;
}

variation::VariationSpec drifted() {
  variation::DriftModel::Config drift;
  drift.trend_per_ref = 0.08;
  drift.spread_per_ref = 0.06;
  return variation::drift_spec(
      std::make_shared<variation::UniformVariation>(0.10), drift, kDriftAge);
}

std::uint64_t device_seed(std::uint64_t seed, std::size_t d) {
  return derive(seed, 0x646576ULL + d);
}

}  // namespace

Result run_device_fleet(const Options& opt, Tracer& tracer) {
  Result res;
  const Clock::time_point t0 = Clock::now();
  const auto now = [t0] { return seconds_between(t0, Clock::now()); };
  Fleet fleet;
  std::vector<double> setups;
  // Set-up, screens and calibrations run on one thread and are timed in
  // process CPU time (see kBatchThreads).
  auto setup = [&] {
    setups.push_back(cpu_seconds_of([&] { fleet = build(opt.seed); }));
  };
  for (int i = 0; i < 3; ++i) setup();
  const data::Split& test = fleet.data.test;
  const data::Split& calib_split = fleet.data.validation;
  const variation::VariationSpec printing =
      variation::VariationSpec::printing(0.10);
  const variation::VariationSpec drift = drifted();
  const hardware::YieldConfig ycfg = yield_config(opt.seed);
  calib::CalibConfig ccfg;
  ccfg.threads = kBatchThreads;
  ccfg.iterations = kCalibIterations;

  double mc_accuracy = -1.0;
  std::vector<int> iterations(kDevices, -1);
  auto screen = [&] {
    const hardware::YieldResult y =
        hardware::estimate_yield(*fleet.model, test, printing, ycfg);
    res.attempted += static_cast<std::uint64_t>(kCircuits);
    if (y.accuracies.size() != static_cast<std::size_t>(kCircuits)) {
      res.failed += static_cast<std::uint64_t>(kCircuits);
    }
    if (mc_accuracy >= 0.0) {
      res.gate(y.mean_accuracy == mc_accuracy,
               "device_fleet: mc_accuracy differs between screens of a seed");
    }
    mc_accuracy = y.mean_accuracy;
  };
  auto calibrate = [&](std::size_t d) {
    calib::Device device(*fleet.engine, drift, device_seed(opt.seed, d));
    const calib::CalibResult r = calib::calibrate(device, calib_split, ccfg);
    // calibrate() guarantees final_loss <= initial_loss by construction,
    // so this holds at the seed; it guards that documented guarantee.
    ++res.attempted;
    const bool ok = r.final_loss <= r.initial_loss && r.iterations_run > 0;
    if (!ok) ++res.failed;
    res.gate(ok, "device_fleet: calibration left a device worse");
    if (iterations[d] >= 0) {
      res.gate(r.iterations_run == iterations[d],
               "device_fleet: calibration differs between repeats of a device");
    }
    iterations[d] = r.iterations_run;
    return r;
  };

  if (!opt.trace) {
    std::vector<double> screen_s, calib_ms;
    std::size_t d = 0;
    std::size_t done = 0;
    while (calib_ms.size() < kMinRepeats || now() < opt.seconds) {
      screen_s.push_back(cpu_seconds_of(screen));
      calib_ms.push_back(cpu_seconds_of([&] { calibrate(d); }) * 1e3);
      d = (d + 1) % kDevices;
      if (++done % 8 == 0) setup();  // re-time set-up through the run
    }
    std::fprintf(stderr,
                 "  %zu screens of %d circuits, %zu calibrations (tail p%.0f), "
                 "%zu set-ups\n",
                 screen_s.size(), kCircuits, calib_ms.size(), kBatchTail,
                 setups.size());
    res.set("setup_s", median(setups), "s");
    res.set("ok_ratio", res.ok_ratio(), "ratio");
    res.set("p50_ms", median(calib_ms), "ms");
    res.set("tail_ms", percentile(calib_ms, kBatchTail), "ms");
    res.set("throughput_per_s", kCircuits / median(screen_s), "1/s");
    res.set("quality", mc_accuracy, "ratio");
    return res;
  }

  // Traced run: untraced screens for reference, then spans around each
  // public call of the same path, then single-layer probes.
  const double untraced_yield = median_seconds(3, screen);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    tracer.time("hardware.estimate_yield", 0, i, screen);
  }
  const auto totals = totals_by_name(tracer.spans());
  const double traced_yield = median(totals.at("hardware.estimate_yield").durations);
  res.set("hardware.yield_s", traced_yield, "s");
  res.set("bench.trace_overhead_pct",
          100.0 * (traced_yield / untraced_yield - 1.0), "pct");

  // Per-device calibration, one trace per device.
  double iterations_run = 0.0;
  util::ThreadPool& pool = util::global_pool();
  for (std::size_t d = 0; d < kDevices; ++d) {
    const std::uint64_t trace = 100 + d;
    const std::uint64_t root = tracer.begin("bench.device", 0, trace);
    const double t_capture = tracer.now();
    calib::Device device(*fleet.engine, drift, device_seed(opt.seed, d));
    tracer.add("calib.Device", t_capture, tracer.now(), root, trace);
    const std::uint64_t g = tracer.begin("calib.Device.gradient", root, trace);
    (void)device.gradient(calib_split, pool);
    tracer.end(g);
    const std::uint64_t l = tracer.begin("calib.Device.loss", root, trace);
    (void)device.loss(calib_split, pool);
    tracer.end(l);
    const calib::CalibResult r = tracer.time("calib.calibrate", root, trace, [&] {
      return calib::calibrate(device, calib_split, ccfg);
    });
    tracer.end(root);
    iterations_run += r.iterations_run;
    ++res.attempted;
  }
  const auto all = totals_by_name(tracer.spans());
  res.set("calib.device_capture_ms", median(all.at("calib.Device").durations) * 1e3, "ms");
  res.set("calib.gradient_ms", median(all.at("calib.Device.gradient").durations) * 1e3, "ms");
  res.set("calib.loss_ms", median(all.at("calib.Device.loss").durations) * 1e3, "ms");
  res.set("calib.iterations_run", iterations_run, "count");

  // Engine stamp of one ±10 % circuit at split size, and the full-split
  // forward through it.
  infer::Plan plan = fleet.engine->make_plan();
  ad::Tensor logits;
  util::Rng rng(derive(opt.seed, 0x7374616dULL));
  const double stamp_s = median_seconds(15, [&] {
    fleet.engine->stamp(plan, printing, rng, test.size());
  });
  const double forward_s = median_seconds(15, [&] {
    fleet.engine->forward(plan, test.inputs, logits);
  });
  res.set("infer.stamp_us", stamp_s * 1e6, "us");
  res.set("infer.forward_us_per_row.split",
          forward_s * 1e6 / static_cast<double>(test.size()), "us");
  res.set("infer.compile_ms",
          median_seconds(9, [&] { (void)infer::Engine::compile(*fleet.model); }) * 1e3,
          "ms");
  return res;
}

}  // namespace perfbench
