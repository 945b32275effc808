// train_va_at: the paper's variation-aware (±10 %, MC = 3) + augmented
// training of ADAPT-pNC on CBF for a fixed number of epochs, then the
// accuracy under ±10 % variation. Patience and min_lr are set so neither
// stops a run early: every repeat does the same work.
//
// Both runs train through train::train, the real entry point. The traced
// run puts one span around it and times each public call train::train
// makes per epoch with standalone probes on one epoch's batch.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "pnc/augment/augment.hpp"
#include "pnc/autodiff/graph.hpp"
#include "pnc/core/adapt_pnc.hpp"
#include "pnc/infer/engine.hpp"
#include "pnc/train/optimizer.hpp"
#include "pnc/train/snapshot.hpp"
#include "pnc/train/trainer.hpp"
#include "pnc/util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr int kEpochs = 4;
constexpr std::size_t kJobs = 32;    // job variants averaged into quality
constexpr int kMc = 3;
constexpr int kEvalRepeats = 8;
constexpr std::size_t kEvalDraws = 8;

using Model = core::PrintedTemporalNetwork;

train::TrainConfig train_config(std::uint64_t seed) {
  train::TrainConfig config;
  config.max_epochs = kEpochs;
  config.patience = kEpochs + 1;
  config.min_lr = 0.0;
  config.train_variation = variation::VariationSpec::printing(0.10, kMc);
  config.augmentation = augment::AugmentConfig{};
  config.seed = derive(seed, 0x747261696eULL);
  config.num_threads = kBatchThreads;
  return config;
}

std::unique_ptr<Model> fresh_model(const data::Dataset& data,
                                   std::uint64_t seed) {
  return core::make_adapt_pnc(static_cast<std::size_t>(data.num_classes),
                              data.sample_period, derive(seed, 0x6d6f64ULL),
                              kHiddenCap);
}

double va_accuracy(Model& model, const data::Dataset& data,
                   std::uint64_t seed) {
  util::Rng rng(derive(seed, 0x6576616cULL));
  return train::evaluate_accuracy(model, data.test,
                                  variation::VariationSpec::printing(0.10),
                                  rng, kEvalRepeats);
}

double median_span_ms(const Tracer& tracer, const std::string& name) {
  const auto totals = totals_by_name(tracer.spans());
  const auto it = totals.find(name);
  if (it == totals.end()) return 0.0;
  return median(it->second.durations) * 1e3;
}

}  // namespace

Result run_train_va_at(const Options& opt, Tracer& tracer) {
  Result res;
  const Clock::time_point t0 = Clock::now();
  const auto now = [t0] { return seconds_between(t0, Clock::now()); };

  // The job comes in kJobs variants, each with its own dataset draw, model
  // init and MC/augmentation streams; repeat r runs variant r % kJobs, so
  // va_accuracy is a mean over kJobs trained models and moves little from
  // seed to seed. Set-up (that variant's dataset and model build) is timed
  // before every repeat. Set-up and training run on one thread and are
  // timed in process CPU time (see kBatchThreads).
  std::vector<double> setup_s, epoch_ms;
  std::vector<double> accuracy(kJobs, -1.0);
  std::vector<int> evaluated(kJobs, 0);
  data::Dataset data;
  std::size_t repeats = 0;
  auto job = [&](std::size_t v) {
    const std::uint64_t seed = derive(opt.seed, 0x6a6f62ULL + v);
    std::unique_ptr<Model> model;
    setup_s.push_back(cpu_seconds_of([&] {
      data = make_data(kDataset, seed, kEvalDraws);
      model = fresh_model(data, seed);
    }));
    train::TrainResult tr;
    const double train_s = cpu_seconds_of(
        [&] { tr = train::train(*model, data, train_config(seed)); });
    res.attempted += static_cast<std::uint64_t>(kEpochs);
    const int good = tr.epochs_run - tr.watchdog_recoveries;
    res.failed += static_cast<std::uint64_t>(kEpochs - std::max(good, 0));
    res.gate(tr.epochs_run == kEpochs && tr.watchdog_recoveries == 0,
             "train_va_at: the run did not complete its fixed epochs");
    // The accuracy of each variant is taken once for quality; variant 0's
    // once more, to check that a retrained job repeats it exactly.
    if (evaluated[v] < (v == 0 ? 2 : 1)) {
      const double acc = va_accuracy(*model, data, seed);
      if (accuracy[v] >= 0.0) {
        res.gate(acc == accuracy[v],
                 "train_va_at: va_accuracy differs between repeats of a job");
      }
      accuracy[v] = acc;
      ++evaluated[v];
    }
    epoch_ms.push_back(train_s / std::max(tr.epochs_run, 1) * 1e3);
    ++repeats;
  };

  if (!opt.trace) {
    while (repeats < kMinRepeats || now() < opt.seconds) job(repeats % kJobs);
    const double p50 = median(epoch_ms);
    const double rows = static_cast<double>(2 * data.train.size() * kMc);
    std::fprintf(stderr, "  %zu training repeats of %d epochs, tail p%.0f\n",
                 repeats, kEpochs, kBatchTail);
    res.set("setup_s", median(setup_s), "s");
    res.set("ok_ratio", res.ok_ratio(), "ratio");
    res.set("p50_ms", p50, "ms");
    res.set("tail_ms", percentile(epoch_ms, kBatchTail), "ms");
    res.set("throughput_per_s", rows / (p50 * 1e-3), "1/s");
    res.set("quality", mean(accuracy), "ratio");
    return res;
  }

  // Traced run: variant 0 with one span around train::train, then five
  // rounds of [the same job untraced, then one probe per public call
  // train::train makes in an epoch, on one epoch's batch]. Each round's
  // probes and its reference epoch run in the same stretch of host load.
  job(0);
  const std::uint64_t seed = derive(opt.seed, 0x6a6f62ULL);
  const train::TrainConfig config = train_config(seed);
  double traced_epoch_ms = 0.0;
  {
    auto traced = fresh_model(data, seed);
    // CPU time, as the untraced epochs are timed.
    traced_epoch_ms = cpu_seconds_of([&] {
                        const std::uint64_t root = tracer.begin("train.train", 0, 1);
                        (void)train::train(*traced, data, config);
                        tracer.end(root);
                      }) * 1e3 / kEpochs;
    res.attempted += static_cast<std::uint64_t>(kEpochs);
  }

  auto model = fresh_model(data, seed);
  const augment::Augmenter augmenter(*config.augmentation);
  const variation::VariationSpec clean = variation::VariationSpec::none();
  const std::vector<ad::Parameter*> params = model->parameters();
  train::AdamW::Config adam;
  adam.lr = config.learning_rate;
  adam.weight_decay = config.weight_decay;
  train::AdamW optimizer(params, adam);
  train::PlateauScheduler scheduler(optimizer, config.patience,
                                    config.lr_factor, config.min_lr);
  std::vector<ad::GradSink> sinks;
  for (int s = 0; s < kMc; ++s) sinks.emplace_back(params);
  std::vector<std::uint64_t> seeds(kMc);
  util::WorkspacePool<ad::Graph> graphs;
  util::Rng rng(derive(opt.seed, 0x70726f6265ULL));
  const train::TrainResult history;
  std::vector<double> self_pct;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    job(0);
    const std::uint64_t trace = 100 + round;
    const double probe_cpu0 = process_cpu_seconds();
    const std::uint64_t e = tracer.begin("bench.epoch_probe", 0, trace);
    const data::Split batch = tracer.time("augment.augment_split", e, trace, [&] {
      return augmenter.augment_split(data.train, rng, true);
    });
    for (auto& s : seeds) s = rng();
    optimizer.zero_grad();
    tracer.time("train.monte_carlo_round", e, trace, [&] {
      return train::monte_carlo_round(*model, batch, config.train_variation,
                                      seeds, util::global_pool(), sinks,
                                      nullptr, &graphs);
    });
    tracer.time("train.adamw_step", e, trace, [&] { optimizer.step(); });
    tracer.time("core.clamp_parameters", e, trace,
                [&] { model->clamp_parameters(); });
    tracer.time("train.evaluate_loss", e, trace, [&] {
      return train::evaluate_loss(*model, data.validation, clean, rng);
    });
    tracer.time("train.evaluate_accuracy", e, trace, [&] {
      return train::evaluate_accuracy(*model, data.validation, clean, rng);
    });
    tracer.time("train.capture_snapshot", e, trace, [&] {
      return train::capture_snapshot(*model, optimizer, scheduler, rng,
                                     history, 0, false);
    });
    tracer.end(e);
    // The part of the untraced epoch that the probed calls do not cover,
    // both in CPU time.
    const double probe_ms = (process_cpu_seconds() - probe_cpu0) * 1e3;
    self_pct.push_back(100.0 * (1.0 - probe_ms / epoch_ms.back()));
  }
  res.set("train.mc_round_ms", median_span_ms(tracer, "train.monte_carlo_round"), "ms");
  res.set("train.optimizer_step_us",
          median_span_ms(tracer, "train.adamw_step") * 1e3, "us");
  res.set("train.eval_loss_ms", median_span_ms(tracer, "train.evaluate_loss"), "ms");
  res.set("train.eval_accuracy_ms",
          median_span_ms(tracer, "train.evaluate_accuracy"), "ms");
  res.set("augment.split_ms", median_span_ms(tracer, "augment.augment_split"), "ms");
  res.set("bench.epoch_self_pct", median(self_pct), "pct");
  res.set("bench.trace_overhead_pct",
          100.0 * (traced_epoch_ms / median(epoch_ms) - 1.0), "pct");

  // Forward alone and forward + backward of one MC sample on one epoch's
  // batch; the difference is the backward pass.
  util::Rng aug_rng(derive(opt.seed, 0x617567ULL));
  const data::Split batch = augment::Augmenter(*config.augmentation)
                                .augment_split(data.train, aug_rng, true);
  ad::Graph g;
  auto pass = [&](bool backward) {
    util::Rng rng(derive(opt.seed, 0x666f7277ULL));
    return tracer.time(backward ? "train.forward_backward" : "train.forward_loss",
                       0, 0, [&] {
                         return train::forward_loss(g, *model, batch,
                                                    config.train_variation, rng,
                                                    backward);
                       });
  };
  for (int i = 0; i < 5; ++i) {
    pass(false);
    pass(true);
  }
  for (ad::Parameter* p : model->parameters()) p->grad.fill(0.0);
  const double fwd = median_span_ms(tracer, "train.forward_loss");
  const double fwd_bwd = median_span_ms(tracer, "train.forward_backward");
  res.set("train.forward_ms", fwd, "ms");
  res.set("train.backward_ms", fwd_bwd - fwd, "ms");
  {
    util::Rng rng(derive(opt.seed, 0x666f7277ULL));
    (void)train::forward_loss(g, *model, data.train, config.train_variation,
                              rng, true);
    res.set("autodiff.tape_nodes_per_sample",
            static_cast<double>(g.node_count()), "count");
  }

  // The MC fan-out on one thread against a pool as wide as the host.
  seeds = {1, 2, 3};
  auto round_s = [&](util::ThreadPool& pool) {
    return median_seconds(5, [&] {
      (void)train::monte_carlo_round(*model, batch, config.train_variation,
                                     seeds, pool, sinks);
    });
  };
  util::ThreadPool one(1);
  util::ThreadPool wide(std::max(1u, std::thread::hardware_concurrency()));
  const double serial = round_s(one);
  const double pooled = round_s(wide);
  res.set("util.pool_speedup_mc", serial / pooled, "x");
  for (ad::Parameter* p : params) p->grad.fill(0.0);

  res.set("infer.compile_ms",
          median_seconds(9, [&] { (void)infer::Engine::compile(*model); }) * 1e3,
          "ms");
  return res;
}

}  // namespace perfbench
