#include <algorithm>
#include <cstdio>

#include "pnc/core/adapt_pnc.hpp"
#include "pnc/core/serialize.hpp"
#include "pnc/train/trainer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

void append(data::Split& to, const data::Split& from) {
  const std::size_t cols = from.inputs.cols();
  ad::Tensor merged(to.size() + from.size(), cols);
  std::copy(to.inputs.data().begin(), to.inputs.data().end(),
            merged.data().begin());
  std::copy(from.inputs.data().begin(), from.inputs.data().end(),
            merged.data().begin() + static_cast<long>(to.size() * cols));
  to.inputs = std::move(merged);
  to.labels.insert(to.labels.end(), from.labels.begin(), from.labels.end());
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  // SplitMix64 finaliser over seed ^ tag: well-mixed, fixed forever.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^ tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

data::Dataset make_data(const std::string& name, std::uint64_t seed,
                        std::size_t draws) {
  data::Dataset d = data::make_dataset(name, derive(seed, 0));
  for (std::size_t i = 1; i < draws; ++i) {
    append(d.test, data::make_dataset(name, derive(seed, i)).test);
  }
  return d;
}

Checkpoint make_checkpoint(const std::string& dataset, int epochs,
                           const std::string& work_dir) {
  const data::Dataset data = make_data(dataset, kFixtureSeed);
  Checkpoint ckpt;
  ckpt.classes = static_cast<std::size_t>(data.num_classes);
  ckpt.dt = data.sample_period;
  auto model = core::make_adapt_pnc(ckpt.classes, ckpt.dt,
                                    derive(kFixtureSeed, 0x636b7074ULL),
                                    kHiddenCap);
  train::TrainConfig config;
  config.max_epochs = epochs;
  config.patience = epochs + 1;
  config.min_lr = 0.0;
  config.train_variation = variation::VariationSpec::printing(0.10, 3);
  config.seed = derive(kFixtureSeed, 0x73727665ULL);
  (void)train::train(*model, data, config);
  ckpt.path = work_dir + "/" + dataset + ".ckpt";
  core::save_parameters(*model, ckpt.path);
  ckpt.engine = std::make_unique<infer::Engine>(
      infer::load_engine(ckpt.path, "adapt", ckpt.classes, ckpt.dt, kHiddenCap));
  return ckpt;
}

std::vector<std::string> serve_argv(const Options& opt,
                                    const Checkpoint& ckpt) {
  return {opt.serve_bin,
          "--checkpoint", ckpt.path,
          "--model", "adapt",
          "--classes", std::to_string(ckpt.classes),
          "--dt", exact(ckpt.dt),
          "--hidden-cap", std::to_string(kHiddenCap),
          "--logits"};
}

std::unique_ptr<ServeProcess> spawn_ready(
    const std::vector<std::string>& argv) {
  auto server = std::make_unique<ServeProcess>(argv);
  while (true) {
    const std::string reply =
        server->request("{\"op\":\"health\"}", "\"op\":\"health\"");
    if (reply.find("\"ready\":true") != std::string::npos) return server;
  }
}

double probe_startup_cpu(const std::vector<std::string>& argv, Result& res) {
  const std::unique_ptr<ServeProcess> probe = spawn_ready(argv);
  res.gate(probe->finish() == 0, "pnc_serve exited non-zero");
  return probe->cpu_seconds();
}

void add_request_spans(Tracer& tracer, const PhaseResult& phase, double start,
                       const std::string& root) {
  for (std::size_t k = 0; k < phase.ops.size(); ++k) {
    const OpTimes& op = phase.ops[k];
    if (!op.ok) continue;
    const double total = json_number(phase.responses[k], "total_us") * 1e-6;
    const double queue = json_number(phase.responses[k], "queue_us") * 1e-6;
    const double submit = start + op.received - total;
    const std::uint64_t trace = k + 1;
    const std::uint64_t r = tracer.add(root, start + op.due,
                                       start + op.received, 0, trace);
    tracer.add("bench.generator_wait", start + op.due, start + op.sent, r,
               trace);
    tracer.add("pnc_serve.front", start + op.sent, submit, r, trace);
    tracer.add("serve.queue", submit, submit + queue, r, trace);
    tracer.add("serve.service", submit + queue, start + op.received, r, trace);
  }
}

void report(const std::map<std::string, std::uint64_t>& failures) {
  for (const auto& [status, n] : failures) {
    std::fprintf(stderr, "  %llu operations answered %s\n",
                 static_cast<unsigned long long>(n), status.c_str());
  }
}

std::string series_json(const double* values, std::size_t n) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += exact(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace perfbench
