// pnc_perfbench: run one workload and print its metrics.
//
//   pnc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serve-bin PATH --work-dir DIR
//
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// With --trace 0 it holds the end-to-end metrics, with --trace 1 the
// per-layer ones (a layer the workload does not drive reads 0). The exit
// code is 1 when a correctness gate failed, 2 on a usage or run error.
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct Declared {
  const char* name;
  const char* unit;
};

const std::vector<Declared> kEndToEnd = {
    {"setup_s", "s"},        {"ok_ratio", "ratio"},
    {"p50_ms", "ms"},        {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"quality", "ratio"},
};

const std::vector<Declared> kPerLayer = {
    {"train.mc_round_ms", "ms"},
    {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},
    {"train.optimizer_step_us", "us"},
    {"train.eval_loss_ms", "ms"},
    {"train.eval_accuracy_ms", "ms"},
    {"augment.split_ms", "ms"},
    {"util.pool_speedup_mc", "x"},
    {"autodiff.tape_nodes_per_sample", "count"},
    {"bench.epoch_self_pct", "pct"},
    {"infer.compile_ms", "ms"},
    {"infer.stamp_us", "us"},
    {"infer.forward_us_per_row.split", "us"},
    {"infer.forward_us_per_row.b1", "us"},
    {"infer.forward_us_per_row.b8", "us"},
    {"infer.forward_us_per_row.b16", "us"},
    {"infer.step_us_per_sample", "us"},
    {"hardware.yield_s", "s"},
    {"calib.device_capture_ms", "ms"},
    {"calib.gradient_ms", "ms"},
    {"calib.loss_ms", "ms"},
    {"calib.iterations_run", "count"},
    {"bench.req_p50_ms", "ms"},
    {"bench.req_p99_ms", "ms"},
    {"pnc_serve.front_us.p50", "us"},
    {"pnc_serve.front_us.p99", "us"},
    {"serve.json_parse_us", "us"},
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p99", "us"},
    {"serve.service_us.p50", "us"},
    {"serve.batch_rows_mean", "rows"},
    {"serve.inproc_p50_us", "us"},
    {"stream.feed_us_per_chunk", "us"},
    {"bench.win_p50_ms", "ms"},
    {"bench.win_p99_ms", "ms"},
    {"serve.session_queue_us.p50", "us"},
    {"serve.session_queue_us.p99", "us"},
    {"pnc_serve.session_front_us.p50", "us"},
    {"bench.bg_req_p99_ms", "ms"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.send_rps", "1/s"},
    {"bench.trace_overhead_pct", "pct"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "pnc_perfbench: " << message << "\n"
            << "usage: pnc_perfbench --workload "
               "train_va_at|device_fleet|serve_open_loop|stream_mixed "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH "
               "--work-dir DIR\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string to_json(const Result& r, const std::vector<Declared>& order) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const Declared& d : order) {
    const Metric& m = r.metrics.at(d.name);
    if (!first) out += ',';
    first = false;
    out += '"';
    out += d.name;
    out += "\":{\"value\":";
    out += number(m.value);
    out += ",\"unit\":\"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--serve-bin") opt.serve_bin = value;
      else if (flag == "--work-dir") opt.work_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be > 0");

  // A pnc_serve that dies mid-phase must fail the run with an error, not
  // kill it with SIGPIPE on the next write.
  std::signal(SIGPIPE, SIG_IGN);

  // The batch workloads run the library's process-wide pool at
  // kBatchThreads; it reads PNC_THREADS when it is first used.
  if (opt.workload == "train_va_at" || opt.workload == "device_fleet") {
    setenv("PNC_THREADS", std::to_string(perfbench::kBatchThreads).c_str(), 1);
  }

  perfbench::Tracer tracer;
  Result result;
  try {
    if (opt.workload == "train_va_at") {
      result = perfbench::run_train_va_at(opt, tracer);
    } else if (opt.workload == "device_fleet") {
      result = perfbench::run_device_fleet(opt, tracer);
    } else if (opt.workload == "serve_open_loop") {
      result = perfbench::run_serve_open_loop(opt, tracer);
    } else if (opt.workload == "stream_mixed") {
      result = perfbench::run_stream_mixed(opt, tracer);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
    if (opt.trace) {
      tracer.dump(opt.work_dir + "/spans-" + opt.workload + "-" +
                  std::to_string(opt.seed) + ".ndjson");
    }
  } catch (const std::exception& error) {
    std::cerr << "pnc_perfbench: " << opt.workload << ": " << error.what()
              << "\n";
    return 2;
  }

  const std::vector<Declared>& declared = opt.trace ? kPerLayer : kEndToEnd;
  for (const Declared& d : declared) {
    if (result.metrics.count(d.name) == 0) {
      if (!opt.trace) {
        std::cerr << "pnc_perfbench: " << opt.workload << " did not measure "
                  << d.name << "\n";
        return 2;
      }
      result.set(d.name, 0.0, d.unit);  // a layer this workload bypasses
    }
  }
  for (auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.gate(false, name + " is not a finite number");
      m.value = -1.0;
    }
  }
  for (const auto& [name, m] : result.metrics) {
    std::cerr << "  " << name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& e : result.errors) {
    std::cerr << "pnc_perfbench: gate failed: " << e << "\n";
  }
  std::cout << to_json(result, declared) << std::endl;
  return result.correct ? 0 : 1;
}
