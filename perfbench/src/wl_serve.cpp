// serve_open_loop: stateless `infer` lines, built from CBF's length-64
// test series, sent to a forked pnc_serve over pipes. This path is NDJSON
// parse/serialize, admission, the queue and small-batch forward; it
// bypasses Engine::step, stamping (the plan is cached after the first
// batch) and autodiff.
//
// The untraced run times pnc_serve's own CPU time (ServeProcess::
// cpu_seconds), not wall-clock latency: on a shared host every request
// crosses four thread wake-ups in two processes, and a vCPU the host hands
// to another tenant for a few milliseconds moves wall-clock latency far
// more than any change to the program. The work is cut into sub-phases,
// each on a fresh pnc_serve whose life-time CPU is read when it exits:
// closed-loop sub-phases with one request outstanding (every batch holds
// one row) give the CPU cost of a request, and sub-phases with
// kFloodWindow outstanding (full batches) give requests served per CPU
// second. The traced run measures the open-loop latency, timed from each
// request's due time at a fixed Poisson rate, and the stage times.
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>

#include "pnc/serve/json.hpp"
#include "pnc/serve/server.hpp"
#include "pnc/util/digest.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

// The traced run's open-loop rate, fixed so every commit is measured at
// the same load. It is derived from pnc_serve's saturation at the commit
// that added this benchmark: on a quiet 4-vCPU host one shard served
// 11,900-12,250 requests/s (6,000-9,000 during stretches of heavy load
// from other tenants of the host). The reference rate is 1/6 of the quiet
// saturation, below even the loaded one, so host stalls do not queue up
// into the latency it reports.
constexpr double kSaturation = 12000.0;
constexpr double kRefRps = kSaturation / 6;
constexpr double kMaxLagMs = 2.0;
constexpr std::size_t kEvalDraws = 8;
// Untraced sub-phases: requests per one-outstanding sub-phase, and per
// full-batch sub-phase with kFloodWindow outstanding (four max_batch
// batches of the default server).
constexpr std::size_t kSingleRequests = 400;
constexpr std::size_t kFloodRequests = 4000;
constexpr std::size_t kFloodWindow = 64;

/// Request lines over the test split, one series per request in a seeded
/// round-robin so every series is served over a run.
class Traffic {
 public:
  Traffic(const data::Split& split, std::uint64_t seed) : seed_(seed) {
    const std::size_t len = split.length();
    for (std::size_t i = 0; i < split.size(); ++i) {
      series_.push_back(series_json(split.inputs.data().data() + i * len, len));
    }
    order_.resize(split.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::mt19937_64 gen(derive(seed, 0x6f72646572ULL));
    std::shuffle(order_.begin(), order_.end(), gen);
  }

  /// One open-loop phase at `rate` for `seconds`; records which series
  /// each operation carries in `series_of`.
  std::vector<Outgoing> phase(double rate, double seconds,
                              std::vector<std::size_t>& series_of) {
    return lines(poisson_schedule(rate, seconds, derive(seed_, next_id_)),
                 series_of);
  }

  /// `count` requests for a closed-loop phase (no schedule).
  std::vector<Outgoing> closed(std::size_t count,
                               std::vector<std::size_t>& series_of) {
    return lines(std::vector<double>(count, 0.0), series_of);
  }

 private:
  /// The series continue where the previous phase stopped, so every
  /// series is served over a run.
  std::vector<Outgoing> lines(const std::vector<double>& due,
                              std::vector<std::size_t>& series_of) {
    std::vector<Outgoing> lines(due.size());
    series_of.resize(due.size());
    for (std::size_t k = 0; k < due.size(); ++k) {
      const std::size_t s = order_[next_series_++ % order_.size()];
      series_of[k] = s;
      lines[k].due = due[k];
      lines[k].id = next_id_++;
      lines[k].line = "{\"op\":\"infer\",\"id\":" + std::to_string(lines[k].id) +
                      ",\"series\":" + series_[s] + "}\n";
    }
    return lines;
  }

  std::uint64_t seed_;
  std::uint64_t next_id_ = 1;
  std::size_t next_series_ = 0;
  std::vector<std::string> series_;
  std::vector<std::size_t> order_;
};

/// Per-operation fields of the ok responses of one phase.
struct Served {
  std::vector<double> queue_us, total_us, rows;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< by status
};

/// Check every response of a phase against the in-process reference
/// logits (bitwise) and the predictions earlier phases got for the same
/// series (`predicted`, SIZE_MAX = unseen), and collect its stage times.
Served check(const PhaseResult& r, const std::vector<std::size_t>& series_of,
             const ad::Tensor& reference, std::vector<std::size_t>& predicted,
             Result& res) {
  Served out;
  const std::size_t classes = reference.cols();
  std::vector<double> logits;
  for (std::size_t k = 0; k < r.ops.size(); ++k) {
    if (!r.ops[k].ok) {
      ++out.failed;
      ++out.failures[r.responses[k].empty() ? "no response"
                                             : status_of(r.responses[k])];
      continue;
    }
    const std::string& line = r.responses[k];
    const std::size_t s = series_of[k];
    const double* want = reference.data().data() + s * classes;
    const bool same = json_array(line, "logits", 0, logits) !=
                          std::string::npos &&
                      logits.size() == classes &&
                      std::equal(logits.begin(), logits.end(), want);
    res.gate(same, "serve_open_loop: served logits differ from Engine::forward");
    const std::size_t got =
        static_cast<std::size_t>(json_number(line, "predicted"));
    if (predicted[s] != SIZE_MAX) {
      res.gate(predicted[s] == got,
               "serve_open_loop: one series served two predictions");
    }
    predicted[s] = got;
    out.queue_us.push_back(json_number(line, "queue_us"));
    out.total_us.push_back(json_number(line, "total_us"));
    out.rows.push_back(json_number(line, "batch_rows"));
  }
  return out;
}

/// In-process Server at the reference schedule: submit -> callback,
/// timed from the due time, with no process boundary or NDJSON.
double inproc_p50_us(const Checkpoint& ckpt, const data::Split& split,
                     double seconds, std::uint64_t seed) {
  serve::Server server;
  serve::ModelConfig model;
  model.engine = std::make_shared<infer::Engine>(*ckpt.engine);
  model.checkpoint_digest = util::fnv1a64_file(ckpt.path);
  server.load_model("default", std::move(model));
  server.start();
  const std::vector<double> due = poisson_schedule(kRefRps, seconds, seed);
  std::vector<double> done(due.size(), 0.0);
  const std::size_t len = split.length();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < due.size(); ++k) {
    wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[k])));
    serve::Request req;
    req.id = k;
    const double* row = split.inputs.data().data() + (k % split.size()) * len;
    req.series.assign(row, row + len);
    server.submit(std::move(req), [&done, t0, k](serve::Response resp) {
      if (resp.status == serve::Status::kOk) {
        done[k] = seconds_between(t0, Clock::now());
      }
    });
  }
  server.stop();
  std::vector<double> lat;
  for (std::size_t k = 0; k < due.size(); ++k) {
    if (done[k] > 0.0) lat.push_back((done[k] - due[k]) * 1e6);
  }
  return median(lat);
}

}  // namespace

Result run_serve_open_loop(const Options& opt, Tracer& tracer) {
  Result res;
  const Clock::time_point t0 = Clock::now();
  const auto now = [t0] { return seconds_between(t0, Clock::now()); };
  const Checkpoint ckpt = make_checkpoint(kDataset, 8, opt.work_dir);
  const data::Split split = make_data(kDataset, opt.seed, kEvalDraws).test;

  // The circuit pnc_serve stamps for every stateless batch: the clean
  // variation spec from Rng(0) at batch 1, broadcast to the batch.
  infer::Plan plan = ckpt.engine->make_plan();
  {
    util::Rng rng(0);
    ckpt.engine->stamp(plan, variation::VariationSpec::none(), rng, 1);
  }
  ckpt.engine->broadcast_batch(plan, split.size());
  ad::Tensor reference;
  ckpt.engine->forward(plan, split.inputs, reference);

  const std::vector<std::string> argv = serve_argv(opt, ckpt);
  Traffic traffic(split, opt.seed);
  std::vector<std::size_t> series_of;
  std::vector<std::size_t> predicted(split.size(), SIZE_MAX);

  if (!opt.trace) {
    // Set-up: the CPU of a pnc_serve that starts, answers health and
    // exits; timed on probes through the run. Its median is taken off
    // every sub-phase's CPU.
    std::vector<double> startup_s;
    auto probe = [&] { startup_s.push_back(probe_startup_cpu(argv, res)); };
    for (int i = 0; i < 5; ++i) probe();
    std::map<std::string, std::uint64_t> failures;
    // One sub-phase on a fresh server; returns its CPU per request.
    auto sub_phase = [&](std::size_t count, std::size_t window) {
      const std::unique_ptr<ServeProcess> server = spawn_ready(argv);
      const PhaseResult r =
          run_closed(*server, traffic.closed(count, series_of), window);
      const Served served = check(r, series_of, reference, predicted, res);
      res.gate(server->finish() == 0, "serve_open_loop: pnc_serve exited non-zero");
      res.attempted += r.ops.size();
      res.failed += served.failed;
      for (const auto& [status, n] : served.failures) failures[status] += n;
      return (server->cpu_seconds() - median(startup_s)) /
             static_cast<double>(count);
    };
    std::vector<double> single_ms, flood_rps;
    while (single_ms.size() < kMinRepeats || now() < opt.seconds) {
      single_ms.push_back(sub_phase(kSingleRequests, 1) * 1e3);
      if (single_ms.size() % 4 == 0) {
        probe();
        flood_rps.push_back(1.0 / sub_phase(kFloodRequests, kFloodWindow));
      }
    }
    std::size_t correct = 0;
    for (std::size_t s = 0; s < split.size(); ++s) {
      res.gate(predicted[s] != SIZE_MAX,
               "serve_open_loop: a test series was never served");
      if (predicted[s] == static_cast<std::size_t>(split.labels[s])) ++correct;
    }
    std::fprintf(stderr,
                 "  %zu single-request sub-phases of %zu, %zu full-batch "
                 "sub-phases of %zu (window %zu), %zu start-up probes, tail "
                 "p%.0f\n",
                 single_ms.size(), kSingleRequests, flood_rps.size(),
                 kFloodRequests, kFloodWindow, startup_s.size(), kBatchTail);
    report(failures);
    res.set("setup_s", median(startup_s), "s");
    res.set("ok_ratio", res.ok_ratio(), "ratio");
    res.set("p50_ms", median(single_ms), "ms");
    res.set("tail_ms", percentile(single_ms, kBatchTail), "ms");
    res.set("throughput_per_s", median(flood_rps), "1/s");
    res.set("quality",
            static_cast<double>(correct) / static_cast<double>(split.size()),
            "ratio");
    return res;
  }

  // Traced run: an open-loop reference phase at kRefRps with a span tree
  // per request, built afterwards from the client's clock and the stage
  // times pnc_serve reports (so the phase itself runs exactly the untraced
  // code and there is no tracing cost to report), then in-process probes
  // of each layer.
  const std::unique_ptr<ServeProcess> server = spawn_ready(argv);
  const double t_phase = tracer.now();
  const PhaseResult ref =
      run_phase(*server, traffic.phase(kRefRps, 0.5 * opt.seconds, series_of));
  const Served served = check(ref, series_of, reference, predicted, res);
  res.attempted = ref.ops.size();
  res.failed = served.failed;
  res.gate(server->finish() == 0, "serve_open_loop: pnc_serve exited non-zero");
  res.gate(!generator_fell_behind(ref.ops, kMaxLagMs),
           "serve_open_loop: the generator fell behind at the reference "
           "rate (run invalid)");

  add_request_spans(tracer, ref, t_phase, "bench.request");
  const std::vector<double> front_s =
      totals_by_name(tracer.spans()).at("pnc_serve.front").durations;
  std::vector<double> service_us;
  for (std::size_t i = 0; i < served.total_us.size(); ++i) {
    service_us.push_back(served.total_us[i] - served.queue_us[i]);
  }
  res.set("bench.req_p50_ms", latency_ms(ref.ops, 50.0), "ms");
  res.set("bench.req_p99_ms", latency_ms(ref.ops, 99.0), "ms");
  res.set("pnc_serve.front_us.p50", percentile(front_s, 50) * 1e6, "us");
  res.set("pnc_serve.front_us.p99", percentile(front_s, 99) * 1e6, "us");
  res.set("serve.queue_us.p50", percentile(served.queue_us, 50), "us");
  res.set("serve.queue_us.p99", percentile(served.queue_us, 99), "us");
  res.set("serve.service_us.p50", percentile(service_us, 50), "us");
  res.set("serve.batch_rows_mean", mean(served.rows), "rows");
  res.set("bench.gen_lag_p99_ms", percentile(generator_lag(ref.ops), 99) * 1e3, "ms");
  res.set("bench.send_rps", send_rate(ref.ops), "1/s");

  // serve::JsonValue::parse over the same request lines.
  const std::vector<Outgoing> lines = traffic.phase(kRefRps, 0.5, series_of);
  const double parse_s = median_seconds(5, [&] {
    for (const Outgoing& o : lines) (void)serve::JsonValue::parse(o.line);
  });
  res.set("serve.json_parse_us", parse_s * 1e6 / static_cast<double>(lines.size()), "us");

  // Engine::forward at the batch sizes the server forms.
  for (std::size_t b : {1, 8, 16}) {
    infer::Plan p = ckpt.engine->make_plan();
    util::Rng rng(0);
    ckpt.engine->stamp(p, variation::VariationSpec::none(), rng, 1);
    ckpt.engine->broadcast_batch(p, b);
    ad::Tensor in(b, split.length());
    std::copy(split.inputs.data().begin(),
              split.inputs.data().begin() + static_cast<long>(b * split.length()),
              in.data().begin());
    ad::Tensor out;
    const int reps = 2000 / static_cast<int>(b);
    const double s = median_seconds(5, [&] {
      for (int i = 0; i < reps; ++i) ckpt.engine->forward(p, in, out);
    });
    res.set("infer.forward_us_per_row.b" + std::to_string(b),
            s * 1e6 / static_cast<double>(reps * b), "us");
  }
  res.set("serve.inproc_p50_us",
          inproc_p50_us(ckpt, split, 0.15 * opt.seconds, opt.seed), "us");
  res.set("infer.compile_ms", median_seconds(9, [&] {
            (void)infer::load_engine(ckpt.path, "adapt", ckpt.classes, ckpt.dt,
                                     kHiddenCap);
          }) * 1e3,
          "ms");
  return res;
}

}  // namespace perfbench
