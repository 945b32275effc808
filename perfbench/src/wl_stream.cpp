// stream_mixed: S always-on sensors, each a carry-mode pnc_serve session
// (window 64, stride 16) fed fixed-size `chunk` lines on its own sample
// clock, with a low-rate stateless background on the same server. The
// signals come from stream::make_continuous_signal (class changes every
// segment) corrupted by a NoiseTimeline. This is the path of
// Engine::step and StreamSession::feed, and of the queue carrying
// session-keyed, seq-contiguous batches beside stateless ones.
//
// As in serve_open_loop, the untraced run times pnc_serve's own CPU time
// over sub-phases on fresh servers (see wl_serve.cpp for why): each
// streams the first kSubChunks chunks of one group of sensors into new
// sessions, with the background interleaved, either with kSessions
// operations outstanding, one chunk in flight per sensor (CPU per window),
// or with kFloodWindow outstanding (windows per CPU second). The traced
// run measures the open-loop window latency on the sample clock.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "pnc/stream/session.hpp"
#include "pnc/stream/signal.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

constexpr const char* kStreamDataset = "PowerCons";
constexpr int kTrainEpochs = 40;
constexpr std::size_t kSessions = 12;
constexpr std::size_t kChunk = 16;  // samples per chunk line = the stride
constexpr std::size_t kWindow = 64;
// The traced run's rates are derived the way serve_open_loop's are, from
// the saturation at the commit that added this benchmark: on a quiet
// 4-vCPU host, 34,700-37,000 windows/s served (one window per chunk line,
// stride = chunk). The reference rate is 1/6 of it. The stateless
// background is 1/60 of serve_open_loop's saturation (12,000 requests/s);
// the untraced sub-phases keep its share of the operations.
constexpr double kSaturation = 36000.0;
constexpr double kRefWindowsPerS = kSaturation / 6;
constexpr double kBackgroundRps = 12000.0 / 60;
constexpr double kMaxLagMs = 2.0;
// Chunks per sensor in an untraced sub-phase (6 change-point segments of
// 2 x 64 samples), and the operations outstanding in a full-batch one.
constexpr std::size_t kSubChunks = 48;
constexpr std::size_t kFloodWindow = 64;
// Untraced sub-phases cycle through kGroups groups of kSessions sensors,
// each sensor with its own signal, so event_f1 is taken over
// kGroups x kSessions signals and moves little from seed to seed.
constexpr std::size_t kGroups = 4;

stream::StreamConfig session_config() {
  stream::StreamConfig config;
  config.window = kWindow;
  config.stride = kChunk;
  config.policy = stream::StatePolicy::kCarry;
  config.confirm_windows = 2;
  return config;
}

/// One sensor: its corrupted signal, and the windows and events an
/// in-process StreamSession emits after each of its chunks.
struct Sensor {
  stream::ContinuousSignal signal;
  std::vector<double> samples;  // corrupted
  std::vector<std::string> chunk_json;
  std::vector<stream::WindowResult> windows;
  std::vector<stream::Event> events;
  std::vector<std::size_t> windows_after;  // per chunk count
  std::vector<std::size_t> events_after;
};

Sensor make_sensor(std::uint64_t seed, std::size_t chunks,
                   const infer::Engine& engine, const infer::Plan& plan,
                   double* feed_s) {
  Sensor s;
  stream::SignalConfig sc;
  sc.dataset = kStreamDataset;
  sc.draws_per_segment = 2;
  sc.series_length = 64;
  sc.segments = (chunks * kChunk) / (sc.draws_per_segment * sc.series_length) + 1;
  sc.seed = seed;
  s.signal = stream::make_continuous_signal(sc);
  stream::StreamNoiseSpec noise;
  noise.wander_amplitude = 0.1;
  noise.dropouts_per_kilosample = 1.0;
  noise.impulse_rate = 0.002;
  const stream::NoiseTimeline timeline(noise, derive(seed, 0x6e6f697365ULL),
                                       s.signal.samples.size());
  s.samples = timeline.corrupted(s.signal.samples);

  stream::StreamSession session(engine, plan, session_config());
  s.windows_after.push_back(0);
  s.events_after.push_back(0);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t c = 0; c < chunks; ++c) {
    const double* at = s.samples.data() + c * kChunk;
    session.feed(at, kChunk);
    for (auto& w : session.take_windows()) s.windows.push_back(std::move(w));
    for (auto& e : session.take_events()) s.events.push_back(e);
    s.windows_after.push_back(s.windows.size());
    s.events_after.push_back(s.events.size());
  }
  *feed_s += seconds_between(t0, Clock::now());
  for (std::size_t c = 0; c < chunks; ++c) {
    s.chunk_json.push_back(series_json(s.samples.data() + c * kChunk, kChunk));
  }
  return s;
}

struct Op {
  bool chunk = false;
  std::size_t sensor = 0;
  std::size_t index = 0;  // chunk index, or background series
};

/// One open-loop phase: every sensor streams `chunks` chunks from the
/// start of its signal into session "<tag>s<i>" at `windows_per_s` in
/// total, plus the stateless background.
struct StreamPhase {
  std::vector<Outgoing> lines;
  std::vector<Op> ops;
  std::size_t chunks = 0;
};

class Traffic {
 public:
  Traffic(std::vector<Sensor>& sensors, const data::Split& background,
          std::uint64_t seed)
      : sensors_(sensors), seed_(seed) {
    const std::size_t len = background.length();
    for (std::size_t i = 0; i < background.size(); ++i) {
      bg_.push_back(series_json(background.inputs.data().data() + i * len, len));
    }
  }

  /// `chunks` chunks per sensor, due on the sample clock of
  /// `windows_per_s` windows per second over all sensors.
  StreamPhase phase(const std::string& tag, double windows_per_s,
                    std::size_t chunks) {
    StreamPhase p;
    const double chunk_rate = windows_per_s / kSessions;  // per sensor
    const double seconds = static_cast<double>(chunks) / chunk_rate;
    p.chunks = chunks;
    std::vector<std::pair<double, Op>> due;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const double offset = static_cast<double>(s) / windows_per_s;
      for (std::size_t c = 0; c < p.chunks; ++c) {
        due.push_back({offset + static_cast<double>(c) / chunk_rate,
                       Op{true, s, c}});
      }
    }
    const std::vector<double> bg =
        poisson_schedule(kBackgroundRps, seconds, derive(seed_, next_id_));
    for (std::size_t k = 0; k < bg.size(); ++k) {
      due.push_back({bg[k], Op{false, 0, (k * 7919) % bg_.size()}});
    }
    std::stable_sort(due.begin(), due.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [t, op] : due) {
      Outgoing o;
      o.due = t;
      o.id = next_id_++;
      const std::string id = std::to_string(o.id);
      o.line = op.chunk ? "{\"op\":\"chunk\",\"session\":\"" + tag + "s" +
                              std::to_string(op.sensor) + "\",\"id\":" + id +
                              ",\"series\":" +
                              sensors_[op.sensor].chunk_json[op.index] + "}\n"
                        : "{\"op\":\"infer\",\"id\":" + id +
                              ",\"series\":" + bg_[op.index] + "}\n";
      p.lines.push_back(std::move(o));
      p.ops.push_back(op);
    }
    return p;
  }

 private:
  std::vector<Sensor>& sensors_;
  std::uint64_t seed_;
  std::uint64_t next_id_ = 1;
  std::vector<std::string> bg_;
};

void open_sessions(ServeProcess& server, const std::string& tag) {
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string name = tag + "s" + std::to_string(s);
    const std::string reply = server.request(
        "{\"op\":\"session\",\"name\":\"" + name + "\",\"window\":" +
            std::to_string(kWindow) + ",\"stride\":" + std::to_string(kChunk) +
            ",\"carry\":true,\"confirm\":2}",
        "\"name\":\"" + name + "\"");
    if (!status_ok(reply)) throw std::runtime_error("session open: " + reply);
  }
}

void close_sessions(ServeProcess& server, const std::string& tag) {
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string name = tag + "s" + std::to_string(s);
    (void)server.request("{\"op\":\"session\",\"name\":\"" + name +
                             "\",\"close\":true}",
                         "\"name\":\"" + name + "\"");
  }
}

/// Results of one phase, checked bitwise against the in-process sessions.
struct Checked {
  std::vector<OpTimes> chunks;   // every chunk, failed ones included
  std::vector<OpTimes> windows;  // one per window, its chunk's times
  std::vector<OpTimes> background;
  std::vector<double> queue_us, front_us;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::uint64_t> failures;  // by status
  std::size_t detected = 0, missed = 0, spurious = 0;
};

Checked check(const PhaseResult& r, const StreamPhase& phase,
              const std::vector<Sensor>& sensors, Result& res) {
  Checked out;
  std::vector<std::vector<stream::WindowResult>> got_windows(kSessions);
  std::vector<std::vector<stream::Event>> got_events(kSessions);
  std::vector<std::size_t> first_failed(kSessions, phase.chunks);
  std::vector<double> values;
  for (std::size_t k = 0; k < r.ops.size(); ++k) {
    const OpTimes& t = r.ops[k];
    const Op& op = phase.ops[k];
    ++out.attempted;
    if (op.chunk) out.chunks.push_back(t);
    if (!t.ok) {
      ++out.failed;
      ++out.failures[r.responses[k].empty() ? "no response"
                                             : status_of(r.responses[k])];
      // The session skips a chunk it did not accept, so its later windows
      // cannot match the reference; compare the part before it.
      if (op.chunk) {
        first_failed[op.sensor] = std::min(first_failed[op.sensor], op.index);
      }
      continue;
    }
    const std::string& line = r.responses[k];
    if (!op.chunk) {
      out.background.push_back(t);
      continue;
    }
    const double total_us = json_number(line, "total_us");
    out.queue_us.push_back(json_number(line, "queue_us"));
    out.front_us.push_back((t.received - t.sent) * 1e6 - total_us);
    // Windows: {"begin":B,"end":E,"predicted":P,"logits":[...]}
    std::size_t at = line.find("\"windows\":[");
    while (at != std::string::npos) {
      const std::size_t w = line.find("{\"begin\":", at);
      const std::size_t ev = line.find("\"events\":[", at);
      if (w == std::string::npos || (ev != std::string::npos && w > ev)) break;
      stream::WindowResult win;
      const std::string rest = line.substr(w);
      win.begin = static_cast<std::size_t>(json_number(rest, "begin"));
      win.end = static_cast<std::size_t>(json_number(rest, "end"));
      win.predicted = static_cast<std::size_t>(json_number(rest, "predicted"));
      const std::size_t after = json_array(line, "logits", w, values);
      win.logits = values;
      got_windows[op.sensor].push_back(std::move(win));
      out.windows.push_back(t);
      at = after;
    }
    const std::size_t ev = line.find("\"events\":[");
    if (ev != std::string::npos) {
      for (std::size_t e = line.find("{\"at\":", ev); e != std::string::npos;
           e = line.find("{\"at\":", e + 1)) {
        const std::string rest = line.substr(e);
        got_events[op.sensor].push_back(
            {static_cast<std::size_t>(json_number(rest, "at")),
             static_cast<std::size_t>(json_number(rest, "class"))});
      }
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Sensor& sensor = sensors[s];
    const std::size_t good = first_failed[s];
    const std::size_t nw = sensor.windows_after[good];
    const std::size_t ne = sensor.events_after[good];
    bool same = good < phase.chunks
                    ? got_windows[s].size() >= nw && got_events[s].size() >= ne
                    : got_windows[s].size() == nw && got_events[s].size() == ne;
    for (std::size_t i = 0; same && i < nw; ++i) {
      const auto& a = got_windows[s][i];
      const auto& b = sensor.windows[i];
      same = a.begin == b.begin && a.end == b.end &&
             a.predicted == b.predicted && a.logits == b.logits;
    }
    for (std::size_t i = 0; same && i < ne; ++i) {
      same = got_events[s][i].at == sensor.events[i].at &&
             got_events[s][i].klass == sensor.events[i].klass;
    }
    res.gate(same, "stream_mixed: served windows/events differ from an "
                   "in-process StreamSession");
    // Score the changes the phase streamed far enough past to confirm,
    // and the events before the first change it did not.
    std::size_t horizon = phase.chunks * kChunk;
    std::vector<stream::ChangePoint> changes;
    for (const auto& c : sensor.signal.changes) {
      if (c.at + 2 * kWindow > horizon) {
        horizon = c.at;
        break;
      }
      changes.push_back(c);
    }
    std::vector<stream::Event> events;
    for (const stream::Event& e : got_events[s]) {
      if (e.at < horizon) events.push_back(e);
    }
    const stream::DetectionStats d =
        stream::match_events(events, changes, horizon);
    out.detected += d.detected;
    out.missed += d.missed;
    out.spurious += d.spurious;
  }
  return out;
}

}  // namespace

Result run_stream_mixed(const Options& opt, Tracer& tracer) {
  Result res;
  const Checkpoint ckpt = make_checkpoint(kStreamDataset, kTrainEpochs, opt.work_dir);
  const data::Split background = make_data(kStreamDataset, opt.seed).test;

  // The plan every served session leases: clean stamp from Rng(0), batch 1.
  infer::Plan plan = ckpt.engine->make_plan();
  {
    util::Rng rng(0);
    ckpt.engine->stamp(plan, variation::VariationSpec::none(), rng, 1);
  }

  const std::size_t ref_chunks = static_cast<std::size_t>(
      0.5 * opt.seconds * kRefWindowsPerS / kSessions);
  const std::size_t groups = opt.trace ? 1 : kGroups;
  const std::size_t chunks = opt.trace ? ref_chunks : kSubChunks;
  std::vector<std::vector<Sensor>> sensors(groups);
  double feed_s = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      sensors[g].push_back(
          make_sensor(derive(opt.seed, 0x73656e73ULL + g * kSessions + s),
                      chunks, *ckpt.engine, plan, &feed_s));
    }
  }
  std::vector<Traffic> traffic;
  for (std::vector<Sensor>& group : sensors) {
    traffic.emplace_back(group, background, opt.seed);
  }
  const std::vector<std::string> argv = serve_argv(opt, ckpt);

  if (!opt.trace) {
    // Set-up: the CPU of a pnc_serve that starts, answers health and
    // exits; timed on probes through the run. Its median is taken off
    // every sub-phase's CPU.
    const Clock::time_point t0 = Clock::now();
    const auto now = [t0] { return seconds_between(t0, Clock::now()); };
    std::vector<double> startup_s;
    auto probe = [&] { startup_s.push_back(probe_startup_cpu(argv, res)); };
    for (int i = 0; i < 5; ++i) probe();
    std::map<std::string, std::uint64_t> failures;
    // Detections per group, from its first sub-phase (the bitwise gate
    // holds every later one to the same windows and events).
    std::vector<std::optional<Checked>> scored(kGroups);
    // One sub-phase of group g on a fresh server; returns its CPU per
    // window.
    auto sub_phase = [&](std::size_t g, std::size_t window) {
      const std::unique_ptr<ServeProcess> server = spawn_ready(argv);
      const StreamPhase phase =
          traffic[g].phase("s", kRefWindowsPerS, kSubChunks);
      open_sessions(*server, "s");
      const PhaseResult raw = run_closed(*server, phase.lines, window);
      close_sessions(*server, "s");
      const Checked c = check(raw, phase, sensors[g], res);
      res.gate(server->finish() == 0, "stream_mixed: pnc_serve exited non-zero");
      res.attempted += c.attempted;
      res.failed += c.failed;
      for (const auto& [status, n] : c.failures) failures[status] += n;
      if (!scored[g]) scored[g] = c;
      return (server->cpu_seconds() - median(startup_s)) /
             static_cast<double>(std::max<std::size_t>(c.windows.size(), 1));
    };
    std::vector<double> sensor_ms, flood_wps;
    while (sensor_ms.size() < kMinRepeats || now() < opt.seconds) {
      const std::size_t g = sensor_ms.size() % kGroups;
      sensor_ms.push_back(sub_phase(g, kSessions) * 1e3);
      flood_wps.push_back(1.0 / sub_phase(g, kFloodWindow));
      if (sensor_ms.size() % 4 == 0) probe();
    }
    std::size_t detected = 0, missed = 0, spurious = 0;
    for (const std::optional<Checked>& c : scored) {
      detected += c->detected;
      missed += c->missed;
      spurious += c->spurious;
    }
    std::fprintf(stderr,
                 "  %zu one-chunk-per-sensor sub-phases and %zu full-batch "
                 "ones (window %zu) of %zu sessions x %zu chunks in %zu "
                 "groups, %zu start-up probes, tail p%.0f, events "
                 "%zu/%zu/%zu\n",
                 sensor_ms.size(), flood_wps.size(), kFloodWindow, kSessions,
                 kSubChunks, kGroups, startup_s.size(), kBatchTail, detected,
                 missed, spurious);
    report(failures);
    res.set("setup_s", median(startup_s), "s");
    res.set("ok_ratio", res.ok_ratio(), "ratio");
    res.set("p50_ms", median(sensor_ms), "ms");
    res.set("tail_ms", percentile(sensor_ms, kBatchTail), "ms");
    res.set("throughput_per_s", median(flood_wps), "1/s");
    res.set("quality",
            2.0 * detected / (2.0 * detected + missed + spurious), "ratio");
    return res;
  }

  // Traced run: one open-loop phase on the sample clock whose spans are
  // built afterwards per chunk from the client's clock and pnc_serve's
  // stage times (the phase runs exactly the untraced code, so there is no
  // tracing cost to report).
  const std::unique_ptr<ServeProcess> server = spawn_ready(argv);
  const StreamPhase phase = traffic[0].phase("ref", kRefWindowsPerS, ref_chunks);
  open_sessions(*server, "ref");
  const double t_phase = tracer.now();
  const PhaseResult raw = run_phase(*server, phase.lines);
  close_sessions(*server, "ref");
  const Checked ref = check(raw, phase, sensors[0], res);
  res.attempted = ref.attempted;
  res.failed = ref.failed;
  res.gate(server->finish() == 0, "stream_mixed: pnc_serve exited non-zero");
  res.gate(!generator_fell_behind(raw.ops, kMaxLagMs),
           "stream_mixed: the generator fell behind (run invalid)");
  add_request_spans(tracer, raw, t_phase, "bench.operation");
  res.set("bench.win_p50_ms", latency_ms(ref.windows, 50.0), "ms");
  res.set("bench.win_p99_ms", latency_ms(ref.windows, 99.0), "ms");
  res.set("serve.session_queue_us.p50", percentile(ref.queue_us, 50), "us");
  res.set("serve.session_queue_us.p99", percentile(ref.queue_us, 99), "us");
  res.set("pnc_serve.session_front_us.p50", percentile(ref.front_us, 50), "us");
  res.set("bench.bg_req_p99_ms",
          percentile(latencies_ms(ref.background), 99), "ms");
  res.set("bench.gen_lag_p99_ms", percentile(generator_lag(raw.ops), 99) * 1e3, "ms");
  res.set("bench.send_rps", send_rate(raw.ops), "1/s");
  res.set("stream.feed_us_per_chunk",
          feed_s * 1e6 / static_cast<double>(kSessions * ref_chunks), "us");

  // Engine::step alone over one sensor's samples.
  const std::vector<double>& samples = sensors[0].front().samples;
  infer::StreamState state;
  const double step_s = median_seconds(5, [&] {
    ckpt.engine->reset_stream(plan, state);
    for (double x : samples) ckpt.engine->step(plan, state, x);
  });
  res.set("infer.step_us_per_sample",
          step_s * 1e6 / static_cast<double>(samples.size()), "us");
  res.set("infer.compile_ms", median_seconds(9, [&] {
            (void)infer::load_engine(ckpt.path, "adapt", ckpt.classes, ckpt.dt,
                                     kHiddenCap);
          }) * 1e3,
          "ms");
  return res;
}

}  // namespace perfbench
