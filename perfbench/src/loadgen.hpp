// One open-loop NDJSON load generator, shared by serve_open_loop and
// stream_mixed. It forks a real pnc_serve over pipes, and per phase runs
// one writer thread that sends each pre-built line at its due time and
// one reader thread that timestamps every response line as it arrives.
// Latency is taken from the due time (see measure.hpp), so a stall in
// either process is charged to every operation behind it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

/// A pnc_serve child process on the other end of two pipes.
class ServeProcess {
 public:
  /// Spawn argv[0] with argv; its stdin/stdout become the pipes.
  explicit ServeProcess(const std::vector<std::string>& argv);
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Write one line (a '\n' is appended).
  void send(const std::string& line);

  /// Read one response line; throws when the child closed its stdout or
  /// nothing arrived within `timeout_s`.
  std::string read_line(double timeout_s = 30.0);

  /// Send `line` and return the first response line containing `marker`,
  /// skipping lines that belong to earlier operations.
  std::string request(const std::string& line, const std::string& marker);

  /// Close the child's stdin (it drains and exits), discard its remaining
  /// output and reap it. Returns its exit status. Idempotent.
  int finish();

  /// CPU time the child used over its whole life, every thread, user and
  /// system; valid after finish(). It leaves out time the host gave this
  /// vCPU to other tenants, which wall-clock timings charge to the program.
  double cpu_seconds() const { return cpu_seconds_; }

  int write_fd() const { return to_child_; }
  int read_fd() const { return from_child_; }

 private:
  bool fill(double timeout_s);

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  int status_ = -1;
  double cpu_seconds_ = 0.0;
};

/// One operation of a phase: its schedule and the complete request line
/// (with its trailing '\n'). Every line carries "id":<id>, unique in the
/// process, so late responses from an earlier phase are never mistaken
/// for this one's.
struct Outgoing {
  double due = 0.0;  ///< seconds from the phase start
  std::uint64_t id = 0;
  std::string line;
};

struct PhaseResult {
  std::vector<OpTimes> ops;            ///< one per Outgoing, same order
  std::vector<std::string> responses;  ///< raw response line or ""
};

/// Run one open-loop phase. Ids of `lines` must be consecutive starting
/// at lines.front().id. The phase ends when every operation was answered
/// or `drain_timeout_s` passed without a response after the last send.
PhaseResult run_phase(ServeProcess& server, const std::vector<Outgoing>& lines,
                      double drain_timeout_s = 10.0);

/// Run one closed-loop phase: at most `window` operations outstanding, the
/// next line sent as soon as an answer frees a slot, from one thread that
/// sleeps in poll() between answers. Each operation's `due` is its send
/// time. Ids as for run_phase. Stops waiting when nothing arrives for
/// `drain_timeout_s`; unanswered operations stay failed.
PhaseResult run_closed(ServeProcess& server, const std::vector<Outgoing>& lines,
                       std::size_t window, double drain_timeout_s = 10.0);

/// Return at `at`, as close to it as the host allows (sleeps, then spins).
void wait_until(Clock::time_point at);

/// Poisson arrival times at `rate` per second over [0, seconds).
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

/// Value of the numeric field `key` in a flat response line, or NaN.
double json_number(const std::string& line, const std::string& key);

/// Whether the response line's status is "ok".
bool status_ok(const std::string& line);

/// The "status" string of a response line ("" when absent).
std::string status_of(const std::string& line);

/// Parse the numbers of the JSON array that follows `key` at or after
/// `from`; returns the position after the closing bracket, or npos.
std::size_t json_array(const std::string& line, const std::string& key,
                       std::size_t from, std::vector<double>& out);

/// Format a number so that strtod gives back the same double.
std::string exact(double v);

}  // namespace perfbench
