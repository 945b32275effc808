#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <random>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

void write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write to pnc_serve: ") +
                               std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

// Large pipe buffers keep the writer from blocking on a briefly busy
// server; past saturation it still blocks, and that wait is charged to the
// server by the due-time latency.
void widen_pipe(int fd) {
#ifdef F_SETPIPE_SZ
  (void)::fcntl(fd, F_SETPIPE_SZ, 1 << 20);
#else
  (void)fd;
#endif
}

}  // namespace

void wait_until(Clock::time_point at) {
  // Waking from sleep takes up to milliseconds on a virtualised host, far
  // more than the gap between requests, so the last stretch is a spin.
  constexpr auto kSpin = std::chrono::microseconds(300);
  if (at - Clock::now() > kSpin) std::this_thread::sleep_until(at - kSpin);
  while (Clock::now() < at) {
  }
}

ServeProcess::ServeProcess(const std::vector<std::string>& argv) {
  // Close-on-exec, so no other child inherits these pipes and holds a
  // server's stdin open past finish().
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // posix_spawn rather than fork: its cost does not grow with this
  // process's memory, which holds every request of a run.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    pid_ = -1;
    throw std::runtime_error("spawn " + argv.front() + ": " + std::strerror(rc));
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  to_child_ = to_child[1];
  from_child_ = from_child[0];
  widen_pipe(to_child_);
  widen_pipe(from_child_);
}

ServeProcess::~ServeProcess() {
  try {
    finish();
  } catch (...) {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
}

void ServeProcess::send(const std::string& line) {
  const std::string framed = line + "\n";
  write_all(to_child_, framed.data(), framed.size());
}

bool ServeProcess::fill(double timeout_s) {
  pollfd p{from_child_, POLLIN, 0};
  const int ms = static_cast<int>(std::ceil(timeout_s * 1e3));
  int r;
  do {
    r = ::poll(&p, 1, ms);
  } while (r < 0 && errno == EINTR);
  if (r <= 0) return false;
  char chunk[65536];
  ssize_t n;
  do {
    n = ::read(from_child_, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

std::string ServeProcess::read_line(double timeout_s) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    if (!fill(timeout_s)) {
      throw std::runtime_error("pnc_serve closed its output or timed out");
    }
  }
}

std::string ServeProcess::request(const std::string& line,
                                  const std::string& marker) {
  send(line);
  while (true) {
    std::string reply = read_line();
    if (reply.find(marker) != std::string::npos) return reply;
  }
}

int ServeProcess::finish() {
  if (pid_ <= 0) return status_;
  if (to_child_ >= 0) {
    ::close(to_child_);
    to_child_ = -1;
  }
  // Drain so a child blocked on a full stdout can reach EOF and exit.
  while (fill(60.0)) buffer_.clear();
  ::close(from_child_);
  from_child_ = -1;
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  cpu_seconds_ = secs(usage.ru_utime) + secs(usage.ru_stime);
  status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return status_;
}

namespace {

/// Split the response bytes in `buffer` into lines and file each complete
/// one under its id, stamped `received`. Unknown ids (an earlier phase's
/// stragglers) are dropped. Returns how many operations got their answer.
std::size_t file_responses(std::string& buffer, std::uint64_t base,
                           double received, PhaseResult& result) {
  std::size_t answered = 0;
  const std::size_t n = result.ops.size();
  std::size_t start = 0;
  for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
       nl = buffer.find('\n', start)) {
    std::string line = buffer.substr(start, nl - start);
    start = nl + 1;
    const double id = json_number(line, "id");
    if (!(id >= static_cast<double>(base))) continue;
    const std::size_t k = static_cast<std::size_t>(id) - base;
    if (k >= n || !result.responses[k].empty()) continue;
    result.ops[k].received = received;
    result.ops[k].ok = status_ok(line);
    result.responses[k] = std::move(line);
    ++answered;
  }
  buffer.erase(0, start);
  return answered;
}

}  // namespace

PhaseResult run_phase(ServeProcess& server, const std::vector<Outgoing>& lines,
                      double drain_timeout_s) {
  PhaseResult result;
  const std::size_t n = lines.size();
  result.ops.resize(n);
  result.responses.resize(n);
  if (n == 0) return result;
  for (std::size_t i = 0; i < n; ++i) result.ops[i].due = lines[i].due;
  const std::uint64_t base = lines.front().id;

  std::atomic<bool> writer_done{false};
  std::atomic<double> last_send{0.0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto since = [t0] { return seconds_between(t0, Clock::now()); };

  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
    std::string batch;
    double free_at = 0.0;
    std::size_t i = 0;
    while (i < n) {
      wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(lines[i].due)));
      // Everything already due goes out in one write.
      const double sent = since();
      std::size_t j = i;
      batch.clear();
      while (j < n && lines[j].due <= sent) {
        batch += lines[j].line;
        result.ops[j].sent = sent;
        result.ops[j].writer_free = free_at;
        ++j;
      }
      if (j == i) continue;  // woke early
      write_all(server.write_fd(), batch.data(), batch.size());
      free_at = since();
      last_send.store(sent);
      i = j;
    }
    } catch (...) {
      writer_error = std::current_exception();
    }
    writer_done.store(true);
  });

  // Reader: timestamp each read() once, then file every complete line
  // under its id. Unknown ids (an earlier phase's stragglers) are dropped.
  std::size_t answered = 0;
  std::string buffer;
  std::vector<char> chunk(1 << 16);
  double last_progress = 0.0;
  while (answered < n) {
    pollfd p{server.read_fd(), POLLIN, 0};
    const int r = ::poll(&p, 1, 50);
    if (r < 0 && errno == EINTR) continue;
    const double now = since();
    if (r <= 0) {
      if (writer_done.load() &&
          now - std::max(last_progress, last_send.load()) > drain_timeout_s) {
        break;
      }
      continue;
    }
    const ssize_t got = ::read(server.read_fd(), chunk.data(), chunk.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // the server exited
    const double received = since();
    last_progress = received;
    buffer.append(chunk.data(), static_cast<std::size_t>(got));
    answered += file_responses(buffer, base, received, result);
  }
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  return result;
}

PhaseResult run_closed(ServeProcess& server, const std::vector<Outgoing>& lines,
                       std::size_t window, double drain_timeout_s) {
  PhaseResult result;
  const std::size_t n = lines.size();
  result.ops.resize(n);
  result.responses.resize(n);
  if (n == 0) return result;
  const std::uint64_t base = lines.front().id;
  const Clock::time_point t0 = Clock::now();
  const auto since = [t0] { return seconds_between(t0, Clock::now()); };
  const int timeout_ms = static_cast<int>(std::ceil(drain_timeout_s * 1e3));

  std::size_t next = 0;
  std::size_t answered = 0;
  std::string batch;
  std::string buffer;
  std::vector<char> chunk(1 << 16);
  while (answered < n) {
    // Fill the window; the sends of one wake-up go out in one write.
    batch.clear();
    const double sent = since();
    while (next < n && next - answered < window) {
      batch += lines[next].line;
      result.ops[next].due = sent;
      result.ops[next].sent = sent;
      result.ops[next].writer_free = sent;
      ++next;
    }
    if (!batch.empty()) {
      write_all(server.write_fd(), batch.data(), batch.size());
    }
    pollfd p{server.read_fd(), POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) break;  // nothing within the drain timeout
    const ssize_t got = ::read(server.read_fd(), chunk.data(), chunk.size());
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // the server exited
    buffer.append(chunk.data(), static_cast<std::size_t>(got));
    answered += file_responses(buffer, base, since(), result);
  }
  return result;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = gap(gen); t < seconds; t += gap(gen)) due.push_back(t);
  return due;
}

double json_number(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  const char* begin = line.c_str() + at + needle.size();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin) return std::numeric_limits<double>::quiet_NaN();
  return v;
}

std::string status_of(const std::string& line) {
  const std::string needle = "\"status\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  const std::size_t to = line.find('"', from);
  if (to == std::string::npos) return "";
  return line.substr(from, to - from);
}

bool status_ok(const std::string& line) { return status_of(line) == "ok"; }

std::size_t json_array(const std::string& line, const std::string& key,
                       std::size_t from, std::vector<double>& out) {
  out.clear();
  const std::string needle = "\"" + key + "\":[";
  const std::size_t at = line.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  const char* p = line.c_str() + at + needle.size();
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) return std::string::npos;
    p = end;
    if (*p == ',') ++p;
  }
  if (*p != ']') return std::string::npos;
  return static_cast<std::size_t>(p - line.c_str()) + 1;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
