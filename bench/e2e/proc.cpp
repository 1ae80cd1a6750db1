#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "net/tcp_transport.hpp"
#include "proto/messages.hpp"

namespace shadowbench {

namespace {

using shadow::Error;
using shadow::ErrorCode;

/// fork + exec `argv` with stdout on a fresh pipe; the read end is
/// returned in *out_fd. The child dies with the benchmark.
Result<pid_t> spawn(const std::vector<std::string>& argv, int* out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Error{ErrorCode::kIoError, std::string("pipe: ") + strerror(errno)};
  }
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Error{ErrorCode::kIoError, std::string("fork: ") + strerror(errno)};
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  *out_fd = fds[0];
  return pid;
}

ChildExit reap(pid_t pid) {
  ChildExit result;
  struct rusage usage {};
  while (::wait4(pid, &result.status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

/// Read one line from `fd` with a deadline; nullopt on EOF or timeout.
std::optional<std::string> read_line(int fd, shadow::i64 deadline_ns,
                                     std::string* buffer) {
  while (true) {
    if (const auto nl = buffer->find('\n'); nl != std::string::npos) {
      std::string line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return line;
    }
    const shadow::i64 left_ms = (deadline_ns - now_ns()) / 1'000'000;
    if (left_ms <= 0) return std::nullopt;
    struct pollfd p {fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return std::nullopt;
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace

shadow::i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ChildExit::clean() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Result<std::unique_ptr<Daemon>> Daemon::start(const std::string& shadowd,
                                              const std::string& journal) {
  int out = -1;
  SHADOW_ASSIGN_OR_RETURN(
      pid, spawn({shadowd, "--port", "0", "--journal", journal, "--log-level",
                  "error"},
                 &out));
  // "shadowd: <name> listening on 127.0.0.1:<port>" (tools/shadowd_main.cpp)
  std::string buffer;
  const shadow::i64 deadline = now_ns() + 10'000'000'000;
  std::optional<u16> port;
  while (!port) {
    const auto line = read_line(out, deadline, &buffer);
    if (!line) break;
    const auto at = line->find("listening on 127.0.0.1:");
    if (at != std::string::npos) {
      port = static_cast<u16>(
          std::atoi(line->c_str() + at + std::strlen("listening on 127.0.0.1:")));
    }
  }
  // The daemon's later lines ("client connected") go to a closed pipe;
  // it ignores SIGPIPE, so they are simply dropped.
  ::close(out);
  if (!port || *port == 0) {
    ::kill(pid, SIGKILL);
    const ChildExit exit = reap(pid);
    return Error{ErrorCode::kIoError,
                 "shadowd did not report a listening port (wait status " +
                     std::to_string(exit.status) + ")"};
  }
  return std::unique_ptr<Daemon>(new Daemon(pid, *port));
}

Daemon::~Daemon() {
  if (pid_ > 0) stop();
}

double Daemon::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const auto close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<shadow::telemetry::Snapshot> Daemon::snapshot() const {
  SHADOW_ASSIGN_OR_RETURN(conn, shadow::net::tcp_connect(port_, "shadowd"));
  std::optional<shadow::proto::AdminReply> reply;
  conn->set_receiver([&](shadow::Bytes wire) {
    auto decoded = shadow::proto::decode_message(wire);
    if (!decoded.ok()) return;
    if (auto* m = std::get_if<shadow::proto::AdminReply>(&decoded.value())) {
      reply = std::move(*m);
    }
  });
  shadow::proto::AdminQuery query;
  query.sections = shadow::proto::kAdminCounters | shadow::proto::kAdminGauges;
  SHADOW_TRY(conn->send(
      shadow::proto::encode_message(shadow::proto::Message(query))));
  const shadow::i64 deadline = now_ns() + 5'000'000'000;
  while (!reply && !conn->closed() && now_ns() < deadline) {
    struct pollfd p {conn->fd(), POLLIN, 0};
    ::poll(&p, 1, 50);
    conn->poll();
  }
  if (!reply || !reply->ok) {
    return Error{ErrorCode::kIoError, "no AdminReply from shadowd"};
  }
  return std::move(reply->snapshot);
}

double Daemon::rss_mib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Daemon::stop() {
  ::kill(pid_, SIGTERM);
  const shadow::i64 deadline = now_ns() + 10'000'000'000;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      (void)reap(pid_);
      break;
    }
    ::usleep(1000);
  }
  pid_ = -1;
}

Result<Captured> run_captured(const std::vector<std::string>& argv) {
  Captured captured;
  const shadow::i64 t0 = now_ns();
  int out = -1;
  SHADOW_ASSIGN_OR_RETURN(pid, spawn(argv, &out));
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(out, chunk, sizeof chunk);
    if (n > 0) {
      captured.out.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(out);
  captured.exit = reap(pid);
  captured.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return captured;
}

}  // namespace shadowbench
