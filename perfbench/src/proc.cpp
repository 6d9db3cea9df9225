#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "spans.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args,
               const std::string& stderr_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv{binary};
  argv.insert(argv.end(), args.begin(), args.end());
  auto cargv = c_argv(argv);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, cargv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stdout_fd_);
    throw std::runtime_error("cannot start " + binary);
  }

  // Scrape "knl-serve listening on 127.0.0.1:PORT" from stdout.
  std::string seen;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (port_ == 0 && Clock::now() < deadline) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on 127.0.0.1:");
    const std::size_t eol = at == std::string::npos ? at : seen.find('\n', at);
    if (eol != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoi(seen.substr(at + 23, eol - at - 23)));
    }
  }
  if (port_ == 0) {
    stop();
    throw std::runtime_error("knl-serve did not report a port: " + seen);
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const { return pid_ > 0 ? vm_hwm_mb(pid_) : 0.0; }

int Daemon::stop() {
  int code = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return code;
}

ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  auto cargv = c_argv(argv);
  ProcessResult result;
  pid_t pid = -1;
  const auto start = Clock::now();
  const int rc =
      posix_spawn(&pid, argv.front().c_str(), &actions, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return result;
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

double self_peak_rss_mb() { return vm_hwm_mb(::getpid()); }

}  // namespace perfbench
