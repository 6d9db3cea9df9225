// Child processes the benchmark drives: the knl-serve daemon and one-shot
// knl-repro runs. Every process started here is waited for before the
// owning object goes away.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A knl-serve daemon on an ephemeral loopback port.
class Daemon {
 public:
  /// Spawn `binary args...`, wait for its "listening on" line (throws
  /// std::runtime_error when it does not come within ten seconds).
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& stderr_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Peak resident set (VmHWM) so far, in MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, then wait; returns the exit status (-1 when killed).
  int stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

struct ProcessResult {
  int exit_code = -1;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Run `argv` to completion with stdout and stderr sent to `log_path`.
[[nodiscard]] ProcessResult run_process(const std::vector<std::string>& argv,
                                        const std::string& log_path);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace perfbench
