// The benchmark's three workloads and what they share: options, the result
// every run prints, the closed loop and the metric helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< where knl-serve and knl-repro were built
  std::string work_dir;  ///< scratch space for this run (inside the checkout)
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< correctness failures, printed to stderr

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  void set(const std::string& name, double value);
};

/// Every per-layer metric with its unit, in BENCHMARK.json order. A traced
/// run reports all of them; a layer the workload does not reach reads 0.
[[nodiscard]] std::vector<Metric> per_layer_metrics();

struct LoopResult {
  std::vector<double> latency_s;  ///< one per attempted operation
  std::vector<double> done_s;     ///< its completion, from the loop's start
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Append a loop that ran right after this one.
  void append(const LoopResult& later);
};

/// The end-to-end metrics of an untraced run. The operations, in
/// completion order, are cut into windows of `window_ops`; throughput is the
/// median of the per-window rates (the plain rate when the run holds fewer
/// than three windows), so a host stall shorter than half the run does not
/// move it.
void set_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const LoopResult& timed, double peak_rss_mb, std::size_t window_ops);

/// Closed loop: `clients` threads each issue the next operation as soon as
/// their previous one returns. Operations are handed out in order from one
/// counter and the loop stops only at a round boundary once `seconds` have
/// passed and at least `min_rounds` rounds are done, so every run attempts
/// whole rounds of `round` operations. Indices start at `first_index`.
/// `op(client, index)` returns false when the operation failed.
[[nodiscard]] LoopResult closed_loop(int clients, std::uint64_t round, double seconds,
                                     const std::function<bool(int, std::uint64_t)>& op,
                                     std::uint64_t first_index = 0,
                                     std::uint64_t min_rounds = 0);

/// The times of `count` set-ups. `setup` runs one and returns the seconds
/// its timed part took, or a negative number when it failed (the result is
/// then empty). Untimed set-ups run first, for at least a second: after
/// idling, this host ran the first second of work up to twice as slow (a
/// replay set-up took 85-104 ms after 15 s idle, 43-46 ms after one busy
/// second), which made the first run of a series an outlier.
[[nodiscard]] std::vector<double> measure_setups(int count,
                                                 const std::function<double()>& setup);

/// SplitMix64 step: the generator behind every seeded input.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

[[nodiscard]] double seconds_since(Clock::time_point start);

Outcome run_serve_cold(const Options& options);
Outcome run_repro_matrix(const Options& options);
Outcome run_replay(const Options& options);

}  // namespace perfbench
