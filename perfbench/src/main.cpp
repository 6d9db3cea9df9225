// knl-perfbench: run one benchmark workload against knlmem and print its
// result as one JSON line (see perfbench/README.md).
//
//   knl-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --bin-dir DIR --work-dir DIR
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "sim/simd.hpp"
#include "workloads.hpp"

namespace {

/// (steal, total) jiffies of all CPUs so far, from /proc/stat's first line.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) break;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

int usage(const std::string& why) {
  std::cerr << "knl-perfbench: " << why << "\n"
            << "usage: knl-perfbench --workload serve-cold|repro-matrix|replay\n"
            << "                     --seed N --seconds S --trace 0|1\n"
            << "                     --bin-dir DIR --work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& key = args[i];
    const std::string& value = args[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        options.trace = value == "1";
      } else if (key == "--bin-dir") {
        options.bin_dir = value;
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (args.size() % 2 != 0 || options.bin_dir.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    return usage("missing or odd arguments");
  }

  // Numbers from an unoptimized build say nothing about the program.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  options.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::cout << "knl-perfbench: build " << build_type << ", simd "
            << knl::sim::simd::level_name(knl::sim::simd::active_level()) << ", nproc "
            << options.nproc << ", workload " << options.workload << ", seed "
            << options.seed << ", trace " << (options.trace ? 1 : 0) << std::endl;
  if (build_type != "Release") {
    std::cerr << "knl-perfbench: refusing to measure a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Outcome out;
  const auto [steal_before, total_before] = cpu_jiffies();
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "serve-cold") {
      out = run_serve_cold(options);
    } else if (options.workload == "repro-matrix") {
      out = run_repro_matrix(options);
    } else if (options.workload == "replay") {
      out = run_replay(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "knl-perfbench: " << e.what() << "\n";
    return 1;
  }
  if (out.metrics.empty() || out.attempted == 0) {
    for (const std::string& e : out.errors) std::cerr << "knl-perfbench: " << e << "\n";
    std::cerr << "knl-perfbench: the run produced no measurement\n";
    return 1;
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  for (const std::string& e : out.errors) std::cerr << "knl-perfbench: FAILED " << e << "\n";
  // Time the host took from this machine's CPUs: context for a slow run.
  const auto [steal_after, total_after] = cpu_jiffies();
  if (total_after > total_before) {
    std::cout << "knl-perfbench: host steal "
              << 100.0 * (steal_after - steal_before) / (total_after - total_before)
              << "% of CPU time during the run" << std::endl;
  }

  std::string line = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
