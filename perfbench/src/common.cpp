#include <algorithm>
#include <mutex>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

void Outcome::set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  fail("internal: no metric named " + name);
}

std::vector<Metric> per_layer_metrics() {
  const std::vector<std::pair<const char*, const char*>> names = {
      {"http.roundtrip_us", "us"},
      {"service.handle_us", "us"},
      {"http.overhead_us", "us"},
      {"json.parse_us", "us"},
      {"json.dump_us", "us"},
      {"report.cache_lookup_us", "us"},
      {"report.cache_hits", "count"},
      {"report.cache_misses", "count"},
      {"report.capacity_sweep_ms", "ms"},
      {"report.capacity_sweep_self_ms", "ms"},
      {"report.profile_passes", "count"},
      {"report.profile_hits", "count"},
      {"report.sweep_cells", "count"},
      {"report.cell_us", "us"},
      {"trace.synth_ms", "ms"},
      {"trace.addresses", "count"},
      {"sim.profile_ms", "ms"},
      {"core.machine_run_us", "us"},
      {"core.jobs_speedup", "ratio"},
      {"repro.experiment_ms", "ms"},
      {"repro.write_ms", "ms"},
      {"repro.diff_ms", "ms"},
      {"sim.refs_per_s", "1/s"},
      {"sim.replay_refs_per_s.w1", "1/s"},
      {"sim.replay_refs_per_s.wN", "1/s"},
      {"sim.replay_efficiency", "ratio"},
      {"sim.classify_refs_per_s", "1/s"},
      {"sim.tlb_refs_per_s", "1/s"},
      {"trace.gen_ms", "ms"},
      {"sim.l1_hits", "count"},
      {"sim.l2_hits", "count"},
      {"sim.memory_accesses", "count"},
      {"sim.tlb_misses", "count"},
      {"trace.overhead_pct", "%"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) out.push_back(Metric{name, 0.0, unit});
  return out;
}

void LoopResult::append(const LoopResult& later) {
  latency_s.insert(latency_s.end(), later.latency_s.begin(), later.latency_s.end());
  for (const double t : later.done_s) done_s.push_back(wall_s + t);
  wall_s += later.wall_s;
  attempted += later.attempted;
  failed += later.failed;
}

void set_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const LoopResult& timed, double peak_rss_mb, std::size_t window_ops) {
  double throughput = timed.wall_s > 0.0
                          ? static_cast<double>(timed.latency_s.size()) / timed.wall_s
                          : 0.0;
  if (timed.done_s.size() >= 3 * window_ops) {
    // Completion times in order, cut into windows of window_ops operations.
    std::vector<double> done = timed.done_s;
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    double window_start = 0.0;
    for (std::size_t end = window_ops; end <= done.size(); end += window_ops) {
      rates.push_back(static_cast<double>(window_ops) / (done[end - 1] - window_start));
      window_start = done[end - 1];
    }
    throughput = median(rates);
  }
  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"latency_p50_ms", median(timed.latency_s) * 1e3, "ms"},
      {"throughput_per_s", throughput, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

LoopResult closed_loop(int clients, std::uint64_t round, double seconds,
                       const std::function<bool(int, std::uint64_t)>& op,
                       std::uint64_t first_index, std::uint64_t min_rounds) {
  std::mutex mutex;
  std::uint64_t next = first_index;
  bool stopped = false;
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  std::vector<std::vector<double>> done(static_cast<std::size_t>(clients));
  std::vector<std::uint64_t> failures(static_cast<std::size_t>(clients), 0);
  const auto start = Clock::now();

  const auto client = [&](int c) {
    for (;;) {
      std::uint64_t index = 0;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!stopped && (next - first_index) % round == 0 &&
            (next - first_index) / round >= min_rounds && seconds_since(start) >= seconds) {
          stopped = true;
        }
        if (stopped) return;
        index = next++;
      }
      const auto t0 = Clock::now();
      const bool ok = op(c, index);
      latencies[static_cast<std::size_t>(c)].push_back(seconds_since(t0));
      done[static_cast<std::size_t>(c)].push_back(seconds_since(start));
      if (!ok) ++failures[static_cast<std::size_t>(c)];
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }

  LoopResult result;
  result.wall_s = seconds_since(start);
  for (int c = 0; c < clients; ++c) {
    const auto& mine = latencies[static_cast<std::size_t>(c)];
    result.latency_s.insert(result.latency_s.end(), mine.begin(), mine.end());
    const auto& when = done[static_cast<std::size_t>(c)];
    result.done_s.insert(result.done_s.end(), when.begin(), when.end());
    result.failed += failures[static_cast<std::size_t>(c)];
  }
  result.attempted = result.latency_s.size();
  return result;
}

std::vector<double> measure_setups(int count, const std::function<double()>& setup) {
  const auto start = Clock::now();
  while (seconds_since(start) < 1.0) {
    if (setup() < 0.0) return {};
  }
  std::vector<double> times;
  for (int i = 0; i < count; ++i) {
    const double s = setup();
    if (s < 0.0) return {};
    times.push_back(s);
  }
  return times;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
