// replay: the discrete simulator. One operation is one ParallelReplay::replay
// (workers = nproc) of seeded per-core streams from empty caches.
#include <memory>

#include "oracle.hpp"
#include "proc.hpp"
#include "sim/cache.hpp"
#include "sim/parallel_replay.hpp"
#include "sim/tlb.hpp"
#include "trace/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 15;
constexpr int kCores = 8;
constexpr std::uint64_t kRefsPerCore = 1ull << 17;
constexpr std::uint64_t kMiB = 1ull << 20;

/// Core c replays one of four streams, all with footprints beyond the
/// per-core L2 (512 KiB): c % 4 == 0 a streaming sweep in 8 B steps over
/// 1 MiB (spatial reuse: L1 hits), 1 uniform-random reads over 512 MiB
/// (beyond TLB reach), 2 a pointer chase over 4 MiB of 64 B slots (every
/// access to memory), 3 uniform-random reads over 1 MiB (half L2 hits).
/// The seed moves each core's base and drives the draws and the chase.
std::vector<std::vector<std::uint64_t>> make_streams(std::uint64_t seed) {
  std::vector<std::vector<std::uint64_t>> streams;
  for (std::uint64_t c = 0; c < kCores; ++c) {
    const std::uint64_t h = mix64(seed * 0x9E3779B97F4A7C15ull + c);
    const std::uint64_t base = (c << 30) + (h % 256) * 2 * kMiB;
    std::vector<std::uint64_t> s;
    switch (c % 4) {
      case 0: {
        knl::trace::StridedGenerator gen(base, kRefsPerCore * 8, 8, 1);
        s = knl::trace::collect_addresses(gen);
        break;
      }
      case 1: {
        knl::trace::UniformRandomGenerator gen(base, 512 * kMiB, kRefsPerCore, h);
        s = knl::trace::collect_addresses(gen);
        break;
      }
      case 2: {
        const std::vector<std::uint32_t> next = knl::trace::build_chase_permutation(
            static_cast<std::uint32_t>(4 * kMiB / 64), h);
        knl::trace::ChaseGenerator gen(base, next, 64, kRefsPerCore);
        s = knl::trace::collect_addresses(gen);
        break;
      }
      default: {
        knl::trace::UniformRandomGenerator gen(base, kMiB, kRefsPerCore, h);
        s = knl::trace::collect_addresses(gen);
        break;
      }
    }
    s.resize(kRefsPerCore);
    streams.push_back(std::move(s));
  }
  return streams;
}

knl::sim::ParallelReplayConfig replay_config(unsigned workers) {
  knl::sim::ParallelReplayConfig config;
  config.cores = kCores;
  config.workers = workers;
  return config;
}

Geometry geometry(const knl::sim::CacheConfig& c) {
  return {c.line_bytes, c.num_sets(), static_cast<std::uint64_t>(c.ways)};
}

}  // namespace

Outcome run_replay(const Options& options) {
  Outcome out;
  SpanRecorder recorder(options.trace);
  const auto workers = static_cast<unsigned>(options.nproc);

  std::vector<std::vector<std::uint64_t>> streams;
  std::unique_ptr<knl::sim::ParallelReplay> replay;
  const std::vector<double> setup_s = measure_setups(kSetups, [&] {
    // The previous set-up's engine and streams are freed untimed, so that
    // the process's peak holds one of each.
    replay.reset();
    streams = {};
    const auto t0 = Clock::now();
    {
      const Span span(recorder, "trace.gen");
      streams = make_streams(options.seed);
    }
    replay = std::make_unique<knl::sim::ParallelReplay>(replay_config(workers));
    (void)replay->replay(streams);  // starts the worker pool, touches the arenas
    return seconds_since(t0);
  });
  const double refs = static_cast<double>(kCores * kRefsPerCore);

  knl::sim::ParallelReplayStats first;
  bool have_first = false;
  const auto run_once = [&](knl::sim::ParallelReplay& engine, const char* span_name) {
    const Span span(recorder, span_name);
    engine.reset();
    const knl::sim::ParallelReplayStats stats = engine.replay(streams);
    if (!have_first) {
      first = stats;
      have_first = true;
    }
    return stats.l1_hits == first.l1_hits && stats.l2_hits == first.l2_hits &&
           stats.memory_accesses == first.memory_accesses &&
           stats.tlb_misses == first.tlb_misses && stats.seconds == first.seconds;
  };
  const auto op = [&](int, std::uint64_t) { return run_once(*replay, "sim.replay.untraced"); };

  const double timed_seconds = options.trace ? options.seconds / 4 : options.seconds;
  const LoopResult timed = closed_loop(1, 1, timed_seconds, op);
  const double peak_rss = self_peak_rss_mb();
  out.attempted = timed.attempted;
  out.failed = timed.failed;

  // The naive LRU's per-core counts, summed, against the engine's totals;
  // and the bandwidth floor on simulated time.
  const knl::sim::ParallelReplayConfig config = replay_config(workers);
  CoreCounts naive;
  for (const auto& stream : streams) {
    const CoreCounts c = naive_core_counts(
        stream, geometry(config.l1), geometry(config.l2),
        Geometry{config.tlb.page_bytes, 1, static_cast<std::uint64_t>(config.tlb.entries)});
    naive.l1_hits += c.l1_hits;
    naive.l2_hits += c.l2_hits;
    naive.memory_accesses += c.memory_accesses;
    naive.tlb_misses += c.tlb_misses;
  }
  if (first.accesses != kCores * kRefsPerCore) out.fail("replay dropped references");
  if (first.l1_hits != naive.l1_hits || first.l2_hits != naive.l2_hits ||
      first.memory_accesses != naive.memory_accesses || first.tlb_misses != naive.tlb_misses) {
    out.fail("replay counts differ from the naive LRU: l1 " + std::to_string(first.l1_hits) +
             "/" + std::to_string(naive.l1_hits) + " l2 " + std::to_string(first.l2_hits) +
             "/" + std::to_string(naive.l2_hits) + " mem " +
             std::to_string(first.memory_accesses) + "/" +
             std::to_string(naive.memory_accesses) + " tlb " +
             std::to_string(first.tlb_misses) + "/" + std::to_string(naive.tlb_misses));
  }
  const double floor_s = static_cast<double>(first.memory_accesses) * 64.0 /
                         (replay->bandwidth_cap_gbs() * 1e9);
  if (!(first.seconds >= floor_s)) out.fail("simulated time below the bandwidth floor");

  if (!options.trace) {
    set_end_to_end(out, setup_s, timed, peak_rss, 32);
    return out;
  }

  // Traced: the engine at nproc workers and at one, then the per-core
  // classification stages alone on every core's stream.
  const LoopResult traced = closed_loop(1, 1, options.seconds / 4, [&](int, std::uint64_t) {
    return run_once(*replay, "sim.replay.wN");
  });
  knl::sim::ParallelReplay single(replay_config(1));
  const LoopResult one = closed_loop(1, 1, options.seconds / 4, [&](int, std::uint64_t) {
    return run_once(single, "sim.replay.w1");
  });
  out.attempted += traced.attempted + one.attempted;
  out.failed += traced.failed + one.failed;
  std::vector<std::uint8_t> flags(kRefsPerCore);
  std::vector<std::uint64_t> misses(kRefsPerCore);
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& stream : streams) {
      knl::sim::CacheSim l1(config.l1);
      knl::sim::CacheSim l2(config.l2);
      knl::sim::TlbSim tlb(config.tlb);
      {
        const Span span(recorder, "sim.classify");
        (void)l1.access_block_flags(stream.data(), stream.size(), flags.data());
        std::size_t n = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          if (flags[i] == 0) misses[n++] = stream[i];
        }
        (void)l2.access_block_flags(misses.data(), n, flags.data());
      }
      const Span span(recorder, "sim.tlb");
      tlb.access_block(stream.data(), stream.size(), flags.data());
    }
  }

  out.metrics = per_layer_metrics();
  const double wn_s = median(recorder.durations_us("sim.replay.wN")) / 1e6;
  const double w1_s = median(recorder.durations_us("sim.replay.w1")) / 1e6;
  out.set("sim.refs_per_s", refs / median(timed.latency_s));
  out.set("sim.replay_refs_per_s.w1", refs / w1_s);
  out.set("sim.replay_refs_per_s.wN", refs / wn_s);
  out.set("sim.replay_efficiency", (refs / wn_s) / (workers * refs / w1_s));
  out.set("sim.classify_refs_per_s",
          static_cast<double>(kRefsPerCore) / (median(recorder.durations_us("sim.classify")) / 1e6));
  out.set("sim.tlb_refs_per_s",
          static_cast<double>(kRefsPerCore) / (median(recorder.durations_us("sim.tlb")) / 1e6));
  out.set("trace.gen_ms", median(recorder.durations_us("trace.gen")) / 1e3);
  out.set("sim.l1_hits", static_cast<double>(first.l1_hits));
  out.set("sim.l2_hits", static_cast<double>(first.l2_hits));
  out.set("sim.memory_accesses", static_cast<double>(first.memory_accesses));
  out.set("sim.tlb_misses", static_cast<double>(first.tlb_misses));
  out.set("trace.overhead_pct", (wn_s / median(timed.latency_s) - 1.0) * 100.0);
  if (!recorder.write_jsonl(options.work_dir + "/spans.jsonl")) out.fail("cannot write spans");
  return out;
}

}  // namespace perfbench
