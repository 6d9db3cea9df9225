// serve-cold: closed-loop HTTP load of capacity queries on a knl-serve daemon.
#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "http_client.hpp"
#include "oracle.hpp"
#include "proc.hpp"
#include "report/sweep.hpp"
#include "repro/json.hpp"
#include "service/service.hpp"
#include "sim/reuse_profile.hpp"
#include "trace/synth.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using knl::repro::json::Value;

constexpr std::uint64_t kMiB = 1ull << 20;
const char* const kMachines[] = {"knl7210", "xeonmax", "knl_nvm"};
const char* const kWorkloads[] = {"STREAM", "GUPS", "DGEMM", "MiniFE", "XSBench",
                                  "Graph500"};
/// The daemon's query workers, and its acceptors: together nproc on the
/// reference 4-CPU host. The load comes from as many keep-alive
/// connections (nproc / 2).
constexpr int kDaemonThreads = 2;
constexpr int kColdConnections = kDaemonThreads;

/// Timed set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct LoggedRequest {
  HttpRequest http;
  Value body;  ///< parsed body (null for GET)
};

LoggedRequest post(const std::string& target, Value body) {
  LoggedRequest r{{"POST", target, body.dump(0)}, std::move(body)};
  return r;
}

/// Cold queries take up to a second each: the brownout thresholds are
/// raised so the health monitor (default degraded p99 250 ms) does not turn
/// them into cache-only rejections, which is not the path measured here.
std::vector<std::string> daemon_args() {
  return {"--workers",         std::to_string(kDaemonThreads),
          "--http-threads",    std::to_string(kDaemonThreads),
          "--idle-timeout-ms", "600000",
          "--degraded-p99-ms", "600000",
          "--shedding-p99-ms", "900000"};
}

double stats_field(HttpConnection& conn, const char* section, const char* key) {
  const HttpResponse r = conn.round_trip({"GET", "/stats", ""});
  const auto parsed = Value::parse(r.body);
  if (!parsed) throw std::runtime_error("/stats did not answer JSON");
  const Value* s = parsed->find(section);
  const Value* v = s == nullptr ? nullptr : s->find(key);
  if (v == nullptr) throw std::runtime_error(std::string("/stats lacks ") + key);
  return v->as_number();
}

/// Answer every POST of `log` once. Returns false on any non-200 answer.
bool warm(HttpConnection& conn, const std::vector<LoggedRequest>& log, Outcome& out) {
  for (const LoggedRequest& r : log) {
    if (r.http.method != "POST") continue;
    const HttpResponse resp = conn.round_trip(r.http);
    if (resp.status != 200) {
      out.fail("warm-up " + r.http.target + " answered " + std::to_string(resp.status) +
               ": " + resp.body.substr(0, 200));
      return false;
    }
  }
  return true;
}

/// An in-process twin of the daemon, warmed with the same requests, for the
/// layer split of requests the daemon answers.
std::unique_ptr<knl::service::PlacementService> warmed_twin(
    const std::vector<LoggedRequest>& requests) {
  knl::service::ServiceOptions service_options;
  service_options.workers = kDaemonThreads;
  auto service = std::make_unique<knl::service::PlacementService>(service_options);
  for (const LoggedRequest& r : requests) {
    if (r.http.method == "POST") {
      (void)service->handle_text(r.http.method, r.http.target, r.http.body);
    }
  }
  return service;
}

/// The layers of one request the daemon just answered, timed in-process:
/// PlacementService::handle_text on the same request, repro::json parsing
/// its body and dumping the answer. False when the twin did not answer 200.
bool split_service_layers(SpanRecorder& recorder, knl::service::PlacementService& service,
                          const HttpRequest& http, std::uint64_t index) {
  knl::service::ServiceResponse local;
  {
    const Span span(recorder, "service.handle", -1, index);
    local = service.handle_text(http.method, http.target, http.body);
  }
  if (http.method == "POST") {
    const Span span(recorder, "json.parse", -1, index);
    (void)Value::parse(http.body);
  }
  {
    const Span span(recorder, "json.dump", -1, index);
    (void)local.body.dump(0);
  }
  return local.status == 200;
}

/// The service-layer metrics from the spans split_service_layers and the
/// "http.roundtrip" spans of the same requests recorded.
void set_service_layers(Outcome& out, const SpanRecorder& recorder) {
  const std::vector<double> roundtrip_us = recorder.durations_us("http.roundtrip");
  const std::vector<double> handle_us = recorder.durations_us("service.handle");
  out.set("http.roundtrip_us", median(roundtrip_us));
  out.set("service.handle_us", median(handle_us));
  out.set("http.overhead_us", median(roundtrip_us) - median(handle_us));
  out.set("json.parse_us", median(recorder.durations_us("json.parse")));
  out.set("json.dump_us", median(recorder.durations_us("json.dump")));
}

/// One round: 18 fresh queries, every workload on every machine, each a
/// distinct profile key (so a profiling pass), spread evenly over "auto"
/// sweeps, explicit capacity lists and capacity what-ifs; then 6 re-asks
/// (a quarter) of the traces set-up profiled, at capacities not asked
/// before. The seed draws footprints (96-100 MiB, beyond every cache
/// level but the MCDRAM) and thread counts; the make-up is fixed.
constexpr std::uint64_t kColdFresh = 18;
constexpr std::uint64_t kColdRound = 24;
constexpr std::uint64_t kColdBases = 2;

struct ColdQuery {
  LoggedRequest request;
  bool reask = false;
};

Value capacity_body(const char* workload, std::uint64_t bytes, int threads,
                    const char* machine) {
  Value body = Value::object();
  body.set("workload", workload);
  body.set("bytes", static_cast<double>(bytes));
  body.set("threads", threads);
  body.set("machine", machine);
  return body;
}

/// Capacities rounded down to multiples of the default set span
/// (64 B lines x 32768 sets = 2 MiB), at least one span.
std::uint64_t span_multiple(std::uint64_t bytes) {
  return std::max<std::uint64_t>(bytes / (2 * kMiB), 1) * 2 * kMiB;
}

Value capacities(std::initializer_list<std::uint64_t> bytes) {
  Value out = Value::array();
  for (const std::uint64_t b : bytes) out.push_back(static_cast<double>(span_multiple(b)));
  return out;
}

std::uint64_t cold_bytes(std::uint64_t h) { return 96 * kMiB + (h % 64) * 64 * 1024; }

/// The traces set-up profiles (STREAM and XSBench on knl7210); re-asks hit them.
std::vector<LoggedRequest> cold_bases(std::uint64_t seed) {
  std::vector<LoggedRequest> bases;
  for (std::uint64_t b = 0; b < kColdBases; ++b) {
    Value body = capacity_body(b == 0 ? "STREAM" : "XSBench",
                               cold_bytes(mix64(seed ^ (0xB45Eull + b))), 64, "knl7210");
    body.set("capacities_bytes", capacities({32 * kMiB, 64 * kMiB}));
    bases.push_back(post("/sweep", std::move(body)));
  }
  return bases;
}

ColdQuery cold_query(std::uint64_t seed, const std::vector<LoggedRequest>& bases,
                     std::uint64_t index) {
  const std::uint64_t round = index / kColdRound;
  const std::uint64_t slot = index % kColdRound;
  if (slot >= kColdFresh) {
    const Value& base = bases[slot % kColdBases].body;
    Value body = capacity_body(kWorkloads[0], 0, 0, "knl7210");
    for (const char* key : {"workload", "bytes", "threads", "machine"}) {
      body.set(key, *base.find(key));
    }
    const std::uint64_t step = round * kColdRound + slot;  // new every time
    body.set("capacities_bytes", capacities({(2 + 2 * (step % 16)) * kMiB,
                                             (40 + 2 * step) * kMiB}));
    return {post("/sweep", std::move(body)), true};
  }
  const std::uint64_t w = slot % 6;
  const std::uint64_t m = slot / 6;
  const std::uint64_t h = mix64(seed * 0x9E3779B97F4A7C15ull + index);
  // Distinct per round: the thread count is part of the profile key.
  const int threads = 65 + static_cast<int>(round % 1000);
  const std::uint64_t bytes = cold_bytes(h);
  Value body = capacity_body(kWorkloads[w], bytes, threads, kMachines[m]);
  switch ((w + m) % 3) {
    case 0:
      body.set("capacities_bytes", "auto");
      return {post("/sweep", std::move(body)), false};
    case 1:
      body.set("capacities_bytes", capacities({bytes / 4, bytes / 2, bytes}));
      return {post("/sweep", std::move(body)), false};
    default:
      body.set("config", "Cache Mode");
      body.set("mcdram_capacity_bytes", static_cast<double>(span_multiple(bytes / 2)));
      return {post("/whatif", std::move(body)), false};
  }
}

/// (capacity, hit rate) cells of a capacity answer, in capacity order.
std::vector<std::pair<double, double>> hit_cells(const Value& response) {
  std::vector<std::pair<double, double>> cells;
  if (const Value* list = response.find("cells"); list != nullptr) {
    for (const Value& c : list->as_array()) {
      cells.emplace_back(c.find("capacity_bytes")->as_number(), c.find("hit_rate")->as_number());
    }
  } else if (const Value* w = response.find("capacity_whatif"); w != nullptr) {
    cells.emplace_back(w->find("capacity_bytes")->as_number(), w->find("hit_rate")->as_number());
  }
  return cells;
}

const Value* pass_stats(const Value& response) {
  if (const Value* w = response.find("capacity_whatif"); w != nullptr) return w->find("stats");
  return response.find("stats");
}

}  // namespace

Outcome run_serve_cold(const Options& options) {
  Outcome out;
  const std::vector<LoggedRequest> bases = cold_bases(options.seed);
  const std::string serve = options.bin_dir + "/knl-serve";
  const std::string log_path = options.work_dir + "/knl-serve.log";

  std::unique_ptr<Daemon> daemon;
  const std::vector<double> setup_s = measure_setups(kSetups, [&] {
    daemon.reset();  // the previous set-up's daemon stops untimed
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(serve, daemon_args(), log_path);
    HttpConnection conn(daemon->port());
    return warm(conn, bases, out) ? seconds_since(t0) : -1.0;
  });
  if (setup_s.empty()) return out;

  std::vector<std::unique_ptr<HttpConnection>> conns;
  for (int c = 0; c < kColdConnections; ++c) {
    conns.push_back(std::make_unique<HttpConnection>(daemon->port()));
  }
  std::vector<std::vector<std::pair<std::uint64_t, HttpResponse>>> answers(kColdConnections);
  const auto op = [&](int c, std::uint64_t index) {
    const ColdQuery q = cold_query(options.seed, bases, index);
    HttpResponse resp = conns[static_cast<std::size_t>(c)]->round_trip(q.request.http);
    const bool ok = resp.status == 200;
    answers[static_cast<std::size_t>(c)].emplace_back(index, std::move(resp));
    return ok;
  };

  SpanRecorder recorder(options.trace);
  double untraced_p50_s = 0.0;
  double peak_rss = 0.0;
  double hits_before = 0.0;
  double misses_before = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  LoopResult timed;
  if (!options.trace) {
    // The daemon's memory grows with every profile it caches, so its peak
    // is read at a fixed point, after the first round (18 profiles).
    timed = closed_loop(kColdConnections, kColdRound, 0.0, op, 0, 1);
    peak_rss = daemon->peak_rss_mb();
    const LoopResult rest = closed_loop(kColdConnections, kColdRound,
                                        options.seconds - timed.wall_s, op, timed.attempted);
    timed.append(rest);
  } else {
    const LoopResult untraced = closed_loop(1, kColdRound, options.seconds / 2, op);
    untraced_p50_s = median(untraced.latency_s);
    hits_before = stats_field(*conns.front(), "cache", "hits");
    misses_before = stats_field(*conns.front(), "cache", "misses");
    // Traced: each query over HTTP, then its layers in-process. A re-ask is
    // the hit path; a fresh query is split into synthesis, profile and
    // planner on a cold profile cache.
    const auto service = warmed_twin(bases);
    const std::uint64_t offset = untraced.attempted;
    const auto traced_op = [&](int c, std::uint64_t index) {
      const ColdQuery q = cold_query(options.seed, bases, index);
      {
        const Span span(recorder, q.reask ? "http.roundtrip" : "http.roundtrip_fresh", -1, index);
        if (!op(c, index)) return false;
      }
      if (q.reask) {
        if (index % kColdRound == kColdFresh) {
          // The fresh queries of this round cleared the profile cache.
          for (const LoggedRequest& base : bases) {
            (void)service->handle_text(base.http.method, base.http.target, base.http.body);
          }
        }
        return split_service_layers(recorder, *service, q.request.http, index);
      }
      const Value& body = q.request.body;
      const auto workload = knl::workloads::find_workload(body.find("workload")->as_string())
                                .make(static_cast<std::uint64_t>(body.find("bytes")->as_number()));
      const knl::trace::AccessProfile profile = workload->profile();
      const knl::Machine& machine = machine_named(body.find("machine")->as_string());
      const int threads = static_cast<int>(body.find("threads")->as_number());
      if (q.request.http.target == "/whatif") {
        const knl::RunConfig run{knl::MemConfig::CacheMode, threads, 0.0};
        (void)knl::report::cached_run(machine, profile, run);
        const Span span(recorder, "report.cache_lookup", -1, index);
        if (!knl::report::cached_lookup(machine, profile, run)) return false;
      }
      knl::report::CapacityGrid grid;
      grid.capacities_bytes = knl::report::default_capacity_axis(
          machine.memory_topology(), grid.line_bytes * grid.num_sets, 8);
      // The planner cold (synthesis + profile + cells), then warm (profile
      // cached: the planner's own work), then its two inner layers alone.
      knl::report::SweepCache::instance().clear();
      for (const char* name : {"report.capacity_sweep", "report.capacity_sweep_self"}) {
        const Span span(recorder, name, -1, index);
        (void)knl::report::sweep_capacities_run(machine, profile, threads, grid,
                                                knl::report::Figure("", "", ""));
      }
      std::vector<std::uint64_t> addrs;
      {
        const Span span(recorder, "trace.synth", -1, index);
        addrs = knl::trace::synthesize_trace(profile, grid.synth);
      }
      recorder.count("trace.addresses", static_cast<double>(addrs.size()));
      {
        const Span span(recorder, "sim.profile", -1, index);
        knl::sim::ReuseProfileConfig config;
        config.line_bytes = grid.line_bytes;
        config.num_sets = grid.num_sets;
        config.sample_every = grid.sample_every;
        (void)knl::sim::profile_trace(addrs.data(), addrs.size(), config, 1);
      }
      return true;
    };
    timed = closed_loop(1, kColdRound, options.seconds / 2, traced_op, offset);
    timed.attempted += untraced.attempted;
    timed.failed += untraced.failed;
    hits = stats_field(*conns.front(), "cache", "hits") - hits_before;
    misses = stats_field(*conns.front(), "cache", "misses") - misses_before;
  }
  conns.clear();
  if (daemon->stop() != 0) out.fail("knl-serve did not exit cleanly");
  out.attempted = timed.attempted;
  out.failed = timed.failed;

  // Properties of every answer; then the first answer of each kind (auto
  // sweep, explicit list, what-if, re-ask) against a direct, uncached
  // library call, and the first list and what-if against the naive LRU.
  double passes = 0.0;
  double profile_hits = 0.0;
  std::set<std::string> checked;  // kinds already re-derived
  std::vector<std::pair<std::uint64_t, const HttpResponse*>> all;
  for (const auto& a : answers) {
    for (const auto& [index, resp] : a) all.emplace_back(index, &resp);
  }
  std::sort(all.begin(), all.end());
  for (const auto& [index, resp] : all) {
    if (resp->status != 200) continue;
    const ColdQuery q = cold_query(options.seed, bases, index);
    const auto parsed = Value::parse(resp->body);
    const Value* stats = parsed ? pass_stats(*parsed) : nullptr;
    if (stats == nullptr) {
      out.fail("query " + std::to_string(index) + ": no stats in answer");
      continue;
    }
    passes += stats->find("profile_passes")->as_number();
    profile_hits += stats->find("profile_hits")->as_number();
    if (stats->find("profile_passes")->as_number() != (q.reask ? 0.0 : 1.0)) {
      out.fail("query " + std::to_string(index) + (q.reask ? ": re-ask profiled again" : ": fresh query hit a profile"));
    }
    const auto cells = hit_cells(*parsed);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!(cells[i].second >= 0.0 && cells[i].second <= 1.0)) out.fail("hit rate outside [0, 1]");
      if (i > 0 && cells[i].second < cells[i - 1].second) out.fail("hit rate fell as capacity grew");
    }
    const Value* listed = q.request.body.find("capacities_bytes");
    const std::string kind = q.reask                               ? "reask"
                             : q.request.http.target == "/whatif" ? "whatif"
                             : listed->is_array()                 ? "list"
                                                                  : "auto";
    if (!checked.insert(kind).second) continue;
    const std::string diff =
        check_capacity_answer(q.request.http.target, q.request.body, *parsed);
    if (!diff.empty()) out.fail("query " + std::to_string(index) + " (" + kind + "): " + diff);
    if (kind != "list" && kind != "whatif") continue;
    const auto workload =
        knl::workloads::find_workload(q.request.body.find("workload")->as_string())
            .make(static_cast<std::uint64_t>(q.request.body.find("bytes")->as_number()));
    const std::vector<std::uint64_t> trace =
        knl::trace::synthesize_trace(workload->profile(), knl::trace::SynthOptions{});
    for (const auto& [capacity, hit_rate] : cells) {
      const double expected =
          naive_hit_rate(trace, 64, 1ull << 15, static_cast<std::uint64_t>(capacity));
      if (expected != hit_rate) {
        out.fail("hit rate " + std::to_string(hit_rate) + " at " + std::to_string(capacity) +
                 " B; naive LRU gives " + std::to_string(expected));
      }
    }
  }
  if (checked.size() != 4) out.fail("run too short to check every kind of answer");

  if (!options.trace) {
    set_end_to_end(out, setup_s, timed, peak_rss, kColdRound);
    return out;
  }
  out.metrics = per_layer_metrics();
  set_service_layers(out, recorder);
  out.set("report.cache_lookup_us", median(recorder.durations_us("report.cache_lookup")));
  out.set("report.cache_hits", hits);
  out.set("report.cache_misses", misses);
  out.set("report.capacity_sweep_ms", median(recorder.durations_us("report.capacity_sweep")) / 1e3);
  out.set("report.capacity_sweep_self_ms",
          median(recorder.durations_us("report.capacity_sweep_self")) / 1e3);
  out.set("report.profile_passes", passes);
  out.set("report.profile_hits", profile_hits);
  out.set("trace.synth_ms", median(recorder.durations_us("trace.synth")) / 1e3);
  out.set("trace.addresses", median(recorder.counts("trace.addresses")));
  out.set("sim.profile_ms", median(recorder.durations_us("sim.profile")) / 1e3);
  std::vector<double> all_us = recorder.durations_us("http.roundtrip");
  for (const double us : recorder.durations_us("http.roundtrip_fresh")) all_us.push_back(us);
  out.set("trace.overhead_pct", (median(all_us) / (untraced_p50_s * 1e6) - 1.0) * 100.0);
  if (!recorder.write_jsonl(options.work_dir + "/spans.jsonl")) out.fail("cannot write spans");
  return out;
}

}  // namespace perfbench
