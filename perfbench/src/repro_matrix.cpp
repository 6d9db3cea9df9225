// repro-matrix: fresh `knl-repro matrix` processes, the paper-reproduction
// path users run (14 experiments x 3 machine profiles, artifacts written,
// golden diff).
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/machine_profiles.hpp"
#include "proc.hpp"
#include "report/sweep.hpp"
#include "repro/experiment.hpp"
#include "repro/golden_diff.hpp"
#include "repro/json.hpp"
#include "repro/pipeline.hpp"
#include "workloads.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using knl::repro::json::Value;
namespace fs = std::filesystem;

constexpr int kSetups = 9;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// y of the point of `series` whose x is nearest `x` (artifact JSON form).
bool nearest_y(const Value& artifact, const std::string& series, double x, double& y) {
  for (const Value& s : artifact.find("series")->as_array()) {
    if (s.find("name")->as_string() != series) continue;
    double best = INFINITY;
    for (const Value& p : s.find("points")->as_array()) {
      const double dist = std::fabs(p.as_array()[0].as_number() - x);
      if (dist < best) {
        best = dist;
        y = p.as_array()[1].as_number();
      }
    }
    return best != INFINITY;
  }
  return false;
}

const Value* series_named(const Value& artifact, const std::string& name) {
  for (const Value& s : artifact.find("series")->as_array()) {
    if (s.find("name")->as_string() == name) return &s;
  }
  return nullptr;
}

/// Re-evaluate every paper shape check of the registry on the knl7210
/// artifacts with the benchmark's own arithmetic. Returns "" when all pass.
std::string check_paper_shapes(const std::string& dir) {
  using Kind = knl::repro::ShapeCheck::Kind;
  for (const knl::repro::ExperimentSpec& spec : knl::repro::experiments()) {
    if (spec.checks.empty()) continue;
    const auto artifact = Value::parse(read_text(dir + "/" + spec.id + ".json"));
    if (!artifact) return spec.id + ": artifact missing or not JSON";
    for (const knl::repro::ShapeCheck& check : spec.checks) {
      bool passed = false;
      if (check.kind == Kind::RatioAtLeast || check.kind == Kind::RatioAtMost) {
        double a = 0.0;
        double b = 0.0;
        if (nearest_y(*artifact, check.series_a, check.x, a) &&
            nearest_y(*artifact, check.series_b, check.x, b) && b != 0.0) {
          passed = check.kind == Kind::RatioAtLeast ? a / b >= check.threshold
                                                    : a / b <= check.threshold;
        }
      } else {
        const Value* s = series_named(*artifact, check.series_a);
        const std::size_t n = s == nullptr ? 0 : s->find("points")->as_array().size();
        if (check.kind == Kind::PointCountAtMost) {
          passed = static_cast<double>(n) <= check.threshold;
        } else if (n > 0) {
          const auto& points = s->find("points")->as_array();
          const double first = points.front().as_array()[1].as_number();
          const double growth = points.back().as_array()[1].as_number() / first;
          passed = check.kind == Kind::GrowthAtLeast ? growth >= check.threshold
                                                     : growth <= check.threshold;
        }
      }
      if (!passed) return spec.id + ": shape check failed: " + check.description;
    }
  }
  return "";
}

}  // namespace

Outcome run_repro_matrix(const Options& options) {
  Outcome out;
  const std::string repro = options.bin_dir + "/knl-repro";
  const std::string out_dir = options.work_dir + "/matrix";
  const std::string log_path = options.work_dir + "/knl-repro.log";
  const std::vector<std::string> matrix = {repro, "matrix", "--out", out_dir};

  const auto run_matrix = [&](const std::vector<std::string>& argv) {
    const ProcessResult r = run_process(argv, log_path);
    const std::string log = read_text(log_path);
    const bool ok = r.exit_code == 0 &&
                    log.find("conformance matrix: PASS (3 profiles)") != std::string::npos;
    if (!ok) out.fail("knl-repro matrix exit " + std::to_string(r.exit_code) + ": " + log.substr(0, 400));
    return std::make_pair(ok, r);
  };

  // Set-up: a clean artifact directory and one matrix run outside the timed
  // phase, which pays the first-run costs (binary and golden files into the
  // page cache).
  const std::vector<double> setup_s = measure_setups(kSetups, [&] {
    const auto t0 = Clock::now();
    fs::remove_all(out_dir);
    return run_matrix(matrix).first ? seconds_since(t0) : -1.0;
  });
  if (setup_s.empty()) return out;

  std::vector<double> peak_rss;
  const auto op = [&](int, std::uint64_t) {
    const auto [ok, r] = run_matrix(matrix);
    peak_rss.push_back(r.peak_rss_mb);
    return ok;
  };

  SpanRecorder recorder(options.trace);
  const LoopResult timed = closed_loop(1, 1, options.trace ? options.seconds / 3 : options.seconds, op);
  out.attempted = timed.attempted;
  out.failed = timed.failed;
  const std::string shapes = check_paper_shapes(out_dir + "/knl7210");
  if (!shapes.empty()) out.fail(shapes);

  if (!options.trace) {
    set_end_to_end(out, setup_s, timed, median(peak_rss), 8);
    return out;
  }

  // Traced: the pool's effect (matrix at --jobs 1 vs the default), then the
  // matrix's layers in-process, one profile at a time on a cold cache.
  std::vector<std::string> serial = matrix;
  serial.insert(serial.end(), {"--jobs", "1"});
  const LoopResult one_job = closed_loop(1, 1, options.seconds / 3, [&](int, std::uint64_t) {
    return run_matrix(serial).first;
  });
  out.attempted += one_job.attempted;
  out.failed += one_job.failed;
  std::vector<const knl::repro::ExperimentSpec*> specs;
  for (const knl::repro::ExperimentSpec& spec : knl::repro::experiments()) specs.push_back(&spec);

  const auto in_process_matrix = [&](bool traced) {
    SpanRecorder quiet(false);
    SpanRecorder& rec = traced ? recorder : quiet;
    double cells = 0.0;
    const Span matrix_span(rec, "repro.matrix");
    for (const knl::MachineProfile& profile : knl::machine_profiles()) {
      knl::report::SweepCache::instance().clear();
      const knl::Machine machine(profile.make());
      const knl::repro::Pipeline pipeline(machine, knl::repro::PipelineOptions{});
      std::vector<knl::repro::ExperimentResult> results;
      for (const knl::repro::ExperimentSpec* spec : specs) {
        const Span span(rec, "repro.experiment", matrix_span.index());
        results.push_back(pipeline.run(*spec));
        cells += static_cast<double>(results.back().stats.cells);
      }
      std::string error;
      {
        const Span span(rec, "repro.write", matrix_span.index());
        if (!knl::repro::write_artifacts(results, machine,
                                         options.work_dir + "/inproc/" + profile.name, &error)) {
          out.fail("write_artifacts: " + error);
        }
      }
      const Span span(rec, "repro.diff", matrix_span.index());
      if (!knl::repro::diff_against_dir(profile.golden_dir, results, machine, true).clean()) {
        out.fail(profile.name + ": in-process matrix drifted from " + profile.golden_dir);
      }
    }
    return cells;
  };
  const auto t0 = Clock::now();
  (void)in_process_matrix(false);
  const double untraced_s = seconds_since(t0);
  const double cells = in_process_matrix(true);
  const std::vector<double> matrix_us = recorder.durations_us("repro.matrix");
  const std::vector<double> experiment_us = recorder.durations_us("repro.experiment");
  double experiment_total_us = 0.0;
  for (const double us : experiment_us) experiment_total_us += us;

  // Machine::run alone: every registry workload at 1 GiB, every config and
  // profile.
  for (const knl::MachineProfile& profile : knl::machine_profiles()) {
    const knl::Machine machine(profile.make());
    for (const auto& entry : knl::workloads::registry()) {
      const auto workload = entry.make(1ull << 30);
      const knl::trace::AccessProfile access = workload->profile();
      for (const knl::MemConfig config :
           {knl::MemConfig::DRAM, knl::MemConfig::HBM, knl::MemConfig::CacheMode}) {
        const Span span(recorder, "core.machine_run");
        (void)machine.run(access, knl::RunConfig{config, 64, 0.0});
      }
    }
  }

  out.metrics = per_layer_metrics();
  out.set("report.sweep_cells", cells);
  out.set("report.cell_us", cells > 0.0 ? experiment_total_us / cells : 0.0);
  out.set("core.machine_run_us", median(recorder.durations_us("core.machine_run")));
  out.set("core.jobs_speedup", median(one_job.latency_s) / median(timed.latency_s));
  out.set("repro.experiment_ms", median(experiment_us) / 1e3);
  out.set("repro.write_ms", median(recorder.durations_us("repro.write")) / 1e3);
  out.set("repro.diff_ms", median(recorder.durations_us("repro.diff")) / 1e3);
  out.set("trace.overhead_pct", (matrix_us.front() / (untraced_s * 1e6) - 1.0) * 100.0);
  if (!recorder.write_jsonl(options.work_dir + "/spans.jsonl")) out.fail("cannot write spans");
  return out;
}

}  // namespace perfbench
