// Span recorder for the benchmark's traced mode.
//
// A span is one timed call into a layer of knlmem: its name, start and end
// (steady clock, nanoseconds from the recorder's epoch), the span that
// caused it and the request it belongs to. Spans are kept in memory and
// written out as JSON lines when the run ends; the per-layer metrics are
// computed from their durations.
//
// A disabled recorder makes Span a no-op, so the untraced run pays one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 = root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Open a span; returns its index (or -1 when disabled).
  std::int64_t open(const std::string& name, std::int64_t parent, std::uint64_t request);
  void close(std::int64_t index);

  /// Durations (microseconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Record a count observed at a layer boundary (e.g. addresses synthesized).
  void count(const std::string& name, double value) {
    if (enabled_) counts_[name].push_back(value);
  }
  [[nodiscard]] std::vector<double> counts(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? std::vector<double>{} : it->second;
  }

  /// Write every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

/// RAII span. Single-threaded use: the traced phases run on one thread.
class Span {
 public:
  Span(SpanRecorder& recorder, const std::string& name, std::int64_t parent = -1,
       std::uint64_t request = 0)
      : recorder_(recorder), index_(recorder.open(name, parent, request)) {}
  ~Span() { recorder_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
