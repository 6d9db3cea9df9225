// Independent checks the benchmark holds knlmem's outputs against.
//
// NaiveLru is a deliberately plain set-associative LRU (one vector of tags
// per set, most recent first) sharing no code with sim::CacheSim, TlbSim or
// the reuse-distance profiler, so agreement with it is evidence, not
// tautology. The service oracle recomputes an answer from a direct,
// uncached library call and compares it field by field.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "repro/json.hpp"

namespace perfbench {

class NaiveLru {
 public:
  NaiveLru(std::uint64_t line_bytes, std::uint64_t num_sets, std::uint64_t ways);
  /// True on a hit. Misses insert the line and evict the set's LRU tag.
  bool access(std::uint64_t addr);

  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;

 private:
  std::uint64_t line_bytes_;
  std::uint64_t num_sets_;
  std::uint64_t ways_;
  std::vector<std::vector<std::uint64_t>> sets_;
};

/// One replayed core's classification counts.
struct CoreCounts {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t memory_accesses = 0;
  std::uint64_t tlb_misses = 0;
};

struct Geometry {
  std::uint64_t line_bytes = 64;
  std::uint64_t num_sets = 1;
  std::uint64_t ways = 1;
};

/// TLB and L1 see every address; L2 sees the L1 misses in stream order.
[[nodiscard]] CoreCounts naive_core_counts(const std::vector<std::uint64_t>& stream,
                                           const Geometry& l1, const Geometry& l2,
                                           const Geometry& tlb);

/// Hit rate of an LRU cache of `capacity_bytes` over `trace`.
[[nodiscard]] double naive_hit_rate(const std::vector<std::uint64_t>& trace,
                                    std::uint64_t line_bytes, std::uint64_t num_sets,
                                    std::uint64_t capacity_bytes);

/// The machines the service registers under these names.
[[nodiscard]] const knl::Machine& machine_named(const std::string& name);

/// Compare a capacity answer of the service (/sweep with capacities_bytes,
/// /whatif with mcdram_capacity_bytes) with a direct, uncached
/// sweep_capacities_run on the same request, cell by cell and field by
/// field. Returns "" when every field matches, else the first difference.
[[nodiscard]] std::string check_capacity_answer(const std::string& target,
                                                const knl::repro::json::Value& request,
                                                const knl::repro::json::Value& response);

}  // namespace perfbench
