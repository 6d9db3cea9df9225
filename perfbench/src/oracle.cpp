#include "oracle.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "report/sweep.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

using knl::repro::json::Value;

NaiveLru::NaiveLru(std::uint64_t line_bytes, std::uint64_t num_sets, std::uint64_t ways)
    : line_bytes_(line_bytes), num_sets_(num_sets), ways_(ways), sets_(num_sets) {}

bool NaiveLru::access(std::uint64_t addr) {
  ++accesses;
  const std::uint64_t line = addr / line_bytes_;
  std::vector<std::uint64_t>& set = sets_[line % num_sets_];
  const std::uint64_t tag = line / num_sets_;
  const auto it = std::find(set.begin(), set.end(), tag);
  const bool hit = it != set.end();
  if (hit) {
    set.erase(it);
    ++hits;
  } else if (set.size() == ways_) {
    set.pop_back();
  }
  set.insert(set.begin(), tag);
  return hit;
}

CoreCounts naive_core_counts(const std::vector<std::uint64_t>& stream, const Geometry& l1,
                             const Geometry& l2, const Geometry& tlb) {
  NaiveLru l1_cache(l1.line_bytes, l1.num_sets, l1.ways);
  NaiveLru l2_cache(l2.line_bytes, l2.num_sets, l2.ways);
  NaiveLru tlb_cache(tlb.line_bytes, tlb.num_sets, tlb.ways);
  CoreCounts counts;
  for (const std::uint64_t addr : stream) {
    if (!tlb_cache.access(addr)) ++counts.tlb_misses;
    if (l1_cache.access(addr)) {
      ++counts.l1_hits;
    } else if (l2_cache.access(addr)) {
      ++counts.l2_hits;
    } else {
      ++counts.memory_accesses;
    }
  }
  return counts;
}

double naive_hit_rate(const std::vector<std::uint64_t>& trace, std::uint64_t line_bytes,
                      std::uint64_t num_sets, std::uint64_t capacity_bytes) {
  NaiveLru cache(line_bytes, num_sets, capacity_bytes / (line_bytes * num_sets));
  for (const std::uint64_t addr : trace) cache.access(addr);
  return cache.accesses == 0 ? 0.0
                             : static_cast<double>(cache.hits) /
                                   static_cast<double>(cache.accesses);
}

const knl::Machine& machine_named(const std::string& name) {
  static const std::map<std::string, knl::Machine> machines = [] {
    std::map<std::string, knl::Machine> m;
    m.emplace("knl7210", knl::Machine(knl::MachineConfig::knl7210()));
    m.emplace("xeonmax", knl::Machine(knl::MachineConfig::xeon_max()));
    m.emplace("knl_nvm", knl::Machine(knl::MachineConfig::knl_nvm()));
    return m;
  }();
  const auto it = machines.find(name);
  if (it == machines.end()) throw std::invalid_argument("unknown machine " + name);
  return it->second;
}

namespace {

/// Field-by-field comparison; records the first mismatch in `diff`.
class Comparison {
 public:
  void expect(const std::string& path, const Value& expected, const Value* actual) {
    if (!diff.empty()) return;
    if (actual == nullptr) {
      diff = path + ": missing";
    } else if (!(expected == *actual)) {
      diff = path + ": expected " + expected.dump(0) + ", got " + actual->dump(0);
    }
  }
  std::string diff;
};

}  // namespace

std::string check_capacity_answer(const std::string& target, const Value& request,
                                  const Value& response) {
  const knl::Machine& machine = machine_named(request.find("machine")->as_string());
  const auto workload =
      knl::workloads::find_workload(request.find("workload")->as_string())
          .make(static_cast<std::uint64_t>(request.find("bytes")->as_number()));
  knl::report::CapacityGrid grid;
  std::vector<const Value*> actual;
  if (target == "/whatif") {
    grid.capacities_bytes = {
        static_cast<std::uint64_t>(request.find("mcdram_capacity_bytes")->as_number())};
    if (const Value* w = response.find("capacity_whatif"); w != nullptr) actual.push_back(w);
  } else {
    const Value* listed = request.find("capacities_bytes");
    if (listed->is_array()) {
      for (const Value& v : listed->as_array()) {
        grid.capacities_bytes.push_back(static_cast<std::uint64_t>(v.as_number()));
      }
    } else {  // "auto": the service's default axis for the machine
      grid.capacities_bytes = knl::report::default_capacity_axis(
          machine.memory_topology(), grid.line_bytes * grid.num_sets, 8);
    }
    if (const Value* cells = response.find("cells"); cells != nullptr) {
      for (const Value& c : cells->as_array()) actual.push_back(&c);
    }
  }
  knl::report::SweepOptions options;
  options.memoize = false;
  const knl::report::CapacitySweepRun run = knl::report::sweep_capacities_run(
      machine, workload->profile(), static_cast<int>(request.find("threads")->as_number()),
      grid, knl::report::Figure("", "", ""), options);
  if (!run.failures.empty()) return "direct call failed: " + run.failures.front().message;
  if (actual.size() != run.cells.size()) {
    return "expected " + std::to_string(run.cells.size()) + " cells, got " +
           std::to_string(actual.size());
  }
  Comparison cmp;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const knl::report::CapacityCell& cell = run.cells[i];
    const std::string path = "cells[" + std::to_string(i) + "].";
    cmp.expect(path + "capacity_bytes", static_cast<double>(cell.capacity_bytes),
               actual[i]->find("capacity_bytes"));
    cmp.expect(path + "ways", static_cast<double>(cell.ways), actual[i]->find("ways"));
    cmp.expect(path + "hit_rate", cell.hit_rate, actual[i]->find("hit_rate"));
    cmp.expect(path + "effective_bw_gbs", cell.effective_bw_gbs,
               actual[i]->find("effective_bw_gbs"));
    cmp.expect(path + "avg_latency_ns", cell.avg_latency_ns,
               actual[i]->find("avg_latency_ns"));
    cmp.expect(path + "seconds", cell.seconds, actual[i]->find("seconds"));
  }
  return cmp.diff;
}

}  // namespace perfbench
