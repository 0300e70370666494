// Per-layer metrics of a traced run: span aggregates by layer, the TED
// engine's stat deltas, and the trace file written and validated.
#include <fstream>
#include <iterator>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"runtime.workers", "count"},
      {"runtime.occupancy", "ratio"},
      {"runtime.steals", "count"},
      {"db.index_ms", "ms"},
      {"db.serialise_ms", "ms"},
      {"db.deserialise_ms", "ms"},
      {"db.svdb_bytes", "bytes"},
      {"frontend.busy_ms", "ms"},
      {"frontend.units", "count"},
      {"trees.busy_ms", "ms"},
      {"trees.nodes", "count"},
      {"lower.busy_ms", "ms"},
      {"vm.busy_ms", "ms"},
      {"vm.steps", "count"},
      {"lint.ast_ms", "ms"},
      {"lint.ir_ms", "ms"},
      {"lint.deps_ms", "ms"},
      {"lint.range_ms", "ms"},
      {"lint.errors", "count"},
      {"deps.provably_parallel", "count"},
      {"sign.busy_ms", "ms"},
      {"bounds.busy_ms", "ms"},
      {"ted.busy_ms", "ms"},
      {"ted.self_share", "ratio"},
      {"ted.pairs", "count"},
      {"ted.max_pair_ms", "ms"},
      {"ted.dp_cells", "count"},
      {"ted.kernels", "count"},
      {"ted.cells_per_us", "1/us"},
      {"ted.memo_hit_rate", "ratio"},
      {"ted.view_hit_rate", "ratio"},
      {"ted.strategy_hit_rate", "ratio"},
      {"ted.subtree_block_hits", "count"},
      {"ted.keyroot_block_hits", "count"},
      {"ted.whole_tree_shortcuts", "count"},
      {"query.filter_rate", "ratio"},
      {"query.topk_filter_rate", "ratio"},
      {"query.range_filter_rate", "ratio"},
      {"query.pruned_by_bound", "count"},
      {"query.pruned_by_cutoff", "count"},
      {"query.exact", "count"},
      {"diverge.self_ms", "ms"},
      {"text.busy_ms", "ms"},
      {"cluster.busy_ms", "ms"},
      {"perf.busy_ms", "ms"},
      {"trace.overhead", "ratio"},
      {"trace.spans", "count"},
  };
  return names;
}

double rate(u64 hits, u64 misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

} // namespace

std::vector<Measure> finishTraced(const RunConfig &config, std::map<std::string, double> values,
                                 const sv::tree::EngineStats &before,
                                 const sv::tree::EngineStats &after, double overhead,
                                 Checks &checks) {
  const auto spans = trace::collect();
  const auto json = trace::toChromeJson(spans);
  {
    std::ofstream out(config.traceOut, std::ios::binary);
    out << json;
    checks.expect(static_cast<bool>(out), "trace: cannot write " + config.traceOut);
  }
  std::ifstream in(config.traceOut, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  usize events = 0;
  const auto problems = trace::validateChromeJson(back, &events);
  checks.expect(problems.empty(), problems.empty() ? "" : "trace: " + problems.front());
  checks.expect(events == spans.size(), "trace: read back a different number of spans");

  const auto by = trace::summarise(spans);
  const auto total = [&](const char *name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second.totalMs;
  };
  const auto calls = [&](const char *name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  values["db.index_ms"] = total("db.index");
  values["db.serialise_ms"] = total("db.serialise");
  values["db.deserialise_ms"] = total("db.deserialise");
  values["frontend.busy_ms"] = total("frontend");
  values["frontend.units"] = calls("frontend");
  values["trees.busy_ms"] = total("trees");
  values["lower.busy_ms"] = total("lower");
  values["vm.busy_ms"] = total("vm");
  values["lint.ast_ms"] = total("lint.ast");
  values["lint.ir_ms"] = total("lint.ir");
  values["lint.deps_ms"] = total("lint.deps");
  values["lint.range_ms"] = total("lint.range");
  values["sign.busy_ms"] = total("sign");
  values["bounds.busy_ms"] = total("bounds");
  values["text.busy_ms"] = total("text");
  values["cluster.busy_ms"] = total("cluster");
  values["perf.busy_ms"] = total("perf");
  if (const auto it = by.find("diverge"); it != by.end())
    values["diverge.self_ms"] = it->second.selfMs;

  // TED: the spans around tree::tedDispatch plus the engine's counters.
  double allSelf = 0;
  for (const auto &[name, s] : by) allSelf += s.selfMs;
  const double tedMs = total("ted");
  values["ted.busy_ms"] = tedMs;
  values["ted.self_share"] = allSelf > 0 ? tedMs / allSelf : 0;
  values["ted.pairs"] = calls("ted");
  if (const auto it = by.find("ted"); it != by.end()) values["ted.max_pair_ms"] = it->second.maxMs;
  u64 cells = 0, kernels = 0;
  for (int k = 0; k < 4; ++k) {
    cells += after.spfSubproblems[k] - before.spfSubproblems[k];
    kernels += after.spfKernels[k] - before.spfKernels[k];
  }
  values["ted.dp_cells"] = static_cast<double>(cells);
  values["ted.kernels"] = static_cast<double>(kernels);
  values["ted.cells_per_us"] = tedMs > 0 ? static_cast<double>(cells) / (tedMs * 1e3) : 0;
  values["ted.memo_hit_rate"] =
      rate(after.memoHits - before.memoHits, after.memoMisses - before.memoMisses);
  values["ted.view_hit_rate"] =
      rate(after.viewHits - before.viewHits, after.viewMisses - before.viewMisses);
  values["ted.strategy_hit_rate"] =
      rate(after.strategyHits - before.strategyHits, after.strategyMisses - before.strategyMisses);
  values["ted.subtree_block_hits"] =
      static_cast<double>(after.subtreeBlockHits - before.subtreeBlockHits);
  values["ted.keyroot_block_hits"] =
      static_cast<double>(after.keyrootBlockHits - before.keyrootBlockHits);
  values["ted.whole_tree_shortcuts"] =
      static_cast<double>(after.wholeTreeShortcuts - before.wholeTreeShortcuts);
  values["trace.overhead"] = overhead;
  values["trace.spans"] = static_cast<double>(spans.size());

  std::vector<Measure> out;
  for (const auto &[name, unit] : perLayerNames()) {
    const auto it = values.find(name);
    out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return out;
}

} // namespace perfbench
