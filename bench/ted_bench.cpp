// TED engine microbenchmark: times silvervale::divergenceMatrix for
// Tsrc/Tsem/Tir on TeaLeaf and CloverLeaf with the Apted shared-view
// engine on vs. off, plus the uncached path_strategy oracle for reference
// (the engine caches Apted only, so PathStrategy has no engine-on arm), and
// writes BENCH_ted.json (median of N >= 3 runs per configuration) so
// future PRs have a perf trajectory to compare against. The engine cache
// is cleared before every engine-on run, so the reported speedup is the
// cold, single-matrix win (view reuse across pairs, the symmetric pair
// memo, fingerprint short-circuits, cached strategy matrices) — not
// warm-cache replay. Each apted engine-on cell also records the
// strategy-choice histogram (single-path kernels and forest-DP cells per
// PathKind) from the EngineStats counters.
//
// A filter_and_refine section (always included, --quick too: it is the CI
// regression cell) compares the exact all-ports divergence matrix against
// the radius-capped filter-and-refine path and records the filter
// counters; --min-filter-rate F fails the run when the fraction of pairs
// settled without a full DP drops below F.
//
// Usage: ted_bench [--runs N] [--out FILE] [--threads N] [--quick]
//                  [--min-filter-rate F]
//   --quick restricts to TeaLeaf/Tsem (the acceptance-criteria cell).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "silvervale/silvervale.hpp"
#include "support/cliargs.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "tree/tedengine.hpp"

using namespace sv;

namespace {

double timeMatrixMs(const silvervale::IndexedApp &app, metrics::Metric metric,
                    const tree::TedOptions &ted) {
  if (ted.useCache) tree::TedEngine::global().clear(); // cold-cache measurement
  const auto start = std::chrono::steady_clock::now();
  const auto m = silvervale::divergenceMatrix(app, metric, {}, ted);
  const auto stop = std::chrono::steady_clock::now();
  // Consume the matrix so the compiler cannot elide the computation.
  volatile double sink = 0;
  for (const double v : m.values) sink = sink + v;
  (void)sink;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median matrix time over `runs` repetitions.
double medianMatrixMs(const silvervale::IndexedApp &app, metrics::Metric metric,
                      const tree::TedOptions &ted, usize runs) {
  std::vector<double> ms;
  for (usize r = 0; r < runs; ++r) ms.push_back(timeMatrixMs(app, metric, ted));
  return median(ms);
}

constexpr const char *kKindNames[4] = {"leftA", "rightA", "leftB", "rightB"};

/// Strategy histogram of the engine's last (cold) apted run: which path
/// kinds the strategy DP picked and how much forest-DP work each executed.
json::Object strategyHistogram(const tree::EngineStats &s) {
  json::Object kernels, cells;
  for (usize k = 0; k < 4; ++k) {
    kernels.emplace(kKindNames[k], json::Value(s.spfKernels[k]));
    cells.emplace(kKindNames[k], json::Value(s.spfSubproblems[k]));
  }
  json::Object h;
  h.emplace("kernels", json::Value(std::move(kernels)));
  h.emplace("subproblems", json::Value(std::move(cells)));
  h.emplace("strategy_misses", json::Value(s.strategyMisses));
  h.emplace("strategy_hits", json::Value(s.strategyHits));
  h.emplace("subtree_block_hits", json::Value(s.subtreeBlockHits));
  return h;
}

} // namespace

int main(int argc, char **argv) {
  usize runs = 3;
  std::string outFile = "BENCH_ted.json";
  bool quick = false;
  double minFilterRate = 0.0;
  try {
    const cli::FlagSpec spec{{"runs", "out", "threads", "min-filter-rate"}, {"quick"},
                             {{"-o", "out"}}};
    const auto args = cli::parseArgs(argc, argv, 1, spec);
    if (args.flags.count("runs")) runs = std::stoul(args.flags.at("runs"));
    if (args.flags.count("out")) outFile = args.flags.at("out");
    if (args.flags.count("threads")) configureThreads(std::stoul(args.flags.at("threads")));
    if (args.flags.count("min-filter-rate"))
      minFilterRate = std::stod(args.flags.at("min-filter-rate"));
    quick = args.flags.count("quick") != 0;
  } catch (const std::exception &e) {
    std::fprintf(stderr,
                 "usage: ted_bench [--runs N] [--out FILE] [--threads N] [--quick]\n"
                 "                 [--min-filter-rate F]\n%s\n",
                 e.what());
    return 2;
  }
  if (runs < 3) runs = 3; // median of >= 3 by contract

  const std::vector<std::string> appNames =
      quick ? std::vector<std::string>{"tealeaf"} : std::vector<std::string>{"tealeaf", "cloverleaf"};
  const std::vector<std::pair<metrics::Metric, const char *>> allMetrics = {
      {metrics::Metric::Tsrc, "Tsrc"}, {metrics::Metric::Tsem, "Tsem"},
      {metrics::Metric::Tir, "Tir"}};
  const auto metricSpecs =
      quick ? std::vector<std::pair<metrics::Metric, const char *>>{{metrics::Metric::Tsem, "Tsem"}}
            : allMetrics;

  json::Object report;
  report.emplace("runs", json::Value(runs));
  json::Object apps;

  for (const auto &appName : appNames) {
    std::printf("indexing %s...\n", appName.c_str());
    const auto app = silvervale::indexApp(appName);
    json::Object perMetric;
    for (const auto &[metric, name] : metricSpecs) {
      tree::TedOptions psOff;
      psOff.algo = tree::TedAlgo::PathStrategy;
      psOff.useCache = false;
      tree::TedOptions apOff;
      apOff.useCache = false;
      const double psOffMs = medianMatrixMs(app, metric, psOff, runs);
      const double apOffMs = medianMatrixMs(app, metric, apOff, runs);
      const double apOnMs = medianMatrixMs(app, metric, tree::TedOptions{}, runs);
      json::Object ps;
      ps.emplace("engine_off_ms", json::Value(psOffMs));
      json::Object apted;
      apted.emplace("engine_off_ms", json::Value(apOffMs));
      apted.emplace("engine_on_ms", json::Value(apOnMs));
      apted.emplace("speedup", json::Value(apOnMs > 0 ? apOffMs / apOnMs : 0));
      apted.emplace("strategy_histogram",
                    json::Value(strategyHistogram(tree::TedEngine::global().stats())));
      json::Object cell;
      cell.emplace("path_strategy", json::Value(std::move(ps)));
      cell.emplace("apted", json::Value(std::move(apted)));
      std::printf("  %-12s %-5s ps off: %9.1f ms   apted off: %9.1f ms   apted on: %9.1f ms\n",
                  appName.c_str(), name, psOffMs, apOffMs, apOnMs);
      perMetric.emplace(name, json::Value(std::move(cell)));
    }
    apps.emplace(appName, json::Value(std::move(perMetric)));
  }
  report.emplace("apps", json::Value(std::move(apps)));

  // ---- filter-and-refine regression cell ------------------------------
  // Exact all-ports matrix vs the radius-capped filter path. The tight
  // radius keeps only near-ports (serial vs omp and the like) exact;
  // everything else is settled by the signature bounds or abandoned
  // mid-DP — the filter rate this cell reports is what CI pins.
  std::printf("indexing all ports for the filter-and-refine cell...\n");
  const auto ports = silvervale::indexAllPorts();
  constexpr double kRadius = 0.05;
  metrics::QueryStats fStats;
  std::vector<double> exactMs, filteredMs;
  for (usize r = 0; r < runs; ++r) {
    tree::TedEngine::global().clear();
    auto start = std::chrono::steady_clock::now();
    const auto me = silvervale::portMatrix(ports, metrics::Metric::Tsem);
    exactMs.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    tree::TedEngine::global().clear();
    metrics::QueryStats stats;
    start = std::chrono::steady_clock::now();
    const auto mf = silvervale::portMatrix(ports, metrics::Metric::Tsem, {}, {}, kRadius, &stats);
    filteredMs.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    volatile double sink = 0;
    for (const double v : me.values) sink = sink + v;
    for (const double v : mf.values) sink = sink + v;
    (void)sink;
    fStats = stats;
  }
  const double exactMed = median(exactMs);
  const double filteredMed = median(filteredMs);
  std::printf("filter-and-refine: exact %.1f ms, filtered %.1f ms (radius %.2f), "
              "speedup %.2fx, filter rate %.2f\n",
              exactMed, filteredMed, kRadius, filteredMed > 0 ? exactMed / filteredMed : 0,
              fStats.filterRate());
  json::Object far;
  far.emplace("ports", json::Value(ports.size()));
  far.emplace("radius", json::Value(kRadius));
  far.emplace("exact_ms", json::Value(exactMed));
  far.emplace("filtered_ms", json::Value(filteredMed));
  far.emplace("speedup", json::Value(filteredMed > 0 ? exactMed / filteredMed : 0));
  far.emplace("candidates", json::Value(fStats.candidates));
  far.emplace("pruned_by_bound", json::Value(fStats.prunedByBound));
  far.emplace("pruned_by_cutoff", json::Value(fStats.prunedByCutoff));
  far.emplace("exact", json::Value(fStats.exact));
  far.emplace("filter_rate", json::Value(fStats.filterRate()));
  report.emplace("filter_and_refine", json::Value(std::move(far)));

  const auto stats = tree::TedEngine::global().stats();
  json::Object engine;
  engine.emplace("view_hits", json::Value(stats.viewHits));
  engine.emplace("view_misses", json::Value(stats.viewMisses));
  engine.emplace("memo_hits", json::Value(stats.memoHits));
  engine.emplace("memo_misses", json::Value(stats.memoMisses));
  engine.emplace("whole_tree_shortcuts", json::Value(stats.wholeTreeShortcuts));
  engine.emplace("strategy_hits", json::Value(stats.strategyHits));
  engine.emplace("strategy_misses", json::Value(stats.strategyMisses));
  engine.emplace("subtree_block_hits", json::Value(stats.subtreeBlockHits));
  report.emplace("engine_stats_last_run", json::Value(std::move(engine)));

  std::ofstream out(outFile);
  out << json::write(json::Value(std::move(report)), 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outFile.c_str());
    return 1;
  }
  std::printf("wrote %s\n", outFile.c_str());
  if (fStats.filterRate() < minFilterRate) {
    std::fprintf(stderr, "FAIL: filter rate %.2f below the %.2f floor\n", fStats.filterRate(),
                 minFilterRate);
    return 1;
  }
  return 0;
}
