// Streaming-vs-barrier pipeline benchmark: the acceptance gates of the
// streaming task-graph runtime, over the hot drivers it rewired.
//
//   index    indexAllPorts barrier vs streaming wall time per thread
//            count (median of N >= 3 runs). Barrier replays the classic
//            pre-streaming schedule (port-granularity parallelFor, serial
//            stages inside each port); streaming flattens every port's
//            units into one frontend→trees→lower→sign work-stealing
//            stream. The gate FAILS when streaming is below --min-speedup
//            (default 1.2x) at any measured count >= 4 threads — enforced
//            only for counts the hardware can actually run (t <= hardware
//            threads): on fewer cores both arms degenerate to the same
//            serial execution and the ratio measures scheduler constant
//            overhead, not the schedule.
//   matrix   the 46-port Tsem portMatrix, barrier vs streaming (unit-pair
//            TED tasks + memo-replay finalisation), cold engine each run.
//   stats    the streaming arm's NodeStats (occupancy, steals, queue
//            depths) from the largest thread count go into the report —
//            the self-reported numbers the --pipeline-stats flag surfaces.
//   workers  every arm records the workers it actually ran: the drained
//            NodeStats worker count for streaming arms, the shared pool's
//            parallelFor cap for barrier arms. The bench exits non-zero
//            when an arm ran fewer workers than its thread count.
//
// Usage: pipeline_bench [--runs N] [--out FILE] [--quick]
//                       [--min-speedup X] [--threads-list a,b,c]
//   --quick lowers runs to 3 (CI budget). Thread counts default to
//   1,2,4,<hardware> (deduplicated, sorted).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "silvervale/silvervale.hpp"
#include "support/cliargs.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/pipeline.hpp"
#include "tree/tedengine.hpp"

using namespace sv;

namespace {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const usize n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Most workers any drained node (or child stage) ran with.
usize maxWorkers(const std::vector<NodeStats> &nodes) {
  usize w = 0;
  for (const auto &n : nodes) {
    w = std::max(w, n.workers);
    for (const auto &c : n.children) w = std::max(w, c.workers);
  }
  return w;
}

/// Workers a barrier arm's parallelFor can use at `threads`: it clamps to
/// the shared pool + 1.
usize barrierWorkers(usize threads) {
  return std::min(threads, sharedPool().threadCount() + 1);
}

/// One timed arm: median wall time and the fewest workers any run used.
struct ArmResult {
  double ms = 0;
  usize workers = 0;
};

usize totalSteals(const std::vector<NodeStats> &nodes) {
  usize s = 0;
  for (const auto &n : nodes) {
    s += n.steals;
    for (const auto &c : n.children) s += c.steals;
  }
  return s;
}

/// Median wall time of indexAllPorts under one schedule; keeps the drained
/// stats tree of the run with the most steals when `statsOut` is given
/// (steal counts vary run to run — record a run where stealing showed up).
ArmResult timeIndex(ExecMode mode, usize threads, usize runs, std::vector<NodeStats> *statsOut) {
  std::vector<double> ms;
  usize workers = ~usize{0};
  for (usize r = 0; r < runs; ++r) {
    (void)drainPipelineStats();
    silvervale::IndexAppOptions options;
    options.mode = mode;
    options.threads = threads;
    const double start = nowMs();
    const auto ports = silvervale::indexAllPorts(options);
    ms.push_back(nowMs() - start);
    volatile usize sink = 0;
    for (const auto &p : ports) sink = sink + p.db.units.size();
    (void)sink;
    // Barrier ports index serially inside a port-level parallelFor, so
    // their drained nodes report one worker each.
    auto drained = drainPipelineStats();
    workers = std::min(workers, mode == ExecMode::Barrier ? barrierWorkers(threads)
                                                          : maxWorkers(drained));
    if (statsOut && (r == 0 || totalSteals(drained) > totalSteals(*statsOut)))
      *statsOut = std::move(drained);
  }
  return {median(ms), workers};
}

/// Median cold-engine wall time of the Tsem portMatrix under one schedule
/// at the configured thread count.
ArmResult timeMatrix(const std::vector<silvervale::CorpusPort> &ports, ExecMode mode, usize threads,
                     usize runs, std::vector<NodeStats> *statsOut) {
  std::vector<double> ms;
  usize workers = ~usize{0};
  for (usize r = 0; r < runs; ++r) {
    (void)drainPipelineStats();
    tree::TedEngine::global().clear();
    const double start = nowMs();
    const auto m =
        silvervale::portMatrix(ports, metrics::Metric::Tsem, {}, {}, 0, nullptr, mode);
    ms.push_back(nowMs() - start);
    volatile double sink = 0;
    for (const double v : m.values) sink = sink + v;
    (void)sink;
    auto drained = drainPipelineStats();
    workers = std::min(workers, mode == ExecMode::Barrier ? barrierWorkers(threads)
                                                          : maxWorkers(drained));
    if (statsOut && (r == 0 || totalSteals(drained) > totalSteals(*statsOut)))
      *statsOut = std::move(drained);
  }
  return {median(ms), workers};
}

/// Flags an arm that ran fewer workers than its thread count.
bool shortOfWorkers(const char *what, const char *arm, const ArmResult &result, usize threads) {
  if (result.workers >= threads) return false;
  std::fprintf(stderr, "FAIL: %s %s arm ran %zu worker(s), asked for %zu\n", what, arm,
               result.workers, threads);
  return true;
}

json::Array statsToJson(const std::vector<NodeStats> &nodes) {
  json::Array arr;
  for (const auto &n : nodes) arr.emplace_back(n.toJson());
  return arr;
}

} // namespace

int main(int argc, char **argv) {
  usize runs = 5;
  std::string outFile = "BENCH_pipeline.json";
  bool quick = false;
  double minSpeedup = 1.2;
  std::vector<usize> threadCounts;
  try {
    const cli::FlagSpec spec{{"runs", "out", "min-speedup", "threads-list"}, {"quick"},
                             {{"-o", "out"}}};
    const auto args = cli::parseArgs(argc, argv, 1, spec);
    if (args.flags.count("runs")) runs = std::stoul(args.flags.at("runs"));
    if (args.flags.count("out")) outFile = args.flags.at("out");
    if (args.flags.count("min-speedup")) minSpeedup = std::stod(args.flags.at("min-speedup"));
    if (args.flags.count("threads-list")) {
      std::stringstream ss(args.flags.at("threads-list"));
      std::string item;
      while (std::getline(ss, item, ',')) threadCounts.push_back(std::stoul(item));
    }
    quick = args.flags.count("quick") != 0;
  } catch (const std::exception &e) {
    std::fprintf(stderr,
                 "usage: pipeline_bench [--runs N] [--out FILE] [--quick]\n"
                 "                      [--min-speedup X] [--threads-list a,b,c]\n%s\n",
                 e.what());
    return 2;
  }
  if (quick) runs = std::min<usize>(runs, 3);
  if (runs < 3) runs = 3;
  if (threadCounts.empty()) {
    const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
    threadCounts = {1, 2, 4, hw};
  }
  std::sort(threadCounts.begin(), threadCounts.end());
  threadCounts.erase(std::unique(threadCounts.begin(), threadCounts.end()), threadCounts.end());

  // The shared pool is sized once, by the thread count configured when it
  // is first used, and every later parallel call clamps to it. Size it for
  // the largest arm before any arm runs.
  configureThreads(threadCounts.back());
  (void)sharedPool();

  const usize hw = std::max<usize>(1, std::thread::hardware_concurrency());
  json::Object report;
  report.emplace("runs", json::Value(runs));
  report.emplace("hardware_threads", json::Value(hw));
  report.emplace("min_speedup", json::Value(minSpeedup));
  bool failed = false;
  bool anyGated = false;
  bool shortWorkers = false;

  // ---- indexAllPorts: barrier vs streaming per thread count -------------
  json::Array indexRows;
  std::vector<NodeStats> indexStats;
  for (const usize t : threadCounts) {
    // The pool cap bounds both arms identically (parallelFor and the
    // stream runtime clamp to the shared pool +1), so the comparison is
    // schedule-vs-schedule, not worker-count-vs-worker-count.
    configureThreads(t);
    const ArmResult barrier = timeIndex(ExecMode::Barrier, t, runs, nullptr);
    const bool keepStats = t == threadCounts.back();
    const ArmResult streaming =
        timeIndex(ExecMode::Streaming, t, runs, keepStats ? &indexStats : nullptr);
    const double barrierMs = barrier.ms, streamingMs = streaming.ms;
    const double speedup = streamingMs > 0 ? barrierMs / streamingMs : 0;
    const bool gated = t >= 4 && t <= hw;
    anyGated = anyGated || gated;
    std::printf("index: threads=%zu barrier %.1f ms, streaming %.1f ms, speedup %.2fx%s\n", t,
                barrierMs, streamingMs, speedup, gated ? " [gated]" : "");
    json::Object row;
    row.emplace("threads", json::Value(t));
    row.emplace("barrier_ms", json::Value(barrierMs));
    row.emplace("streaming_ms", json::Value(streamingMs));
    row.emplace("barrier_workers", json::Value(barrier.workers));
    row.emplace("streaming_workers", json::Value(streaming.workers));
    row.emplace("speedup", json::Value(speedup));
    row.emplace("gated", json::Value(gated));
    indexRows.emplace_back(std::move(row));
    shortWorkers = shortOfWorkers("index", "barrier", barrier, t) || shortWorkers;
    shortWorkers = shortOfWorkers("index", "streaming", streaming, t) || shortWorkers;
    if (gated && speedup < minSpeedup) {
      std::fprintf(stderr, "FAIL: index speedup %.2fx below the %.2fx floor at %zu threads\n",
                   speedup, minSpeedup, t);
      failed = true;
    }
  }
  if (!anyGated)
    std::printf("gate: skipped — no measured count >= 4 threads fits the %zu hardware "
                "thread(s); run on a multicore host to enforce the %.2fx floor\n",
                hw, minSpeedup);
  report.emplace("gate",
                 json::Value(std::string(failed      ? "failed"
                                         : anyGated ? "passed"
                                                    : "skipped: fewer than 4 hardware threads")));
  report.emplace("index", json::Value(std::move(indexRows)));
  report.emplace("index_streaming_stats", json::Value(statsToJson(indexStats)));

  // ---- portMatrix: barrier vs streaming at the largest count ------------
  const usize tMax = threadCounts.back();
  configureThreads(tMax);
  silvervale::IndexAppOptions idxOpts;
  idxOpts.threads = tMax;
  const auto ports = silvervale::indexAllPorts(idxOpts);
  (void)drainPipelineStats();
  std::vector<NodeStats> matrixStats;
  const ArmResult matrixBarrier = timeMatrix(ports, ExecMode::Barrier, tMax, runs, nullptr);
  const ArmResult matrixStreaming =
      timeMatrix(ports, ExecMode::Streaming, tMax, runs, &matrixStats);
  shortWorkers = shortOfWorkers("matrix", "barrier", matrixBarrier, tMax) || shortWorkers;
  shortWorkers = shortOfWorkers("matrix", "streaming", matrixStreaming, tMax) || shortWorkers;
  const double matrixBarrierMs = matrixBarrier.ms, matrixStreamingMs = matrixStreaming.ms;
  const double matrixSpeedup = matrixStreamingMs > 0 ? matrixBarrierMs / matrixStreamingMs : 0;
  std::printf("matrix: threads=%zu barrier %.1f ms, streaming %.1f ms, speedup %.2fx\n", tMax,
              matrixBarrierMs, matrixStreamingMs, matrixSpeedup);
  json::Object matrix;
  matrix.emplace("threads", json::Value(tMax));
  matrix.emplace("ports", json::Value(ports.size()));
  matrix.emplace("barrier_ms", json::Value(matrixBarrierMs));
  matrix.emplace("streaming_ms", json::Value(matrixStreamingMs));
  matrix.emplace("barrier_workers", json::Value(matrixBarrier.workers));
  matrix.emplace("streaming_workers", json::Value(matrixStreaming.workers));
  matrix.emplace("speedup", json::Value(matrixSpeedup));
  matrix.emplace("streaming_stats", json::Value(statsToJson(matrixStats)));
  report.emplace("matrix", json::Value(std::move(matrix)));

  std::printf("stats: %zu streaming node(s) reported, %zu steal(s) at %zu threads\n",
              indexStats.size(), totalSteals(indexStats), tMax);

  std::ofstream out(outFile);
  out << json::write(json::Value(std::move(report)), 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", outFile.c_str());
    return 1;
  }
  std::printf("wrote %s\n", outFile.c_str());
  return failed || shortWorkers ? 1 : 0;
}
