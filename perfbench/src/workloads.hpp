// The three workloads and the pieces of them the benchmark's tests drive
// directly. Each workload runs its job untraced through the library's own
// entry points (silvervale::divergenceMatrix, metrics::topKDivergence,
// db::indexBatch, ...) for the end-to-end metrics; a traced run repeats the
// job once more through the layers' public functions, one span per call,
// and checks that both give the same outputs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "silvervale/silvervale.hpp"
#include "tree/tedengine.hpp"

namespace perfbench {

[[nodiscard]] Outcome runStudy(const RunConfig &config);
[[nodiscard]] Outcome runQuery(const RunConfig &config);
[[nodiscard]] Outcome runIngest(const RunConfig &config);

/// Close a traced run: collect the spans, write them to config.traceOut as
/// Chrome trace-event JSON, read the file back and validate it (problems
/// count as failed checks), and turn spans plus the TED engine's stat
/// deltas into per-layer metrics. `values` holds the metrics the workload
/// measured itself (runtime.*, db.svdb_bytes, ...). Every traced run reports
/// every per-layer metric; one the workload's layers never produce reads 0.
/// `overhead` is traced wall time over untraced wall time, minus one.
[[nodiscard]] std::vector<Measure> finishTraced(const RunConfig &config,
                                               std::map<std::string, double> values,
                                               const sv::tree::EngineStats &before,
                                               const sv::tree::EngineStats &after,
                                               double overhead, Checks &checks);

// ---- study ------------------------------------------------------------------

/// One paper deck over `apps` (in this order; callers clear the TED engine
/// first for a cold start): index with coverage, the SLOC/LLOC difference
/// and five divergence matrices, their clusterings, navigation points and
/// the Φ cascade. Returns a digest per output ("app/Tsem",
/// "app/Tsem/cluster", "app/nav", "app/cascade").
/// Traced, each divergence matrix is rebuilt pair by pair through
/// metrics::matchUnits and tree::tedDispatch. `keep` receives the apps.
[[nodiscard]] std::map<std::string, std::string>
studyDeck(const std::vector<std::string> &apps, usize threads, bool traced,
          std::vector<sv::silvervale::IndexedApp> *keep = nullptr);

/// metrics::diverge rebuilt from its public parts (matchUnits, metricTree,
/// tedDispatch, text::diffDistance), with a span per unit-pair evaluation.
[[nodiscard]] sv::metrics::Divergence tracedDiverge(const sv::db::CodebaseDb &c1,
                                                    const sv::db::CodebaseDb &c2,
                                                    sv::metrics::Metric metric, u64 op);

// ---- query --------------------------------------------------------------------

struct QuerySpec {
  usize port = 0;
  sv::metrics::Metric metric = sv::metrics::Metric::Tsem;
  bool topK = true;  ///< topKDivergence (k = 5), else rangeDivergence
  u64 radius = 0;    ///< range queries: raw distance radius
};

/// Every (port, metric) pair over Tsrc/Tsem/Tir as a top-k query (k = 5).
[[nodiscard]] std::vector<QuerySpec> topKQueries(usize ports);

/// The range query paired with a top-k query: same port and metric, radius
/// = the distance of the top-k answer's k-th neighbour (the port itself is
/// the first). It returns every port at least that close, so at least k,
/// with one fixed cutoff from the first candidate where the top-k query
/// starts uncut and tightens as its answer fills.
[[nodiscard]] QuerySpec rangeQueryFor(const QuerySpec &topK,
                                      const std::vector<sv::metrics::Neighbor> &answer);

/// The seeded query stream: `cycles` passes over `set`, each in a fresh
/// seeded order, so seeds vary the order and the interleaving of the
/// clients, not the amount of work.
[[nodiscard]] std::vector<QuerySpec> queryStream(const std::vector<QuerySpec> &set, u64 seed,
                                                 usize cycles);

struct QueryAnswer {
  bool done = false;
  double latencyMs = 0;
  double finishedS = 0; ///< completion time since the session started
  std::vector<sv::metrics::Neighbor> neighbors;
  sv::metrics::QueryStats stats;
};

/// Closed-loop session: `threads` clients (pool workers) take the next query
/// of `stream` as soon as their previous one returns, sharing the global TED
/// engine, which the session never clears. With seconds > 0, the session
/// runs whole cycles (runs of `cycle` consecutive queries of the stream):
/// once the deadline has passed, no query of a later cycle than the one
/// under way starts (skipped ones keep done = false), so every run measures
/// complete copies of the query set whatever its seeded order. Traced, each
/// query is rebuilt from divergenceLowerBound / matchUnits / tedDispatch
/// with a span per call.
[[nodiscard]] std::vector<QueryAnswer>
querySession(const std::vector<const sv::db::CodebaseDb *> &corpus,
             const std::vector<QuerySpec> &stream, usize threads, double seconds, usize cycle,
             bool traced);

/// The server's warm-up, part of set-up: the top-k queries in a seeded
/// order, then the range queries derived from their answers
/// (rangeQueryFor). Fills the engine's views, memo and strategy caches and
/// returns the query set, top-k half first.
[[nodiscard]] std::vector<QuerySpec> warmUp(const std::vector<const sv::db::CodebaseDb *> &corpus,
                                            u64 seed, usize threads);

/// Brute-force reference for one query: metrics::diverge with no cutoff
/// against every candidate (on `threads` workers), ranked by (distance,
/// index).
[[nodiscard]] std::vector<sv::metrics::Neighbor>
bruteForceAnswer(const std::vector<const sv::db::CodebaseDb *> &corpus, const QuerySpec &q,
                 usize threads);

// ---- ingest -------------------------------------------------------------------

struct IngestOutputs {
  std::vector<std::vector<sv::u8>> svdb; ///< per port, serialised once
  usize lintErrors = 0;
  usize roundTripMismatches = 0; ///< ports whose re-serialised bytes differ
  u64 treeNodes = 0;             ///< nodes of the DBs' TED-compared trees
  u64 vmSteps = 0;               ///< passes with the layer replay: VM statements
};

/// One ingest pass: db::indexBatch of every codebase with coverage and lint,
/// then serialise, deserialise and serialise again per DB on the T workers.
/// With `layers` (and `checks`), the pass also replays every unit through the
/// layers' public functions (parse, lint tiers, tree builders, lowering,
/// signatures, VM), a span per call while tracing is enabled, and records
/// into `checks` whether those outputs equal the DB's.
[[nodiscard]] IngestOutputs ingestPass(const std::vector<sv::db::Codebase> &codebases,
                                       usize threads, bool layers, Checks *checks = nullptr);

/// Every registered corpus port, app by app, one task per port on
/// `threads` workers.
[[nodiscard]] std::vector<sv::db::Codebase> buildCorpus(usize threads);

/// Start the shared pool (sized by configureThreads) with a no-op
/// parallelFor; returns the seconds it took.
[[nodiscard]] double startPool(usize threads);

/// The set-up of `ingest`: start the shared pool, build the 46 codebases,
/// and warm the process with one db::indexBatch pass over them (coverage and
/// lint on) so the first timed pass finds the allocator and page tables as
/// the later ones do. The build and warm-up are done three times and
/// seconds() reports the median, keeping it steady from run to run.
struct SetUp {
  std::vector<sv::db::Codebase> corpus;
  double poolS = 0;   ///< shared pool start-up
  double corpusS = 0; ///< median corpus construction
  double warmUpS = 0; ///< median warm-up indexBatch
  double buildS = 0;  ///< median corpus construction + warm-up
  [[nodiscard]] double seconds() const { return poolS + buildS; }
};
[[nodiscard]] SetUp setUp(usize threads, Checks &checks);

} // namespace perfbench
