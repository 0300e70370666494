// `query`: closed-loop similarity queries against a corpus loaded from
// .svdb bytes, sharing one TED engine that is never cleared mid-session.
#include <algorithm>
#include <atomic>

#include "support/parallel.hpp"
#include "trace.hpp"
#include "tree/tedbounds.hpp"
#include "workloads.hpp"

namespace perfbench {

using sv::metrics::FilterOutcome;
using sv::metrics::Metric;
using sv::metrics::Neighbor;
using sv::metrics::QueryStats;

namespace {

constexpr usize kTopK = 5;
constexpr usize kMinQueries = 100; // p90 needs >= 10 samples beyond it
constexpr Metric kQueryMetrics[] = {Metric::Tsrc, Metric::Tsem, Metric::Tir};

bool neighborLess(const Neighbor &a, const Neighbor &b) {
  return std::tie(a.distance, a.index) < std::tie(b.distance, b.index);
}

void count(QueryStats &stats, FilterOutcome outcome) {
  switch (outcome) {
  case FilterOutcome::Exact: ++stats.exact; break;
  case FilterOutcome::PrunedByBound: ++stats.prunedByBound; break;
  case FilterOutcome::PrunedByCutoff: ++stats.prunedByCutoff; break;
  }
}

/// metrics::divergeBounded rebuilt from its public parts, one span per
/// unit-pair TED.
sv::metrics::BoundedDivergence tracedBounded(const sv::db::CodebaseDb &c1,
                                             const sv::db::CodebaseDb &c2, Metric metric,
                                             u64 cutoff, u64 op) {
  trace::Span span("refine", op);
  if (cutoff == 0) return {tracedDiverge(c1, c2, metric, op), FilterOutcome::Exact};
  struct MatchedPair {
    const sv::db::UnitEntry *u1 = nullptr;
    const sv::db::UnitEntry *u2 = nullptr;
    u64 lb = 0;
  };
  sv::metrics::Divergence acc;
  std::vector<MatchedPair> pairs;
  u64 sumLb = 0;
  for (const auto &[u1, u2] : sv::metrics::matchUnits(c1, c2)) {
    if (!u1 || !u2) {
      const u64 n1 = u1 ? sv::metrics::metricSignature(*u1, metric).n : 0;
      const u64 n2 = u2 ? sv::metrics::metricSignature(*u2, metric).n : 0;
      acc.distance += n1 + n2;
      acc.dmaxEq7 += n2;
      acc.dmaxSym += n1 + n2;
      ++acc.unmatchedUnits;
      continue;
    }
    const auto &s1 = sv::metrics::metricSignature(*u1, metric);
    const auto &s2 = sv::metrics::metricSignature(*u2, metric);
    acc.dmaxEq7 += s2.n;
    acc.dmaxSym += s1.n + s2.n;
    ++acc.matchedUnits;
    const u64 lb = sv::tree::tedLowerBound(s1, s2, {});
    pairs.push_back({u1, u2, lb});
    sumLb += lb;
  }
  const auto pruned = [&](FilterOutcome outcome) {
    sv::metrics::BoundedDivergence out{acc, outcome};
    out.divergence.distance = cutoff;
    return out;
  };
  if (acc.distance + sumLb >= cutoff) return pruned(FilterOutcome::PrunedByBound);
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const MatchedPair &a, const MatchedPair &b) { return a.lb > b.lb; });
  u64 remaining = sumLb;
  for (const auto &p : pairs) {
    remaining -= p.lb;
    sv::tree::TedOptions opts;
    opts.cutoff = cutoff - acc.distance - remaining;
    const auto &t1 = sv::metrics::metricTree(*p.u1, metric);
    const auto &t2 = sv::metrics::metricTree(*p.u2, metric);
    {
      trace::Span tedSpan("ted", op);
      acc.distance += sv::tree::tedDispatch(t1, t2, opts);
    }
    if (acc.distance + remaining >= cutoff) return pruned(FilterOutcome::PrunedByCutoff);
  }
  return {acc, FilterOutcome::Exact};
}

u64 tracedLowerBound(const sv::db::CodebaseDb &q, const sv::db::CodebaseDb &c, Metric metric,
                     u64 op) {
  trace::Span span("bounds", op);
  return sv::metrics::divergenceLowerBound(q, c, metric);
}

/// metrics::topKDivergence rebuilt: candidates in lower-bound order, the
/// cutoff shrinking to the running k-th best + 1.
std::vector<Neighbor> tracedTopK(const std::vector<const sv::db::CodebaseDb *> &corpus,
                                 const QuerySpec &q, QueryStats &stats, u64 op) {
  const auto &query = *corpus[q.port];
  std::vector<std::pair<u64, usize>> order;
  for (usize i = 0; i < corpus.size(); ++i)
    order.push_back({tracedLowerBound(query, *corpus[i], q.metric, op), i});
  std::sort(order.begin(), order.end());
  std::vector<Neighbor> best; // max-heap by (distance, index)
  for (const auto &[lb, i] : order) {
    ++stats.candidates;
    const u64 cut = best.size() < kTopK ? 0 : best.front().distance + 1;
    if (cut > 0 && lb >= cut) {
      ++stats.prunedByBound;
      continue;
    }
    const auto bd = tracedBounded(query, *corpus[i], q.metric, cut, op);
    count(stats, bd.outcome);
    if (bd.outcome != FilterOutcome::Exact) continue;
    const Neighbor nb{i, bd.divergence.distance, bd.divergence.normalised()};
    if (best.size() < kTopK) {
      best.push_back(nb);
      std::push_heap(best.begin(), best.end(), neighborLess);
    } else if (neighborLess(nb, best.front())) {
      std::pop_heap(best.begin(), best.end(), neighborLess);
      best.back() = nb;
      std::push_heap(best.begin(), best.end(), neighborLess);
    }
  }
  std::sort(best.begin(), best.end(), neighborLess);
  return best;
}

/// metrics::rangeDivergence rebuilt.
std::vector<Neighbor> tracedRange(const std::vector<const sv::db::CodebaseDb *> &corpus,
                                  const QuerySpec &q, QueryStats &stats, u64 op) {
  const auto &query = *corpus[q.port];
  const u64 cut = q.radius + 1;
  std::vector<Neighbor> out;
  for (usize i = 0; i < corpus.size(); ++i) {
    ++stats.candidates;
    if (tracedLowerBound(query, *corpus[i], q.metric, op) >= cut) {
      ++stats.prunedByBound;
      continue;
    }
    const auto bd = tracedBounded(query, *corpus[i], q.metric, cut, op);
    count(stats, bd.outcome);
    if (bd.outcome != FilterOutcome::Exact) continue;
    out.push_back({i, bd.divergence.distance, bd.divergence.normalised()});
  }
  std::sort(out.begin(), out.end(), neighborLess);
  return out;
}

bool sameAnswer(const std::vector<Neighbor> &a, const std::vector<Neighbor> &b) {
  if (a.size() != b.size()) return false;
  for (usize i = 0; i < a.size(); ++i)
    if (a[i].index != b[i].index || a[i].distance != b[i].distance ||
        a[i].normalised != b[i].normalised)
      return false;
  return true;
}

/// Index every port, serialise and deserialise it: the corpus a query
/// server would load from .svdb files.
std::vector<sv::db::CodebaseDb> loadCorpus(usize threads, u64 *bytes) {
  std::vector<sv::silvervale::CorpusPort> ports;
  {
    trace::Span span("db.index");
    sv::silvervale::IndexAppOptions options;
    options.threads = threads;
    ports = sv::silvervale::indexAllPorts(options);
  }
  std::vector<sv::db::CodebaseDb> out;
  u64 total = 0;
  for (usize p = 0; p < ports.size(); ++p) {
    std::vector<sv::u8> svdb;
    {
      trace::Span span("db.serialise", p + 1);
      svdb = ports[p].db.serialise();
    }
    total += svdb.size();
    trace::Span span("db.deserialise", p + 1);
    out.push_back(sv::db::CodebaseDb::deserialise(svdb));
  }
  if (bytes) *bytes = total;
  return out;
}

std::vector<const sv::db::CodebaseDb *> pointers(const std::vector<sv::db::CodebaseDb> &dbs) {
  std::vector<const sv::db::CodebaseDb *> out;
  for (const auto &db : dbs) out.push_back(&db);
  return out;
}

} // namespace

std::vector<QuerySpec> topKQueries(usize ports) {
  std::vector<QuerySpec> out;
  for (usize p = 0; p < ports; ++p)
    for (const Metric metric : kQueryMetrics) out.push_back({p, metric, true, 0});
  return out;
}

QuerySpec rangeQueryFor(const QuerySpec &topK, const std::vector<Neighbor> &answer) {
  return {topK.port, topK.metric, false, answer.empty() ? 0 : answer.back().distance};
}

std::vector<QuerySpec> queryStream(const std::vector<QuerySpec> &set, u64 seed, usize cycles) {
  auto order = set;
  Rng rng(seed);
  std::vector<QuerySpec> out;
  for (usize c = 0; c < cycles; ++c) {
    rng.shuffle(order);
    out.insert(out.end(), order.begin(), order.end());
  }
  return out;
}

std::vector<QueryAnswer> querySession(const std::vector<const sv::db::CodebaseDb *> &corpus,
                                      const std::vector<QuerySpec> &stream, usize threads,
                                      double seconds, usize cycle, bool traced) {
  std::vector<QueryAnswer> answers(stream.size());
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::atomic<usize> stopAt{stream.size()};
  const auto start = Clock::now();
  const u64 parent = trace::current();
  sv::PipeOptions options;
  options.threads = threads;
  sv::TaskPool pool("query-clients");
  pool.run(
      stream.size(),
      [&](usize i) {
        if (seconds > 0 && Clock::now() >= deadline) {
          // Past the deadline: finish the cycle under way, start no later one.
          const usize end = (i + cycle - 1) / cycle * cycle;
          usize cur = stopAt.load();
          while (end < cur && !stopAt.compare_exchange_weak(cur, end)) {
          }
        }
        if (i >= stopAt.load()) return;
        const auto &q = stream[i];
        auto &a = answers[i];
        const auto t0 = Clock::now();
        if (traced) {
          trace::Adopt adopt(parent);
          trace::Span span("query", i + 1);
          a.neighbors = q.topK ? tracedTopK(corpus, q, a.stats, i + 1)
                               : tracedRange(corpus, q, a.stats, i + 1);
        } else if (q.topK) {
          a.neighbors = sv::metrics::topKDivergence(*corpus[q.port], corpus, kTopK, q.metric, {},
                                                    {}, {}, &a.stats);
        } else {
          a.neighbors = sv::metrics::rangeDivergence(*corpus[q.port], corpus, q.radius, q.metric,
                                                     {}, {}, {}, &a.stats);
        }
        a.latencyMs = secondsSince(t0) * 1e3;
        a.finishedS = secondsSince(start);
        a.done = true;
      },
      options);
  return answers;
}

std::vector<Neighbor> bruteForceAnswer(const std::vector<const sv::db::CodebaseDb *> &corpus,
                                       const QuerySpec &q, usize threads) {
  std::vector<Neighbor> all(corpus.size());
  sv::parallelFor(
      corpus.size(),
      [&](usize i) {
        const auto d = sv::metrics::diverge(*corpus[q.port], *corpus[i], q.metric);
        all[i] = {i, d.distance, d.normalised()};
      },
      threads);
  std::sort(all.begin(), all.end(), neighborLess);
  if (q.topK) {
    all.resize(std::min(all.size(), kTopK));
  } else {
    std::erase_if(all, [&](const Neighbor &n) { return n.distance > q.radius; });
  }
  return all;
}

std::vector<QuerySpec> warmUp(const std::vector<const sv::db::CodebaseDb *> &corpus, u64 seed,
                              usize threads) {
  const auto topK = queryStream(topKQueries(corpus.size()), seed ^ 0x3a3a3a3aull, 1);
  const auto answers = querySession(corpus, topK, threads, 0, topK.size(), false);
  std::vector<QuerySpec> range;
  for (usize i = 0; i < topK.size(); ++i)
    range.push_back(rangeQueryFor(topK[i], answers[i].neighbors));
  (void)querySession(corpus, range, threads, 0, range.size(), false);
  auto set = topK;
  set.insert(set.end(), range.begin(), range.end());
  return set;
}

Outcome runQuery(const RunConfig &config) {
  Outcome outcome;
  auto &checks = outcome.checks;

  if (!config.trace) {
    // Set-up: load the corpus (index, serialise, deserialise), then warm
    // the engine with the query set.
    const auto setupStart = Clock::now();
    const auto dbs = loadCorpus(config.threads, nullptr);
    const auto corpus = pointers(dbs);
    const auto loadS = secondsSince(setupStart);
    const auto set = warmUp(corpus, config.seed, config.threads);
    const double setupS = secondsSince(setupStart);
    (void)drainRuntime(config.threads, checks);

    const auto stream = queryStream(set, config.seed, 40);
    const auto answers =
        querySession(corpus, stream, config.threads, config.seconds, set.size(), false);
    (void)drainRuntime(config.threads, checks);

    std::vector<double> latencies;
    std::vector<usize> done;
    double lastS = 0; // the session's wall time: until the last query returned
    for (usize i = 0; i < answers.size(); ++i)
      if (answers[i].done) {
        latencies.push_back(answers[i].latencyMs);
        done.push_back(i);
        lastS = std::max(lastS, answers[i].finishedS);
      }
    checks.expect(latencies.size() >= kMinQueries,
                  "query: only " + std::to_string(latencies.size()) + " queries completed");
    checks.expect(done.size() < answers.size(), "query: the stream ran out before the deadline");

    // Seeded sample of answers against brute force, outside the timed region.
    Rng rng(config.seed ^ 0xb0a7f0ceull);
    for (int s = 0; s < 4 && !done.empty(); ++s) {
      const usize i = done[rng.below(done.size())];
      const auto expected = bruteForceAnswer(corpus, stream[i], config.threads);
      checks.expect(sameAnswer(answers[i].neighbors, expected),
                    "query: answer " + std::to_string(i) + " differs from brute force");
    }
    for (const usize i : done) checks.expect(!answers[i].neighbors.empty(), "query: empty answer");

    const double qps = static_cast<double>(done.size()) / lastS;
    outcome.endToEnd = {
        {"setup_s", setupS, "s"},
        {"latency_p50_ms", median(latencies), "ms"},
        {"latency_p90_ms", percentile(latencies, 90), "ms"},
        {"throughput_per_s", qps, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    outcome.named = {{"setup_s", setupS, "s"},
                     {"load_s", loadS, "s"},
                     {"warmup_s", setupS - loadS, "s"},
                     {"query_p50_ms", median(latencies), "ms"},
                     {"query_p90_ms", percentile(latencies, 90), "ms"},
                     {"queries_per_s", qps, "1/s"},
                     {"queries", static_cast<double>(latencies.size()), "count"},
                     {"session_s", lastS, "s"},
                     {"peak_rss_mb", peakRssMb(), "MB"}};
    return outcome;
  }

  // Traced run: warm the engine, then a fixed prefix of the stream twice —
  // untraced, then traced — each against a freshly loaded corpus.
  constexpr usize kTracedQueries = 64;
  std::map<std::string, double> values;
  std::vector<QuerySpec> set;
  {
    const auto warmDbs = loadCorpus(config.threads, nullptr);
    set = warmUp(pointers(warmDbs), config.seed, config.threads);
  }
  (void)drainRuntime(config.threads, checks);

  auto t0 = Clock::now();
  const auto plainDbs = loadCorpus(config.threads, nullptr);
  auto stream = queryStream(set, config.seed, 1);
  stream.resize(kTracedQueries);
  const auto plain =
      querySession(pointers(plainDbs), stream, config.threads, 0, stream.size(), false);
  const double plainS = secondsSince(t0);
  const auto runtime = drainRuntime(config.threads, checks);
  values["runtime.workers"] = static_cast<double>(runtime.workers);
  values["runtime.occupancy"] = runtime.occupancy();
  values["runtime.steals"] = static_cast<double>(runtime.steals);

  const auto before = sv::tree::TedEngine::global().stats();
  trace::setEnabled(true);
  t0 = Clock::now();
  std::vector<QueryAnswer> traced;
  std::vector<sv::db::CodebaseDb> dbs;
  u64 bytes = 0;
  {
    trace::Span root("run");
    dbs = loadCorpus(config.threads, &bytes);
    traced = querySession(pointers(dbs), stream, config.threads, 0, stream.size(), true);
  }
  const double tracedS = secondsSince(t0);
  trace::setEnabled(false);
  const auto after = sv::tree::TedEngine::global().stats();
  (void)drainRuntime(config.threads, checks);

  QueryStats total, byKind[2]; // [0] range, [1] top-k
  for (usize i = 0; i < stream.size(); ++i) {
    const auto &s = traced[i].stats;
    const auto &p = plain[i].stats;
    checks.expect(sameAnswer(traced[i].neighbors, plain[i].neighbors) &&
                      s.candidates == p.candidates && s.prunedByBound == p.prunedByBound &&
                      s.prunedByCutoff == p.prunedByCutoff && s.exact == p.exact,
                  "query: traced answer " + std::to_string(i) + " differs from the untraced one");
    for (QueryStats *t : {&total, &byKind[stream[i].topK]}) {
      t->candidates += s.candidates;
      t->prunedByBound += s.prunedByBound;
      t->prunedByCutoff += s.prunedByCutoff;
      t->exact += s.exact;
    }
  }
  values["query.filter_rate"] = total.filterRate();
  values["query.topk_filter_rate"] = byKind[1].filterRate();
  values["query.range_filter_rate"] = byKind[0].filterRate();
  values["query.pruned_by_bound"] = static_cast<double>(total.prunedByBound);
  values["query.pruned_by_cutoff"] = static_cast<double>(total.prunedByCutoff);
  values["query.exact"] = static_cast<double>(total.exact);
  for (const bool topK : {true, false}) {
    const auto &k = byKind[topK];
    const std::string kind = topK ? "topk" : "range";
    outcome.named.push_back({kind + "_candidates", static_cast<double>(k.candidates), "count"});
    outcome.named.push_back(
        {kind + "_pruned_by_bound", static_cast<double>(k.prunedByBound), "count"});
    outcome.named.push_back(
        {kind + "_pruned_by_cutoff", static_cast<double>(k.prunedByCutoff), "count"});
    outcome.named.push_back({kind + "_exact", static_cast<double>(k.exact), "count"});
  }
  values["db.svdb_bytes"] = static_cast<double>(bytes);
  values["trees.nodes"] = static_cast<double>(treeNodes(pointers(dbs)));
  outcome.perLayer = finishTraced(config, values, before, after, tracedS / plainS - 1, checks);
  return outcome;
}

} // namespace perfbench
