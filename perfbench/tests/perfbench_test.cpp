// The benchmark's own tests: the tracer's span tree and its Chrome trace
// file, and traced-vs-untraced parity of each workload's job on small
// inputs.
#include <gtest/gtest.h>

#include <thread>

#include "expected_study.hpp"
#include "support/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr usize kThreads = 2;

/// Enables tracing for one test and drops whatever it recorded.
struct TraceScope {
  TraceScope() {
    sv::configureThreads(kThreads);
    (void)trace::collect();
    trace::setEnabled(true);
  }
  ~TraceScope() {
    trace::setEnabled(false);
    (void)trace::collect();
  }
};

void busy(std::chrono::microseconds d) {
  const auto end = Clock::now() + d;
  while (Clock::now() < end) {
  }
}

std::vector<trace::SpanRecord> sampleTrace() {
  TraceScope scope;
  {
    trace::Span root("root");
    busy(std::chrono::microseconds(200));
    {
      trace::Span a("a", 1);
      busy(std::chrono::microseconds(300));
      trace::Span b("b", 1);
      busy(std::chrono::microseconds(300));
    }
    const u64 parent = trace::current();
    sv::parallelFor(
        8,
        [&](usize i) {
          trace::Adopt adopt(parent);
          trace::Span task("task", i + 2);
          busy(std::chrono::microseconds(100));
          trace::Span leaf("leaf", i + 2);
          busy(std::chrono::microseconds(100));
        },
        kThreads);
  }
  return trace::collect();
}

TEST(Trace, SpansNestUnderTheirParents) {
  const auto spans = sampleTrace();
  ASSERT_EQ(spans.size(), 1u + 2u + 16u);
  std::map<u64, const trace::SpanRecord *> byId;
  for (const auto &s : spans) byId[s.id] = &s;
  usize roots = 0;
  for (const auto &s : spans) {
    if (s.parent == 0) {
      ++roots;
      EXPECT_STREQ(s.name, "root");
      continue;
    }
    ASSERT_TRUE(byId.count(s.parent)) << s.name;
    const auto &p = *byId[s.parent];
    EXPECT_LE(p.startNs, s.startNs) << s.name;
    EXPECT_GE(p.endNs, s.endNs) << s.name;
    const std::string name = s.name;
    if (name == "leaf") {
      EXPECT_STREQ(p.name, "task");
    } else if (name == "b") {
      EXPECT_STREQ(p.name, "a");
    } else if (name == "task") {
      EXPECT_STREQ(p.name, "root");
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(Trace, SelfTimesSumToEachThreadRoot) {
  const auto spans = sampleTrace();
  const auto self = trace::selfTimesMs(spans);
  std::map<u64, usize> at;
  for (usize i = 0; i < spans.size(); ++i) at[spans[i].id] = i;
  // Walk every span up to its thread-root and add its self time there.
  std::map<u64, double> sums;
  for (usize i = 0; i < spans.size(); ++i) {
    usize k = i;
    while (spans[k].parent != 0 && spans[at[spans[k].parent]].tid == spans[k].tid)
      k = at[spans[k].parent];
    sums[spans[k].id] += self[i];
  }
  for (const auto &[id, sum] : sums) EXPECT_NEAR(sum, spans[at[id]].ms(), 1e-6);
  // The root's own thread: everything it did itself or in same-thread
  // children; tasks on other threads are not part of it.
  for (usize i = 0; i < spans.size(); ++i) EXPECT_GE(self[i], 0.0) << spans[i].name;
}

TEST(Trace, ChromeJsonParsesAndValidates) {
  const auto spans = sampleTrace();
  usize events = 0;
  const auto problems = trace::validateChromeJson(trace::toChromeJson(spans), &events);
  EXPECT_TRUE(problems.empty()) << problems.front();
  EXPECT_EQ(events, spans.size());
}

TEST(Trace, ValidationRejectsBrokenTraces) {
  auto spans = sampleTrace();
  EXPECT_FALSE(trace::validateChromeJson("{\"traceEvents\": [").empty());
  // A child ending after its parent.
  for (auto &s : spans)
    if (std::string(s.name) == "b") s.endNs += 10'000'000;
  EXPECT_FALSE(trace::validateChromeJson(trace::toChromeJson(spans)).empty());
  // A second root.
  spans = sampleTrace();
  spans.back().parent = 0;
  EXPECT_FALSE(trace::validateChromeJson(trace::toChromeJson(spans)).empty());
}

TEST(Trace, DisabledSpansRecordNothing) {
  sv::configureThreads(kThreads);
  trace::setEnabled(false);
  {
    trace::Span span("off");
  }
  EXPECT_TRUE(trace::collect().empty());
}

TEST(Workloads, TracedStudyDeckEqualsUntracedAndRecordedDigests) {
  const std::vector<std::string> apps = {"babelstream", "babelstream-fortran"};
  sv::configureThreads(kThreads);
  sv::tree::TedEngine::global().clear();
  const auto plain = studyDeck(apps, kThreads, false);
  std::map<std::string, std::string> traced;
  {
    TraceScope scope;
    sv::tree::TedEngine::global().clear();
    traced = studyDeck(apps, kThreads, true);
    const auto spans = trace::collect();
    const auto by = trace::summarise(spans);
    EXPECT_GT(by.at("ted").count, 0u);
    EXPECT_GT(by.at("diverge").count, 0u);
    EXPECT_TRUE(trace::validateChromeJson(trace::toChromeJson(spans)).empty());
  }
  EXPECT_EQ(traced, plain);
  const auto &expected = expectedStudyDigests();
  for (const auto &[key, hex] : plain) {
    ASSERT_TRUE(expected.count(key)) << key;
    EXPECT_EQ(expected.at(key), hex) << key;
  }
}

TEST(Workloads, TracedQueriesEqualUntracedAndBruteForce) {
  sv::configureThreads(kThreads);
  sv::silvervale::IndexAppOptions options;
  options.threads = kThreads;
  const auto ports = sv::silvervale::indexAllPorts(options);
  std::vector<const sv::db::CodebaseDb *> corpus;
  for (const auto &p : ports) corpus.push_back(&p.db);
  auto stream = queryStream(topKQueries(corpus.size()), 7, 1);
  ASSERT_EQ(stream.size(), corpus.size() * 3);
  stream.resize(5);
  const auto topK = querySession(corpus, stream, kThreads, 0, stream.size(), false);
  for (usize i = 0; i < 5; ++i) {
    const auto range = rangeQueryFor(stream[i], topK[i].neighbors);
    EXPECT_EQ(range.radius, topK[i].neighbors.back().distance);
    stream.push_back(range);
  }
  const auto plain = querySession(corpus, stream, kThreads, 0, stream.size(), false);
  std::vector<QueryAnswer> traced;
  {
    TraceScope scope;
    trace::Span root("run");
    traced = querySession(corpus, stream, kThreads, 0, stream.size(), true);
  }
  for (usize i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(plain[i].done && traced[i].done);
    const auto expected = bruteForceAnswer(corpus, stream[i], kThreads);
    ASSERT_EQ(plain[i].neighbors.size(), expected.size()) << i;
    ASSERT_EQ(traced[i].neighbors.size(), expected.size()) << i;
    for (usize k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(plain[i].neighbors[k].index, expected[k].index);
      EXPECT_EQ(plain[i].neighbors[k].distance, expected[k].distance);
      EXPECT_EQ(traced[i].neighbors[k].index, expected[k].index);
      EXPECT_EQ(traced[i].neighbors[k].distance, expected[k].distance);
    }
    EXPECT_EQ(traced[i].stats.prunedByBound, plain[i].stats.prunedByBound);
    EXPECT_EQ(traced[i].stats.prunedByCutoff, plain[i].stats.prunedByCutoff);
    EXPECT_EQ(traced[i].stats.exact, plain[i].stats.exact);
    if (!stream[i].topK) {
      EXPECT_GE(plain[i].neighbors.size(), topK[i - 5].neighbors.size());
    }
  }
}

TEST(Workloads, TracedIngestPassEqualsUntraced) {
  sv::configureThreads(kThreads);
  std::vector<sv::db::Codebase> corpus;
  for (const auto &model : sv::corpus::modelsOf("babelstream"))
    corpus.push_back(sv::corpus::make("babelstream", model));
  for (const auto &model : sv::corpus::modelsOf("babelstream-fortran"))
    corpus.push_back(sv::corpus::make("babelstream-fortran", model));
  const auto plain = ingestPass(corpus, kThreads, false);
  Checks checks;
  IngestOutputs traced;
  std::vector<trace::SpanRecord> spans;
  {
    TraceScope scope;
    traced = ingestPass(corpus, kThreads, true, &checks);
    spans = trace::collect();
  }
  EXPECT_EQ(checks.failed, 0u) << (checks.misses.empty() ? "" : checks.misses.front());
  EXPECT_GT(checks.attempted, corpus.size());
  EXPECT_EQ(traced.svdb, plain.svdb);
  EXPECT_EQ(plain.roundTripMismatches, 0u);
  EXPECT_EQ(plain.lintErrors, 0u);
  EXPECT_GT(traced.vmSteps, 0u);
  const auto by = trace::summarise(spans);
  for (const char *layer : {"db.index", "db.serialise", "db.deserialise", "frontend", "trees",
                            "lower", "vm", "lint.ast", "lint.ir", "lint.deps", "lint.range",
                            "sign"})
    EXPECT_TRUE(by.count(layer)) << layer;
  EXPECT_FALSE(by.count("ted"));
  EXPECT_TRUE(trace::validateChromeJson(trace::toChromeJson(spans)).empty());
}

TEST(Common, PercentilesAndRuntimeGuard) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 90);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100);

  sv::configureThreads(kThreads);
  (void)sv::drainPipelineStats();
  sv::NodeStats wrong;
  wrong.name = "lazy-pool";
  wrong.workers = kThreads + 1;
  sv::registerPipelineStats(wrong);
  Checks checks;
  (void)drainRuntime(kThreads, checks);
  EXPECT_EQ(checks.failed, 1u);
}

} // namespace
} // namespace perfbench
