// Cached-vs-uncached parity on the real corpus: the shared-view TED engine
// (which runs Apted) must produce byte-identical Divergence results
// (distance, dmaxEq7, dmaxSym, matched/unmatched counts) to the uncached
// tree::ted() path under every algorithm, on all four miniapps, in both
// directions, for every tree metric.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"
#include "metrics/metrics.hpp"
#include "tree/tedengine.hpp"

using namespace sv;
using namespace sv::metrics;

namespace {

db::CodebaseDb indexed(const std::string &app, const std::string &model) {
  return db::index(corpus::make(app, model)).db;
}

void expectIdenticalDivergence(const db::CodebaseDb &a, const db::CodebaseDb &b, Metric metric,
                               const std::string &what) {
  // The engine (Apted) against every uncached algorithm: Apted is the
  // default, Zhang–Shasha and PathStrategy are its oracles.
  const auto dc = diverge(a, b, metric, {}, tree::TedOptions{});
  for (const auto algo :
       {tree::TedAlgo::Apted, tree::TedAlgo::ZhangShasha, tree::TedAlgo::PathStrategy}) {
    tree::TedOptions uncached;
    uncached.algo = algo;
    uncached.useCache = false;
    const auto du = diverge(a, b, metric, {}, uncached);
    EXPECT_EQ(dc.distance, du.distance) << what;
    EXPECT_EQ(dc.dmaxEq7, du.dmaxEq7) << what;
    EXPECT_EQ(dc.dmaxSym, du.dmaxSym) << what;
    EXPECT_EQ(dc.matchedUnits, du.matchedUnits) << what;
    EXPECT_EQ(dc.unmatchedUnits, du.unmatchedUnits) << what;
  }
}

class EngineParity : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(EngineParity, CachedDivergenceIsByteIdenticalToUncached) {
  const std::string app = GetParam();
  const auto serial = indexed(app, "serial");
  const auto omp = indexed(app, "omp");
  for (const auto metric : {Metric::Tsrc, Metric::Tsem, Metric::TsemInline, Metric::Tir}) {
    const std::string tag = app + "/" + std::string(metricName(metric));
    expectIdenticalDivergence(serial, omp, metric, tag + " serial->omp");
    expectIdenticalDivergence(omp, serial, metric, tag + " omp->serial");
    expectIdenticalDivergence(serial, serial, metric, tag + " self");
  }
}

INSTANTIATE_TEST_SUITE_P(AllMiniapps, EngineParity,
                         ::testing::Values("babelstream", "minibude", "tealeaf", "cloverleaf"));

TEST(EngineParity, EveryTealeafUnitPairMatchesReference) {
  // Unit-pair granularity on one full app: every (unit, unit) cross pair of
  // two TeaLeaf ports must give the same TED through the engine as through
  // the uncached reference, for every tree kind.
  const auto serial = indexed("tealeaf", "serial");
  const auto cuda = indexed("tealeaf", "cuda");
  auto &engine = tree::TedEngine::global();
  for (const auto &u1 : serial.units) {
    for (const auto &u2 : cuda.units) {
      const std::pair<const tree::Tree &, const tree::Tree &> kinds[] = {
          {u1.tsrc, u2.tsrc}, {u1.tsem, u2.tsem}, {u1.tsemI, u2.tsemI}, {u1.tir, u2.tir}};
      for (const auto &[t1, t2] : kinds) {
        // Default (Apted) engine path against every uncached oracle.
        const u64 got = engine.ted(t1, t2);
        EXPECT_EQ(got, tree::ted(t1, t2)) << u1.role << " vs " << u2.role;
        EXPECT_EQ(got, tree::ted(t1, t2, {tree::TedAlgo::ZhangShasha, {}}))
            << u1.role << " vs " << u2.role;
        EXPECT_EQ(got, tree::ted(t1, t2, {tree::TedAlgo::PathStrategy, {}}))
            << u1.role << " vs " << u2.role;
      }
    }
  }
}

TEST(EngineParity, CoverageVariantParity) {
  // The +coverage variant masks trees per call (fresh Tree objects each
  // time): the engine must stay correct when fed temporaries whose views
  // are shared purely by structural fingerprint.
  db::IndexOptions opts;
  opts.runCoverage = true;
  const auto serial = db::index(corpus::make("babelstream", "serial"), opts).db;
  const auto omp = db::index(corpus::make("babelstream", "omp"), opts).db;
  ASSERT_TRUE(serial.hasCoverage);
  Variant cov;
  cov.coverage = true;
  tree::TedOptions cached;
  tree::TedOptions uncached;
  uncached.useCache = false;
  const auto dc = diverge(serial, omp, Metric::Tsem, cov, cached);
  const auto du = diverge(serial, omp, Metric::Tsem, cov, uncached);
  EXPECT_EQ(dc.distance, du.distance);
  EXPECT_EQ(dc.dmaxSym, du.dmaxSym);
  EXPECT_EQ(dc.matchedUnits, du.matchedUnits);
}
