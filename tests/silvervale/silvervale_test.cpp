// End-to-end tests of the top-level API, asserting the paper's qualitative
// findings hold on the corpus (the "shape" claims of DESIGN.md §4).
#include <gtest/gtest.h>

#include <algorithm>

#include "silvervale/silvervale.hpp"

using namespace sv;
using namespace sv::silvervale;

namespace {
const IndexedApp &tealeaf() {
  static const IndexedApp app = indexApp("tealeaf");
  return app;
}

usize groupOf(const std::vector<usize> &groups, const std::vector<std::string> &labels,
              const std::string &name) {
  for (usize i = 0; i < labels.size(); ++i)
    if (labels[i] == name) return groups[i];
  throw std::runtime_error("label not found: " + name);
}
} // namespace

TEST(SilverVale, IndexAppCoversAllModels) {
  const auto &app = tealeaf();
  EXPECT_EQ(app.models.size(), 10u);
  EXPECT_EQ(app.model("cuda").modelKind, ir::Model::Cuda);
  EXPECT_THROW((void)app.model("nope"), InternalError);
}

TEST(SilverVale, MatrixDiagonalZeroAndSymmetric) {
  const auto m = divergenceMatrix(tealeaf(), metrics::Metric::Tsem);
  for (usize i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
    for (usize j = 0; j < m.size(); ++j) EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
  }
}

TEST(SilverVale, TsemClusteringGroupsModelFamilies) {
  // Fig 4: SYCL variants cluster, HIP clusters with CUDA, OpenMP with
  // serial.
  const auto m = divergenceMatrix(tealeaf(), metrics::Metric::Tsem);
  const auto merges = analysis::cluster(m);
  const auto groups = analysis::cutClusters(merges, m.size(), 4);
  EXPECT_EQ(groupOf(groups, m.labels, "sycl-usm"), groupOf(groups, m.labels, "sycl-acc"));
  EXPECT_EQ(groupOf(groups, m.labels, "cuda"), groupOf(groups, m.labels, "hip"));
  EXPECT_EQ(groupOf(groups, m.labels, "serial"), groupOf(groups, m.labels, "omp"));
  EXPECT_NE(groupOf(groups, m.labels, "cuda"), groupOf(groups, m.labels, "serial"));
}

TEST(SilverVale, CudaHipNearlyIdenticalUnderTsem) {
  const auto m = divergenceMatrix(tealeaf(), metrics::Metric::Tsem);
  usize cuda = 0, hip = 0, serial = 0;
  for (usize i = 0; i < m.labels.size(); ++i) {
    if (m.labels[i] == "cuda") cuda = i;
    if (m.labels[i] == "hip") hip = i;
    if (m.labels[i] == "serial") serial = i;
  }
  EXPECT_LT(m.at(cuda, hip), 0.25);
  EXPECT_LT(m.at(cuda, hip), m.at(cuda, serial));
}

TEST(SilverVale, AbsoluteMatrixForSlocIsDegenerate) {
  // Fig 5's point: SLOC distances don't reflect model families.
  const auto m = absoluteDifferenceMatrix(tealeaf(), metrics::Metric::SLOC);
  EXPECT_EQ(m.size(), 10u);
  // Values exist and are small integers of lines, unrelated to semantics.
  double maxVal = 0;
  for (const auto v : m.values) maxVal = std::max(maxVal, v);
  EXPECT_GT(maxVal, 0.0);
}

TEST(SilverVale, MigrationFromCudaCostsMoreThanFromSerial) {
  // Fig 9 vs Fig 10: porting offload models from CUDA diverges more than
  // porting them from serial, most visibly in T_sem.
  const auto &app = tealeaf();
  const auto &serial = app.model("serial");
  const auto &cuda = app.model("cuda");
  double fromSerial = 0, fromCuda = 0;
  const std::vector<std::string> offload = {"omp-target", "kokkos", "sycl-usm", "sycl-acc"};
  for (const auto &m : offload) {
    fromSerial += metrics::diverge(serial, app.model(m), metrics::Metric::Tsem).normalised();
    fromCuda += metrics::diverge(cuda, app.model(m), metrics::Metric::Tsem).normalised();
  }
  EXPECT_LT(fromSerial, fromCuda);
}

TEST(SilverVale, OmpTargetLowestOffloadDivergenceFromSerial) {
  // Section V-D: "The OpenMP target model stands out as having the lowest
  // divergence overall when ported from serial".
  const auto &app = tealeaf();
  const auto &serial = app.model("serial");
  const auto dOmpTarget =
      metrics::diverge(serial, app.model("omp-target"), metrics::Metric::Tsrc).normalised();
  for (const auto &m : {"cuda", "hip", "sycl-usm", "sycl-acc"}) {
    const auto d = metrics::diverge(serial, app.model(m), metrics::Metric::Tsrc).normalised();
    EXPECT_LT(dOmpTarget, d) << m;
  }
}

TEST(SilverVale, PaperDeckKernelsNonEmpty) {
  for (const auto &app : corpus::appNames()) {
    const auto kernels = paperDeck(app);
    EXPECT_GE(kernels.size(), 1u) << app;
    for (const auto &k : kernels) {
      EXPECT_GT(k.iterations, 0u);
      EXPECT_GT(k.mixPerIter.bytes(), 0u);
    }
  }
}

TEST(SilverVale, BabelstreamDeckIsMemoryBound) {
  const auto kernels = paperDeck("babelstream");
  for (const auto &k : kernels)
    EXPECT_LT(ir::arithmeticIntensity(k.mixPerIter), 1.0) << k.name;
}

TEST(SilverVale, MinibudeDeckMoreComputeIntensiveThanBabelstream) {
  const auto bsKernels = paperDeck("babelstream");
  const auto mbKernels = paperDeck("minibude");
  double bsMax = 0, mbMax = 0;
  for (const auto &k : bsKernels) bsMax = std::max(bsMax, ir::arithmeticIntensity(k.mixPerIter));
  for (const auto &k : mbKernels) mbMax = std::max(mbMax, ir::arithmeticIntensity(k.mixPerIter));
  EXPECT_GT(mbMax, bsMax);
}

TEST(SilverVale, NavigationPointsWellFormed) {
  const auto points = navigationPoints(tealeaf());
  EXPECT_EQ(points.size(), 9u); // all models except serial
  for (const auto &p : points) {
    EXPECT_GE(p.phiValue, 0.0);
    EXPECT_LE(p.phiValue, 1.0);
    EXPECT_GT(p.tsem, 0.0);
    EXPECT_LE(p.tsem, 1.0);
    EXPECT_GT(p.tsrc, 0.0);
  }
  // CUDA / HIP: zero Φ (single vendor), still plotted (Section VI).
  const auto phiOf = [&points](const std::string &name) {
    const auto it = std::find_if(points.begin(), points.end(),
                                 [&name](const auto &p) { return p.model == name; });
    if (it != points.end()) return it->phiValue;
    ADD_FAILURE() << "no navigation point for " << name;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(phiOf("cuda"), 0.0);
  EXPECT_GT(phiOf("kokkos"), 0.0);
}

TEST(SilverVale, SyclSourcePerceivedSimplerThanSemantics) {
  // Fig 13/14 insight: SYCL (USM) hides semantic complexity — T_src
  // divergence is lower than T_sem divergence.
  const auto &app = tealeaf();
  const auto &serial = app.model("serial");
  const auto tsem =
      metrics::diverge(serial, app.model("sycl-usm"), metrics::Metric::Tsem).normalised();
  const auto tsrc =
      metrics::diverge(serial, app.model("sycl-usm"), metrics::Metric::Tsrc).normalised();
  EXPECT_GT(tsem, tsrc);
}
