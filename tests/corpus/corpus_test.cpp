// Corpus integration tests: every port of every miniapp must compile
// through the full pipeline and pass its built-in verification in the VM —
// the paper's artefact-evaluation property. Parameterised over the whole
// (app, model) product.
#include <gtest/gtest.h>

#include "corpus/corpus.hpp"

using namespace sv;

namespace {
std::vector<std::pair<std::string, std::string>> allPorts() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto &app : corpus::appNames())
    for (const auto &model : corpus::modelsOf(app)) out.emplace_back(app, model);
  return out;
}
} // namespace

TEST(Corpus, RegistryShape) {
  EXPECT_EQ(corpus::appNames().size(), 5u);
  EXPECT_EQ(corpus::babelstreamModels().size(), 10u);
  EXPECT_EQ(corpus::babelstreamFortranModels().size(), 7u);
  EXPECT_EQ(corpus::tealeafModels().size(), 10u);
  EXPECT_EQ(corpus::cloverleafModels().size(), 9u);
  EXPECT_EQ(corpus::minibudeModels().size(), 10u);
  EXPECT_EQ(allPorts().size(), 46u);
}

TEST(Corpus, UnknownAppAndModelThrow) {
  EXPECT_THROW((void)corpus::modelsOf("nbody"), InternalError);
  EXPECT_THROW((void)corpus::make("babelstream", "openacc"), InternalError);
}

TEST(Corpus, CommandFlagsMatchModels) {
  using ir::Model;
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "cuda")), Model::Cuda);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "hip")), Model::Hip);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "sycl-usm")), Model::Sycl);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "omp")), Model::OpenMP);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "omp-target")),
            Model::OpenMPTarget);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "kokkos")), Model::Kokkos);
  EXPECT_EQ(db::modelFromCommand(corpus::commandFor("a.cpp", "serial")), Model::Serial);
}

class CorpusPort : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(CorpusPort, IndexesAndVerifies) {
  const auto &[app, model] = GetParam();
  const auto cb = corpus::make(app, model);
  db::IndexOptions opts;
  opts.runCoverage = true;
  const auto result = db::index(cb, opts);

  // Every unit carries non-trivial trees with source back-references.
  ASSERT_FALSE(result.db.units.empty());
  for (const auto &u : result.db.units) {
    EXPECT_GT(u.tsrc.size(), 20u) << u.file;
    EXPECT_GT(u.tsem.size(), 10u) << u.file;
    EXPECT_GT(u.tir.size(), 20u) << u.file;
    EXPECT_GT(u.sloc, 5u) << u.file;
    bool hasBackRef = false;
    for (const auto &n : u.tsem.nodes())
      if (n.line >= 1) hasBackRef = true;
    EXPECT_TRUE(hasBackRef) << u.file;
    u.tsem.validate();
    u.tsrc.validate();
    u.tir.validate();
  }

  // Built-in verification must pass when executed.
  ASSERT_TRUE(result.coverageRun.has_value());
  const auto &run = *result.coverageRun;
  EXPECT_NE(run.output.find("PASSED"), std::string::npos)
      << app << "/" << model << " output:\n" << run.output;
  if (!run.returnValue.isVoid()) EXPECT_EQ(run.returnValue.asInt(), 0);
  EXPECT_GT(run.coverage.coveredLineCount(), 20u);
}

INSTANTIATE_TEST_SUITE_P(AllPorts, CorpusPort, ::testing::ValuesIn(allPorts()),
                         [](const auto &info) {
                           std::string name = info.param.first + "_" + info.param.second;
                           for (auto &c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Corpus, OffloadModelsCarryRuntimeIrStructures) {
  for (const auto &model : {"cuda", "hip", "omp-target", "sycl-usm"}) {
    const auto result = db::index(corpus::make("babelstream", model));
    bool sawRuntime = false;
    for (const auto &n : result.db.units[0].tir.nodes())
      if (n.label.find(":runtime") != std::string::npos ||
          n.label.find(":stub") != std::string::npos)
        sawRuntime = true;
    EXPECT_TRUE(sawRuntime) << model;
  }
}

TEST(Corpus, HostModelsCarryNoRuntimeIrStructures) {
  for (const auto &model : {"serial", "omp", "kokkos", "tbb", "std-indices"}) {
    const auto result = db::index(corpus::make("babelstream", model));
    for (const auto &n : result.db.units[0].tir.nodes())
      EXPECT_EQ(n.label.find(":runtime"), std::string::npos) << model << " " << n.label;
  }
}

TEST(Corpus, SharedDriverIdenticalAcrossTealeafPorts) {
  // main.cpp is shared verbatim: its T_sem must be identical between ports
  // (zero-divergence boilerplate, Section V).
  const auto a = db::index(corpus::make("tealeaf", "serial")).db;
  const auto b = db::index(corpus::make("tealeaf", "cuda")).db;
  EXPECT_TRUE(a.units[0].tsem.sameShape(b.units[0].tsem));
  EXPECT_FALSE(a.units[1].tsem.sameShape(b.units[1].tsem));
}

TEST(Corpus, FortranModelsAgreeOnDotProduct) {
  // All Fortran ports compute the same physics; spot-check two.
  for (const auto &model : {"sequential", "array"}) {
    const auto cb = corpus::make("babelstream-fortran", model);
    db::IndexOptions opts;
    opts.runCoverage = true;
    const auto run = *db::index(cb, opts).coverageRun;
    EXPECT_NE(run.output.find("PASSED"), std::string::npos) << model;
  }
}
