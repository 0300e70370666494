#include <gtest/gtest.h>

#include <functional>

#include "corpus/corpus.hpp"
#include "db/codebase.hpp"
#include "db/compiledb.hpp"
#include "support/compress.hpp"
#include "support/msgpack.hpp"

using namespace sv;
using namespace sv::db;

TEST(CompileDb, ParsesCommandForm) {
  const auto cmds = parseCompileCommands(R"([
    {"directory": "/build", "command": "clang++ -O3 -c \"my file.cpp\"", "file": "my file.cpp"}
  ])");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].args, (std::vector<std::string>{"clang++", "-O3", "-c", "my file.cpp"}));
}

TEST(CompileDb, ParsesArgumentsForm) {
  const auto cmds = parseCompileCommands(R"([
    {"directory": "/b", "arguments": ["cc", "-c", "a.cpp"], "file": "a.cpp"}
  ])");
  ASSERT_EQ(cmds.size(), 1u);
  EXPECT_EQ(cmds[0].args[0], "cc");
}

TEST(CompileDb, WriteRoundTrips) {
  std::vector<CompileCommand> cmds{{"/b", "a.cpp", {"cc", "-fopenmp", "-c", "a.cpp"}}};
  const auto back = parseCompileCommands(writeCompileCommands(cmds));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].args, cmds[0].args);
  EXPECT_EQ(back[0].file, "a.cpp");
}

TEST(CompileDb, ModelDetection) {
  const auto mk = [](std::vector<std::string> args) {
    return modelFromCommand(CompileCommand{"/b", "a.cpp", std::move(args)});
  };
  EXPECT_EQ(mk({"c++", "-c"}), ir::Model::Serial);
  EXPECT_EQ(mk({"c++", "-fopenmp", "-c"}), ir::Model::OpenMP);
  EXPECT_EQ(mk({"c++", "-fopenmp", "-fopenmp-targets=nvptx64", "-c"}), ir::Model::OpenMPTarget);
  EXPECT_EQ(mk({"clang++", "-x", "cuda", "-c"}), ir::Model::Cuda);
  EXPECT_EQ(mk({"clang++", "-x", "hip", "-c"}), ir::Model::Hip);
  EXPECT_EQ(mk({"clang++", "-fsycl", "-c"}), ir::Model::Sycl);
  EXPECT_EQ(mk({"c++", "-DUSE_KOKKOS", "-c"}), ir::Model::Kokkos);
  EXPECT_EQ(mk({"c++", "-DUSE_TBB", "-c"}), ir::Model::Tbb);
  EXPECT_EQ(mk({"c++", "-DUSE_STDPAR", "-c"}), ir::Model::StdPar);
  EXPECT_EQ(mk({"gfortran", "-fopenacc", "-c"}), ir::Model::OpenAcc);
}

TEST(CompileDb, DefineExtraction) {
  const auto defs = definesFromCommand(
      CompileCommand{"/b", "a.cpp", {"cc", "-DN=64", "-DUSE_X", "-O3", "-c"}});
  EXPECT_EQ(defs.at("N"), "64");
  EXPECT_EQ(defs.at("USE_X"), "1");
  EXPECT_EQ(defs.size(), 2u);
}

TEST(CompileDb, FortranDetection) {
  EXPECT_TRUE(isFortranFile("main.f90"));
  EXPECT_TRUE(isFortranFile("a.f"));
  EXPECT_FALSE(isFortranFile("main.cpp"));
}

TEST(CodebaseDb, IndexProducesAllTrees) {
  const auto cb = corpus::make("babelstream", "serial");
  const auto result = index(cb);
  ASSERT_EQ(result.db.units.size(), 1u);
  const auto &u = result.db.units[0];
  EXPECT_GT(u.tsrc.size(), 100u);
  EXPECT_GT(u.tsem.size(), 100u);
  EXPECT_GT(u.tsemI.size(), u.tsem.size()); // inlining only grows the tree
  EXPECT_GT(u.tir.size(), 100u);
  EXPECT_GT(u.sloc, 50u);
  EXPECT_GT(u.lloc, 30u);
  EXPECT_LT(u.lloc, u.sloc * 2);
}

TEST(CodebaseDb, DefinesFromCommandsReachPreprocessor) {
  // -D flags must influence the indexed unit (macro expansion).
  db::Codebase cb;
  cb.app = "t";
  cb.model = "serial";
  cb.addFile("main.cpp", "int arr[SIZE];\nint main() { return 0; }\n");
  CompileCommand cmd{"/b", "main.cpp", {"cc", "-DSIZE=7", "-c", "main.cpp"}};
  cb.commands.push_back(cmd);
  const auto result = index(cb);
  bool saw7 = false;
  for (const auto &n : result.db.units[0].tsem.nodes())
    if (n.label == "IntegerLiteral:7") saw7 = true;
  EXPECT_TRUE(saw7);
}

TEST(CodebaseDb, SystemHeadersMaskedFromTrees) {
  const auto cb = corpus::make("babelstream", "sycl-usm");
  const auto result = index(cb);
  const auto &u = result.db.units[0];
  // The sycl.hpp header defines dozens of structs; none may appear in
  // T_sem (they are system-masked), so RecordDecl count must be small.
  usize records = 0;
  for (const auto &n : u.tsem.nodes())
    if (n.label == "RecordDecl") ++records;
  EXPECT_EQ(records, 0u);
}

TEST(CodebaseDb, PreprocessedSrcTreeLargerForSycl) {
  // +pp splices the (big) sycl header for Source/SLOC, but tsrcPp masks
  // system tokens; sanity check both trees exist and differ.
  const auto result = index(corpus::make("babelstream", "sycl-usm"));
  const auto &u = result.db.units[0];
  EXPECT_GT(u.tsrc.size(), 0u);
  EXPECT_GT(u.tsrcPp.size(), 0u);
}

TEST(CodebaseDb, CoverageRunsAndStores) {
  db::IndexOptions opts;
  opts.runCoverage = true;
  const auto result = index(corpus::make("babelstream", "serial"), opts);
  EXPECT_TRUE(result.db.hasCoverage);
  EXPECT_GT(result.db.coverage.coveredLineCount(), 20u);
  ASSERT_TRUE(result.coverageRun.has_value());
  EXPECT_NE(result.coverageRun->output.find("PASSED"), std::string::npos);
}

TEST(CodebaseDb, SerialiseRoundTrip) {
  db::IndexOptions opts;
  opts.runCoverage = true;
  auto result = index(corpus::make("babelstream", "omp"), opts);
  const auto bytes = result.db.serialise();
  const auto back = CodebaseDb::deserialise(bytes);
  EXPECT_EQ(back.app, "babelstream");
  EXPECT_EQ(back.model, "omp");
  EXPECT_EQ(back.modelKind, ir::Model::OpenMP);
  ASSERT_EQ(back.units.size(), result.db.units.size());
  EXPECT_TRUE(back.units[0].tsem.sameShape(result.db.units[0].tsem));
  EXPECT_TRUE(back.units[0].tir.sameShape(result.db.units[0].tir));
  EXPECT_EQ(back.units[0].sloc, result.db.units[0].sloc);
  EXPECT_EQ(back.units[0].normText, result.db.units[0].normText);
  EXPECT_EQ(back.coverage.lineHits, result.db.coverage.lineHits);
}

TEST(CodebaseDb, SerialisedFormIsCompressed) {
  const auto result = index(corpus::make("babelstream", "serial"));
  const auto bytes = result.db.serialise();
  EXPECT_TRUE(sv::svz::looksCompressed(bytes));
}

TEST(CodebaseDb, MultiUnitAppHasRoles) {
  const auto result = index(corpus::make("tealeaf", "serial"));
  ASSERT_EQ(result.db.units.size(), 2u);
  EXPECT_EQ(result.db.units[0].role, "main");
  EXPECT_EQ(result.db.units[1].role, "cg");
}

TEST(CodebaseDb, LinkForExecutionMergesTus) {
  const auto cb = corpus::make("tealeaf", "serial");
  const auto merged = linkForExecution(cb);
  bool hasMain = false, hasSolve = false;
  for (const auto &f : merged.functions) {
    if (f.name == "main") hasMain = true;
    if (f.name == "solve" && f.body) hasSolve = true;
  }
  EXPECT_TRUE(hasMain);
  EXPECT_TRUE(hasSolve);
}

namespace {

/// A real serialised DB (with coverage) to corrupt field by field.
const std::vector<u8> &realDbBytes() {
  static const auto bytes = [] {
    db::IndexOptions opts;
    opts.runCoverage = true;
    return index(corpus::make("babelstream", "serial"), opts).db.serialise();
  }();
  return bytes;
}

/// realDbBytes() re-encoded with `edit` applied to its decoded top-level map.
std::vector<u8> reencoded(const std::function<void(msgpack::Map &)> &edit) {
  auto m = msgpack::decode(svz::decompress(realDbBytes())).asMap();
  edit(m);
  return svz::compress(msgpack::encode(msgpack::Value(std::move(m))));
}

/// Apply `edit` to the first coverage row.
std::vector<u8> withFirstCoverageRow(const std::function<void(msgpack::Array &)> &edit) {
  return reencoded([&](msgpack::Map &m) {
    auto rows = m.at("coverage").asArray();
    auto row = rows.at(0).asArray();
    edit(row);
    rows[0] = msgpack::Value(std::move(row));
    m.at("coverage") = msgpack::Value(std::move(rows));
  });
}

/// Apply `edit` to the first unit's `sigs` array, or erase every unit's
/// `sigs` key when `edit` is null (a DB written before signatures existed).
std::vector<u8> withSigs(const std::function<void(msgpack::Array &)> &edit) {
  return reencoded([&](msgpack::Map &m) {
    auto units = m.at("units").asArray();
    for (usize i = 0; i < units.size(); ++i) {
      auto unit = units[i].asMap();
      if (!edit) {
        unit.erase("sigs");
      } else if (i == 0) {
        auto sigs = unit.at("sigs").asArray();
        edit(sigs);
        unit.at("sigs") = msgpack::Value(std::move(sigs));
      }
      units[i] = msgpack::Value(std::move(unit));
    }
    m.at("units") = msgpack::Value(std::move(units));
  });
}

} // namespace

TEST(CodebaseDb, DeserialiseAcceptsUnmodifiedReencoding) {
  // The control for the rejection tests below: without it, a re-encoding
  // that broke every DB would make them pass vacuously.
  const auto back = CodebaseDb::deserialise(reencoded([](msgpack::Map &) {}));
  EXPECT_TRUE(back.hasCoverage);
  EXPECT_FALSE(back.coverage.lineHits.empty());
}

TEST(CodebaseDb, DeserialiseRejectsShortCoverageRow) {
  const auto bad = withFirstCoverageRow([](msgpack::Array &row) { row.pop_back(); });
  EXPECT_THROW((void)CodebaseDb::deserialise(bad), ParseError);
}

TEST(CodebaseDb, DeserialiseRejectsLongCoverageRow) {
  const auto bad = withFirstCoverageRow([](msgpack::Array &row) { row.emplace_back(1); });
  EXPECT_THROW((void)CodebaseDb::deserialise(bad), ParseError);
}

TEST(CodebaseDb, DeserialiseRejectsTooFewSignatures) {
  // Three of five: the last two trees would keep n = 0 signatures, whose
  // lower bound against a real tree can exceed the exact distance.
  const auto bad = withSigs([](msgpack::Array &sigs) { sigs.resize(3); });
  EXPECT_THROW((void)CodebaseDb::deserialise(bad), ParseError);
}

TEST(CodebaseDb, DeserialiseRejectsTooManySignatures) {
  const auto bad = withSigs([](msgpack::Array &sigs) { sigs.push_back(sigs.front()); });
  EXPECT_THROW((void)CodebaseDb::deserialise(bad), ParseError);
}

TEST(CodebaseDb, DeserialiseRejectsSignatureOfWrongSize) {
  const auto bad = withSigs([](msgpack::Array &sigs) {
    auto sig = sigs.at(0).asMap();
    sig.at("n") = msgpack::Value(sig.at("n").asInt() + 1);
    sigs[0] = msgpack::Value(std::move(sig));
  });
  EXPECT_THROW((void)CodebaseDb::deserialise(bad), ParseError);
}

TEST(CodebaseDb, DeserialiseSelfHealsSignaturesOfLegacyDbs) {
  const auto original = CodebaseDb::deserialise(realDbBytes());
  const auto back = CodebaseDb::deserialise(withSigs(nullptr));
  ASSERT_EQ(back.units.size(), original.units.size());
  for (usize i = 0; i < back.units.size(); ++i) {
    EXPECT_EQ(back.units[i].sigTsrc, original.units[i].sigTsrc);
    EXPECT_EQ(back.units[i].sigTsem, original.units[i].sigTsem);
    EXPECT_EQ(back.units[i].sigTir, original.units[i].sigTir);
  }
}
