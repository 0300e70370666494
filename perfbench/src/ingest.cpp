// `ingest`: one client indexing and linting every port, then round-tripping
// every DB through .svdb bytes. No TED runs.
#include "ir/irtree.hpp"
#include "ir/lower.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/rangelint.hpp"
#include "minic/lexer.hpp"
#include "minic/semtree.hpp"
#include "minic/srctree.hpp"
#include "minif/flexer.hpp"
#include "minif/ftrees.hpp"
#include "support/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sv::db::Codebase;
using sv::db::CodebaseDb;

/// Every unit through the layers' public functions, a span per call. The
/// lint diagnostics and bound signatures must equal what indexBatch stored.
void tracedUnit(const Codebase &cb, usize command, const sv::db::UnitEntry &stored, u64 op,
                Checks &checks) {
  trace::Span unitSpan("unit", op);
  const auto &cmd = cb.commands[command];
  sv::db::ParsedUnit parsed;
  {
    trace::Span span("frontend", op);
    parsed = sv::db::parseUnit(cb, cmd);
  }
  std::vector<sv::lint::Diagnostic> diags;
  {
    trace::Span span("lint.ast", op);
    diags = sv::lint::run(parsed.tu);
  }
  const sv::i32 fileId = *cb.sources.idOf(cmd.file);
  const auto &text = cb.sources.file(fileId).text;
  if (parsed.fortran) {
    const auto toks = sv::minif::lexFortran(text, fileId);
    trace::Span span("trees", op);
    (void)sv::minif::buildFortranSrcTree(toks);
    (void)sv::minif::buildFortranSemTree(parsed.tu);
  } else {
    const auto toks = sv::minic::lex(text, fileId, nullptr,
                                     /*allowDirectives=*/true);
    trace::Span span("trees", op);
    (void)sv::minic::buildSrcTree(toks);
    (void)sv::minic::buildSemTree(parsed.tu);
  }
  sv::ir::Module module;
  {
    // The body of db::lowerParsed, kept here because the dependence tier
    // below still needs the parsed unit that lowerParsed would consume.
    trace::Span span("lower", op);
    sv::ir::LowerOptions options;
    options.model = parsed.model;
    module = sv::ir::lower(parsed.tu, options);
  }
  {
    trace::Span span("lint.ir", op);
    const auto d = sv::lint::runIr(module);
    diags.insert(diags.end(), d.begin(), d.end());
  }
  {
    trace::Span span("lint.deps", op);
    const auto d = sv::lint::runDeps(module, {.unit = &parsed.tu});
    diags.insert(diags.end(), d.begin(), d.end());
  }
  {
    trace::Span span("lint.range", op);
    const auto d = sv::lint::runRange(module);
    diags.insert(diags.end(), d.begin(), d.end());
  }
  {
    trace::Span span("trees", op);
    (void)sv::ir::buildIrTree(module);
  }
  checks.expect(diags == stored.lint,
                "ingest: traced lint of " + cmd.file + " differs from the DB");

  sv::db::UnitEntry signedUnit;
  signedUnit.tsrc = stored.tsrc;
  signedUnit.tsrcPp = stored.tsrcPp;
  signedUnit.tsem = stored.tsem;
  signedUnit.tsemI = stored.tsemI;
  signedUnit.tir = stored.tir;
  {
    trace::Span span("sign", op);
    signedUnit.computeSignatures();
  }
  checks.expect(signedUnit.sigTsrc == stored.sigTsrc && signedUnit.sigTsrcPp == stored.sigTsrcPp &&
                    signedUnit.sigTsem == stored.sigTsem &&
                    signedUnit.sigTsemI == stored.sigTsemI && signedUnit.sigTir == stored.sigTir,
                "ingest: traced signatures of " + cmd.file + " differ from the DB");
}

void tracedLayers(const std::vector<Codebase> &codebases, const std::vector<CodebaseDb> &dbs,
                  usize threads, Checks &checks, u64 &vmSteps) {
  struct Item {
    usize port, command;
  };
  std::vector<Item> items;
  for (usize p = 0; p < codebases.size(); ++p)
    for (usize c = 0; c < codebases[p].commands.size(); ++c) items.push_back({p, c});
  std::vector<Checks> perItem(items.size());
  const u64 parent = trace::current();
  sv::parallelFor(
      items.size(),
      [&](usize k) {
        trace::Adopt adopt(parent);
        const auto [p, c] = items[k];
        tracedUnit(codebases[p], c, dbs[p].units[c], p + 1, perItem[k]);
      },
      threads);
  for (const auto &c : perItem) checks.add(c);

  std::vector<u64> steps(codebases.size());
  std::vector<Checks> perPort(codebases.size());
  sv::parallelFor(
      codebases.size(),
      [&](usize p) {
        trace::Adopt adopt(parent);
        const auto merged = sv::db::linkForExecution(codebases[p]);
        sv::vm::RunOptions options;
        options.fortran = dbs[p].fortran;
        sv::vm::RunResult run;
        {
          trace::Span span("vm", p + 1);
          run = sv::vm::run(merged, options);
        }
        steps[p] = run.steps;
        perPort[p].expect(run.coverage.lineHits == dbs[p].coverage.lineHits,
                          "ingest: traced coverage of " + dbs[p].app + "/" + dbs[p].model +
                              " differs from the DB");
      },
      threads);
  for (const auto &c : perPort) checks.add(c);
  vmSteps = 0;
  for (const u64 s : steps) vmSteps += s;
}

} // namespace

std::vector<Codebase> buildCorpus(usize threads) {
  std::vector<std::pair<std::string, std::string>> ports;
  for (const auto &app : sv::corpus::appNames())
    for (const auto &model : sv::corpus::modelsOf(app)) ports.emplace_back(app, model);
  std::vector<Codebase> out(ports.size());
  sv::parallelFor(
      ports.size(), [&](usize p) { out[p] = sv::corpus::make(ports[p].first, ports[p].second); },
      threads);
  return out;
}

double startPool(usize threads) {
  const auto t0 = Clock::now();
  sv::parallelFor(threads, [](usize) {}, threads);
  return secondsSince(t0);
}

SetUp setUp(usize threads, Checks &checks) {
  SetUp out;
  out.poolS = startPool(threads);
  sv::db::IndexOptions options;
  options.runCoverage = true;
  options.runLint = true;
  options.threads = threads;
  std::vector<double> corpusS, warmUpS, buildS;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    out.corpus = buildCorpus(threads);
    corpusS.push_back(secondsSince(t0));
    std::vector<const Codebase *> ptrs;
    for (const auto &cb : out.corpus) ptrs.push_back(&cb);
    (void)sv::db::indexBatch(ptrs, options);
    buildS.push_back(secondsSince(t0));
    warmUpS.push_back(buildS.back() - corpusS.back());
  }
  out.corpusS = median(corpusS);
  out.warmUpS = median(warmUpS);
  out.buildS = median(buildS);
  (void)drainRuntime(threads, checks);
  return out;
}

IngestOutputs ingestPass(const std::vector<Codebase> &codebases, usize threads, bool layers,
                         Checks *checks) {
  IngestOutputs out;
  trace::Span root("pass");
  std::vector<const Codebase *> ptrs;
  for (const auto &cb : codebases) ptrs.push_back(&cb);
  std::vector<sv::db::IndexResult> results;
  {
    trace::Span span("db.index");
    sv::db::IndexOptions options;
    options.runCoverage = true;
    options.runLint = true;
    options.threads = threads;
    results = sv::db::indexBatch(ptrs, options);
  }
  // Round-trip every DB on the T workers: serialise, deserialise, serialise.
  out.svdb.resize(results.size());
  std::vector<sv::u8> mismatch(results.size(), 0);
  const u64 parent = trace::current();
  sv::parallelFor(
      results.size(),
      [&](usize p) {
        trace::Adopt adopt(parent);
        std::vector<sv::u8> bytes, again;
        CodebaseDb loaded;
        {
          trace::Span span("db.serialise", p + 1);
          bytes = results[p].db.serialise();
        }
        {
          trace::Span span("db.deserialise", p + 1);
          loaded = CodebaseDb::deserialise(bytes);
        }
        {
          trace::Span span("db.serialise", p + 1);
          again = loaded.serialise();
        }
        mismatch[p] = again != bytes;
        out.svdb[p] = std::move(bytes);
      },
      threads);
  for (usize p = 0; p < results.size(); ++p) {
    out.roundTripMismatches += mismatch[p];
    for (const auto &u : results[p].db.units)
      for (const auto &d : u.lint)
        if (d.severity == sv::lint::Severity::Error) ++out.lintErrors;
  }
  std::vector<CodebaseDb> dbs;
  for (auto &r : results) dbs.push_back(std::move(r.db));
  std::vector<const CodebaseDb *> ptrDbs;
  for (const auto &db : dbs) ptrDbs.push_back(&db);
  out.treeNodes = treeNodes(ptrDbs);
  if (layers && checks) tracedLayers(codebases, dbs, threads, *checks, out.vmSteps);
  return out;
}

namespace {

void checkPass(const IngestOutputs &out, Checks &checks) {
  checks.expect(out.roundTripMismatches == 0,
                "ingest: " + std::to_string(out.roundTripMismatches) +
                    " DBs re-serialise to different bytes");
  checks.expect(out.svdb.size() == 46, "ingest: indexed " + std::to_string(out.svdb.size()) +
                                           " ports, expected 46");
  checks.expect(out.lintErrors == 0,
                "ingest: " + std::to_string(out.lintErrors) + " lint errors across the corpus");
}

/// Loops the dependence tier proves parallel across the corpus; the
/// corpus has held at least 242 since the value-range tier sharpened it.
usize provablyParallelLoops(const std::vector<Codebase> &corpus, Checks &checks) {
  usize n = 0;
  for (const auto &cb : corpus) n += sv::silvervale::depsCodebase(cb).provablyParallelCount();
  checks.expect(n >= 242, "ingest: only " + std::to_string(n) +
                              " provably parallel loops (expected >= 242)");
  return n;
}

u64 totalBytes(const IngestOutputs &out) {
  u64 n = 0;
  for (const auto &b : out.svdb) n += b.size();
  return n;
}

} // namespace

Outcome runIngest(const RunConfig &config) {
  Outcome outcome;
  auto &checks = outcome.checks;

  const auto setup = setUp(config.threads, checks);
  const auto &corpus = setup.corpus;

  if (!config.trace) {
    std::vector<double> passS;
    usize ports = 0;
    IngestOutputs first;
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      auto out = ingestPass(corpus, config.threads, false);
      passS.push_back(secondsSince(t0));
      (void)drainRuntime(config.threads, checks);
      ports += out.svdb.size();
      checkPass(out, checks);
      if (passS.size() == 1) {
        first = std::move(out);
      } else {
        checks.expect(out.svdb == first.svdb,
                      "ingest: a later pass produced different .svdb bytes");
      }
    } while (secondsSince(start) < config.seconds);
    const double wallS = secondsSince(start);
    (void)provablyParallelLoops(corpus, checks);
    const double portsPerS = static_cast<double>(ports) / wallS;
    outcome.endToEnd = {
        {"setup_s", setup.seconds(), "s"},
        {"latency_p50_ms", median(passS) * 1e3, "ms"},
        {"latency_p90_ms", percentile(passS, 90) * 1e3, "ms"},
        {"throughput_per_s", portsPerS, "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    outcome.named = {{"setup_s", setup.seconds(), "s"},
                     {"pool_start_s", setup.poolS, "s"},
                     {"corpus_s", setup.corpusS, "s"},
                     {"warmup_s", setup.warmUpS, "s"},
                     {"ingest_ports_per_s", portsPerS, "1/s"},
                     {"passes", static_cast<double>(passS.size()), "count"},
                     {"svdb_bytes", static_cast<double>(totalBytes(first)), "bytes"},
                     {"peak_rss_mb", peakRssMb(), "MB"}};
    return outcome;
  }

  // Traced run: the pass with the layer replay twice, untraced then traced,
  // so trace.overhead compares the same work with and without spans.
  std::map<std::string, double> values;
  auto t0 = Clock::now();
  const auto plain = ingestPass(corpus, config.threads, true, &checks);
  const double plainS = secondsSince(t0);
  const auto runtime = drainRuntime(config.threads, checks);
  checkPass(plain, checks);
  values["runtime.workers"] = static_cast<double>(runtime.workers);
  values["runtime.occupancy"] = runtime.occupancy();
  values["runtime.steals"] = static_cast<double>(runtime.steals);

  const auto before = sv::tree::TedEngine::global().stats();
  trace::setEnabled(true);
  t0 = Clock::now();
  const auto traced = ingestPass(corpus, config.threads, true, &checks);
  const double tracedS = secondsSince(t0);
  trace::setEnabled(false);
  const auto after = sv::tree::TedEngine::global().stats();
  (void)drainRuntime(config.threads, checks);
  checkPass(traced, checks);
  checks.expect(traced.svdb == plain.svdb, "ingest: traced pass produced different .svdb bytes");

  values["db.svdb_bytes"] = static_cast<double>(totalBytes(traced));
  values["vm.steps"] = static_cast<double>(traced.vmSteps);
  values["trees.nodes"] = static_cast<double>(traced.treeNodes);
  values["lint.errors"] = static_cast<double>(traced.lintErrors);
  values["deps.provably_parallel"] = static_cast<double>(provablyParallelLoops(corpus, checks));
  outcome.perLayer = finishTraced(config, values, before, after, tracedS / plainS - 1, checks);
  return outcome;
}

} // namespace perfbench
