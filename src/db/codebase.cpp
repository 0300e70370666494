#include "db/codebase.hpp"

#include <set>

#include "ir/irtree.hpp"
#include "lint/depslint.hpp"
#include "lint/irlint.hpp"
#include "lint/rangelint.hpp"
#include "minic/inliner.hpp"
#include "minic/lexer.hpp"
#include "minic/parser.hpp"
#include "minic/preprocessor.hpp"
#include "minic/sema.hpp"
#include "minic/semtree.hpp"
#include "minic/srctree.hpp"
#include "minif/fparser.hpp"
#include "minif/ftrees.hpp"
#include "support/compress.hpp"
#include "support/strings.hpp"
#include "text/text.hpp"

namespace sv::db {

namespace {

std::string fileStem(const std::string &path) {
  auto slash = path.rfind('/');
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// The unit's own files: the TU plus its non-system resolved includes.
std::vector<i32> unitFiles(const Codebase &cb, i32 mainFile,
                           const minic::PreprocessResult &pp) {
  std::vector<i32> out{mainFile};
  for (const auto &inc : pp.includes) {
    // Mirror the preprocessor's resolution order: includer-relative, exact,
    // then the include/ system prefix.
    i32 resolved = -1;
    if (inc.loc.file >= 0) {
      const auto &includer = cb.sources.file(inc.loc.file).name;
      if (const auto slash = includer.rfind('/'); slash != std::string::npos)
        if (const auto id = cb.sources.idOf(includer.substr(0, slash + 1) + inc.path))
          resolved = *id;
    }
    if (resolved < 0)
      if (const auto id = cb.sources.idOf(inc.path)) resolved = *id;
    if (resolved < 0)
      if (const auto id = cb.sources.idOf("include/" + inc.path)) resolved = *id;
    if (resolved < 0) continue;
    if (pp.systemFiles.count(resolved)) continue;
    if (std::find(out.begin(), out.end(), resolved) == out.end()) out.push_back(resolved);
  }
  return out;
}

// ---- the per-unit stage pipeline -----------------------------------------
//
// The old monolithic indexCxxUnit/indexFortranUnit bodies, cut at their
// natural seams into four stages so units stream through a task graph
// (support/pipeline.hpp): frontend (preprocess + parse + sema + AST-tier
// lint) → trees (perceived-metric inputs + the four frontend trees) →
// lower (backend IR + the IR/deps/range lint tiers + T_ir) → sign (bound
// signatures). Every stage is a pure function of the carried state, so the
// stage cut lines cannot change any output byte.

/// The state of one translation unit in flight between stages.
struct UnitWork {
  const Codebase *cb = nullptr;
  const CompileCommand *cmd = nullptr;
  bool runLint = false;
  bool fortran = false;
  i32 fileId = -1;
  minic::PreprocessResult pp; ///< C++ units only
  lang::ast::TranslationUnit tu;
  UnitEntry unit;
};

UnitWork unitFrontend(UnitWork w) {
  const Codebase &cb = *w.cb;
  const CompileCommand &cmd = *w.cmd;
  const auto fileId = cb.sources.idOf(cmd.file);
  SV_CHECK(fileId.has_value(), "compile command references unknown file " + cmd.file);
  w.fileId = *fileId;
  w.unit.file = cmd.file;
  w.unit.role = fileStem(cmd.file);
  if (w.fortran) {
    w.unit.fortran = true;
    const auto toks = minif::lexFortran(cb.sources.file(w.fileId).text, w.fileId);
    w.tu = minif::parseFortran(toks, cmd.file, cb.sources);
    if (w.runLint) w.unit.lint = lint::run(w.tu);
  } else {
    minic::PreprocessOptions ppOpts;
    ppOpts.defines = definesFromCommand(cmd);
    w.pp = minic::preprocess(cb.sources, w.fileId, ppOpts);
    const auto ppToks = minic::lex(w.pp.text, w.fileId, &w.pp.lineOrigins);
    w.tu = minic::parseTranslationUnit(ppToks, cmd.file, cb.sources);
    w.tu.includes = w.pp.includes;
    minic::analyse(w.tu);
    if (w.runLint) w.unit.lint = lint::run(w.tu);
  }
  return w;
}

UnitWork unitTrees(UnitWork w) {
  const Codebase &cb = *w.cb;
  auto &unit = w.unit;
  if (w.fortran) {
    const auto &text = cb.sources.file(w.fileId).text;
    unit.normText = text::normalise(text, minif::fortranCommentRanges(text));
    unit.sloc = text::sloc(unit.normText);
    unit.lloc = text::lloc(unit.normText, /*fortran=*/true);
    // Fortran has no preprocessing phase here; +pp variants alias the base.
    unit.normTextPp = unit.normText;
    unit.slocPp = unit.sloc;
    unit.llocPp = unit.lloc;

    const auto toks = minif::lexFortran(text, w.fileId);
    unit.tsrc = minif::buildFortranSrcTree(toks);
    unit.tsrcPp = unit.tsrc;
    unit.tsem = minif::buildFortranSemTree(w.tu);
    unit.tsemI = unit.tsem; // inlining is not implemented for GFortran (IV-B)
    return w;
  }

  const auto &pp = w.pp;
  // ---- perceived metric inputs -----------------------------------------
  const auto files = unitFiles(cb, w.fileId, pp);
  for (usize i = 1; i < files.size(); ++i)
    unit.deps.push_back(cb.sources.file(files[i]).name);
  for (const i32 f : files) {
    const auto &text = cb.sources.file(f).text;
    unit.normText += text::normalise(text, minic::commentRanges(text));
  }
  unit.sloc = text::sloc(unit.normText);
  unit.lloc = text::lloc(unit.normText);

  // +pp: preprocessed text with system-origin lines removed.
  {
    const auto lines = str::splitLines(pp.text);
    std::string kept;
    for (usize i = 0; i < lines.size(); ++i) {
      const auto origin = i < pp.lineOrigins.size() ? pp.lineOrigins[i]
                                                    : lang::Location{};
      if (origin.file >= 0 && pp.systemFiles.count(origin.file)) continue;
      kept += lines[i];
      kept += '\n';
    }
    unit.normTextPp = text::normalise(kept);
    unit.slocPp = text::sloc(unit.normTextPp);
    unit.llocPp = text::lloc(unit.normTextPp);
  }

  // ---- T_src ----------------------------------------------------------
  {
    // Per-file token trees grafted under a unit root.
    unit.tsrc = tree::Tree::leaf("unit");
    for (const i32 f : files) {
      const auto toks = minic::lex(cb.sources.file(f).text, f, nullptr, /*allowDirectives=*/true);
      unit.tsrc.graft(0, minic::buildSrcTree(toks));
    }
    const auto ppToks = minic::lex(pp.text, w.fileId, &pp.lineOrigins);
    // Preprocessed tree keeps system tokens out via pruning on file origin.
    auto full = minic::buildSrcTree(ppToks);
    unit.tsrcPp = full.pruneWhere([&](const tree::Node &n) {
      return n.file < 0 || pp.systemFiles.count(n.file) == 0;
    });
  }

  minic::SemTreeOptions semOpts;
  for (const i32 f : pp.systemFiles) semOpts.maskedFiles.insert(f);
  unit.tsem = minic::buildSemTree(w.tu, semOpts);

  {
    // TranslationUnit holds unique_ptrs; clone explicitly for the inliner.
    const auto &tu = w.tu;
    lang::ast::TranslationUnit clone;
    clone.fileName = tu.fileName;
    clone.includes = tu.includes;
    clone.programName = tu.programName;
    for (const auto &s : tu.structs) {
      lang::ast::StructDecl sc;
      sc.name = s.name;
      sc.loc = s.loc;
      for (const auto &f : s.fields) sc.fields.push_back(lang::ast::cloneParam(f));
      clone.structs.push_back(std::move(sc));
    }
    for (const auto &g : tu.globals) {
      lang::ast::GlobalVarDecl gg;
      gg.var = lang::ast::cloneVarDecl(g.var);
      gg.attributes = g.attributes;
      gg.loc = g.loc;
      clone.globals.push_back(std::move(gg));
    }
    for (const auto &f : tu.functions) clone.functions.push_back(lang::ast::cloneFunction(f));
    minic::InlineOptions inlOpts;
    inlOpts.systemFiles = {pp.systemFiles.begin(), pp.systemFiles.end()};
    minic::inlineUnit(clone, inlOpts);
    unit.tsemI = minic::buildSemTree(clone, semOpts);
  }
  return w;
}

UnitWork unitLower(UnitWork w) {
  auto &unit = w.unit;
  ir::LowerOptions lowOpts;
  lowOpts.model = modelFromCommand(*w.cmd);
  const auto module = ir::lower(w.tu, lowOpts);
  if (w.runLint) {
    auto irDiags = lint::runIr(module);
    unit.lint.insert(unit.lint.end(), irDiags.begin(), irDiags.end());
    auto depDiags = lint::runDeps(module, {.unit = &w.tu});
    unit.lint.insert(unit.lint.end(), depDiags.begin(), depDiags.end());
    auto rangeDiags = lint::runRange(module);
    unit.lint.insert(unit.lint.end(), rangeDiags.begin(), rangeDiags.end());
  }
  if (w.fortran) {
    unit.tir = ir::buildIrTree(module);
  } else {
    auto irTree = ir::buildIrTree(module);
    // Mask functions/globals defined in system headers out of T_ir.
    unit.tir = irTree.pruneWhere([&](const tree::Node &n) {
      const bool isTopLevel = str::startsWith(n.label, "Function:");
      if (!isTopLevel) return true;
      return n.file < 0 || w.pp.systemFiles.count(n.file) == 0;
    });
  }
  return w;
}

UnitEntry unitSign(UnitWork w) {
  w.unit.computeSignatures();
  return std::move(w.unit);
}

} // namespace

lang::ast::TranslationUnit linkForExecution(const Codebase &codebase) {
  lang::ast::TranslationUnit merged;
  merged.fileName = codebase.app + "/" + codebase.model;
  for (const auto &cmd : codebase.commands) {
    const auto fileId = codebase.sources.idOf(cmd.file);
    SV_CHECK(fileId.has_value(), "link: unknown file " + cmd.file);
    if (isFortranFile(cmd.file)) {
      auto tu = minif::parseFortran(
          minif::lexFortran(codebase.sources.file(*fileId).text, *fileId), cmd.file,
          codebase.sources);
      for (auto &f : tu.functions) merged.functions.push_back(std::move(f));
      for (auto &g : tu.globals) merged.globals.push_back(std::move(g));
      for (auto &s : tu.structs) merged.structs.push_back(std::move(s));
      if (!tu.programName.empty()) merged.programName = tu.programName;
    } else {
      minic::PreprocessOptions ppOpts;
      ppOpts.defines = definesFromCommand(cmd);
      const auto pp = minic::preprocess(codebase.sources, *fileId, ppOpts);
      const auto toks = minic::lex(pp.text, *fileId, &pp.lineOrigins);
      auto tu = minic::parseTranslationUnit(toks, cmd.file, codebase.sources);
      minic::analyse(tu);
      for (auto &f : tu.functions) {
        // Only definitions matter to the VM; headers spliced into several
        // TUs would otherwise duplicate them — keep the first definition.
        if (!f.body) continue;
        const bool dup = std::any_of(merged.functions.begin(), merged.functions.end(),
                                     [&](const auto &existing) { return existing.name == f.name; });
        if (!dup) merged.functions.push_back(std::move(f));
      }
      for (auto &g : tu.globals) {
        const bool dup = std::any_of(merged.globals.begin(), merged.globals.end(),
                                     [&](const auto &e) { return e.var.name == g.var.name; });
        if (!dup) merged.globals.push_back(std::move(g));
      }
      for (auto &s : tu.structs) merged.structs.push_back(std::move(s));
    }
  }
  return merged;
}

ParsedUnit parseUnit(const Codebase &codebase, const CompileCommand &cmd) {
  const auto fileId = codebase.sources.idOf(cmd.file);
  SV_CHECK(fileId.has_value(), "parseUnit: unknown file " + cmd.file);
  ParsedUnit u;
  u.file = cmd.file;
  u.model = modelFromCommand(cmd);
  if (isFortranFile(cmd.file)) {
    u.fortran = true;
    u.tu = minif::parseFortran(
        minif::lexFortran(codebase.sources.file(*fileId).text, *fileId), cmd.file,
        codebase.sources);
  } else {
    minic::PreprocessOptions ppOpts;
    ppOpts.defines = definesFromCommand(cmd);
    const auto pp = minic::preprocess(codebase.sources, *fileId, ppOpts);
    const auto toks = minic::lex(pp.text, *fileId, &pp.lineOrigins);
    u.tu = minic::parseTranslationUnit(toks, cmd.file, codebase.sources);
    u.tu.includes = pp.includes;
    minic::analyse(u.tu);
  }
  return u;
}

std::vector<ParsedUnit> parseUnits(const Codebase &codebase) {
  std::vector<ParsedUnit> out;
  for (const auto &cmd : codebase.commands) out.push_back(parseUnit(codebase, cmd));
  return out;
}

LoweredUnit lowerParsed(ParsedUnit parsed) {
  LoweredUnit u;
  u.file = std::move(parsed.file);
  u.model = parsed.model;
  ir::LowerOptions lowOpts;
  lowOpts.model = parsed.model;
  u.module = ir::lower(parsed.tu, lowOpts);
  return u;
}

std::vector<LoweredUnit> lowerUnits(const Codebase &codebase) {
  std::vector<LoweredUnit> out;
  for (auto &parsed : parseUnits(codebase)) out.push_back(lowerParsed(std::move(parsed)));
  return out;
}

std::vector<IndexResult> indexBatch(const std::vector<const Codebase *> &codebases,
                                    const IndexOptions &options) {
  std::vector<IndexResult> results(codebases.size());

  // Per-codebase DB headers and unit-slot offsets (serial: cheap metadata).
  std::vector<usize> unitBase(codebases.size(), 0);
  std::vector<UnitWork> work;
  for (usize c = 0; c < codebases.size(); ++c) {
    const Codebase &cb = *codebases[c];
    auto &out = results[c].db;
    out.app = cb.app;
    out.model = cb.model;
    out.fortran = !cb.commands.empty() && isFortranFile(cb.commands[0].file);
    out.modelKind = cb.commands.empty() ? ir::Model::Serial : modelFromCommand(cb.commands[0]);
    for (const auto &f : cb.sources.files()) out.fileNames.push_back(f.name);
    unitBase[c] = work.size();
    for (const auto &cmd : cb.commands) {
      UnitWork w;
      w.cb = &cb;
      w.cmd = &cmd;
      w.runLint = options.runLint;
      w.fortran = isFortranFile(cmd.file);
      work.push_back(std::move(w));
    }
  }

  // One shared stage pipeline over the flattened unit stream: unit A can be
  // lowering while unit B is still in sema, across codebase boundaries.
  // Results land in indexed slots, so completion order never shows in the DB.
  Pipeline<UnitWork, UnitWork, UnitWork, UnitWork, UnitEntry> pipe("db-index");
  pipe.stage<0>("frontend", [](UnitWork &&w, usize) { return unitFrontend(std::move(w)); });
  pipe.stage<1>("trees", [](UnitWork &&w, usize) { return unitTrees(std::move(w)); });
  pipe.stage<2>("lower", [](UnitWork &&w, usize) { return unitLower(std::move(w)); });
  pipe.stage<3>("sign", [](UnitWork &&w, usize) { return unitSign(std::move(w)); });
  PipeOptions pipeOptions;
  pipeOptions.mode = options.mode;
  pipeOptions.threads = options.threads;
  auto units = pipe.run(std::move(work), pipeOptions);

  for (usize c = 0; c < codebases.size(); ++c) {
    auto &out = results[c].db;
    const usize n = codebases[c]->commands.size();
    out.units.reserve(n);
    for (usize k = 0; k < n; ++k) out.units.push_back(std::move(units[unitBase[c] + k]));
  }

  if (options.runCoverage) {
    // Coverage executes the linked program per codebase — its own pool node,
    // downstream of indexing (the VM needs every TU of a codebase at once).
    TaskPool pool("db-coverage");
    pool.run(
        codebases.size(),
        [&](usize c) {
          auto &result = results[c];
          const auto merged = linkForExecution(*codebases[c]);
          auto vmOpts = options.vmOptions;
          vmOpts.fortran = result.db.fortran;
          auto runResult = vm::run(merged, vmOpts);
          result.db.coverage = runResult.coverage;
          result.db.hasCoverage = true;
          result.coverageRun = std::move(runResult);
        },
        pipeOptions);
  }
  return results;
}

IndexResult index(const Codebase &codebase, const IndexOptions &options) {
  return std::move(indexBatch({&codebase}, options).front());
}

// ------------------------------------------------------------ serialise --

namespace {

msgpack::Value treeToMsg(const tree::Tree &t) { return t.toMsgpack(); }

msgpack::Value diagToMsg(const lint::Diagnostic &d) {
  msgpack::Map m;
  m.emplace("check", static_cast<i64>(d.check));
  m.emplace("severity", static_cast<i64>(d.severity));
  m.emplace("file", static_cast<i64>(d.loc.file));
  m.emplace("line", static_cast<i64>(d.loc.line));
  m.emplace("col", static_cast<i64>(d.loc.col));
  m.emplace("symbol", d.symbol);
  m.emplace("directive", d.directive);
  m.emplace("message", d.message);
  return msgpack::Value(std::move(m));
}

lint::Diagnostic diagFromMsg(const msgpack::Value &v) {
  lint::Diagnostic d;
  d.check = static_cast<lint::Check>(v.at("check").asInt());
  d.severity = static_cast<lint::Severity>(v.at("severity").asInt());
  d.loc.file = static_cast<i32>(v.at("file").asInt());
  d.loc.line = static_cast<i32>(v.at("line").asInt());
  d.loc.col = static_cast<i32>(v.at("col").asInt());
  d.symbol = v.at("symbol").asString();
  d.directive = v.at("directive").asString();
  d.message = v.at("message").asString();
  return d;
}

msgpack::Value unitToMsg(const UnitEntry &u) {
  msgpack::Map m;
  m.emplace("file", u.file);
  m.emplace("role", u.role);
  m.emplace("fortran", u.fortran);
  msgpack::Array deps;
  for (const auto &d : u.deps) deps.emplace_back(d);
  m.emplace("deps", std::move(deps));
  m.emplace("normText", u.normText);
  m.emplace("normTextPp", u.normTextPp);
  m.emplace("sloc", u.sloc);
  m.emplace("lloc", u.lloc);
  m.emplace("slocPp", u.slocPp);
  m.emplace("llocPp", u.llocPp);
  m.emplace("tsrc", treeToMsg(u.tsrc));
  m.emplace("tsrcPp", treeToMsg(u.tsrcPp));
  m.emplace("tsem", treeToMsg(u.tsem));
  m.emplace("tsemI", treeToMsg(u.tsemI));
  m.emplace("tir", treeToMsg(u.tir));
  msgpack::Array sigs;
  for (const auto *s : {&u.sigTsrc, &u.sigTsrcPp, &u.sigTsem, &u.sigTsemI, &u.sigTir})
    sigs.push_back(s->toMsgpack());
  m.emplace("sigs", std::move(sigs));
  msgpack::Array lintArr;
  for (const auto &d : u.lint) lintArr.push_back(diagToMsg(d));
  m.emplace("lint", std::move(lintArr));
  return msgpack::Value(std::move(m));
}

UnitEntry unitFromMsg(const msgpack::Value &v) {
  UnitEntry u;
  u.file = v.at("file").asString();
  u.role = v.at("role").asString();
  u.fortran = v.at("fortran").asBool();
  for (const auto &d : v.at("deps").asArray()) u.deps.push_back(d.asString());
  u.normText = v.at("normText").asString();
  u.normTextPp = v.at("normTextPp").asString();
  u.sloc = static_cast<usize>(v.at("sloc").asInt());
  u.lloc = static_cast<usize>(v.at("lloc").asInt());
  u.slocPp = static_cast<usize>(v.at("slocPp").asInt());
  u.llocPp = static_cast<usize>(v.at("llocPp").asInt());
  u.tsrc = tree::Tree::fromMsgpack(v.at("tsrc"));
  u.tsrcPp = tree::Tree::fromMsgpack(v.at("tsrcPp"));
  u.tsem = tree::Tree::fromMsgpack(v.at("tsem"));
  u.tsemI = tree::Tree::fromMsgpack(v.at("tsemI"));
  u.tir = tree::Tree::fromMsgpack(v.at("tir"));
  const auto &m = v.asMap();
  if (const auto it = m.find("sigs"); it != m.end()) {
    // A missing or mis-sized signature would let tedLowerBound exceed the
    // exact distance, and the query layer would prune a true neighbour.
    const auto &sigs = it->second.asArray();
    const std::pair<tree::BoundSignature *, const tree::Tree *> fields[] = {
        {&u.sigTsrc, &u.tsrc}, {&u.sigTsrcPp, &u.tsrcPp}, {&u.sigTsem, &u.tsem},
        {&u.sigTsemI, &u.tsemI}, {&u.sigTir, &u.tir}};
    if (sigs.size() != std::size(fields))
      throw ParseError("codebase db: unit has " + std::to_string(sigs.size()) +
                       " signatures, want " + std::to_string(std::size(fields)));
    for (usize i = 0; i < sigs.size(); ++i) {
      const auto &[sig, t] = fields[i];
      *sig = tree::BoundSignature::fromMsgpack(sigs[i]);
      if (sig->n != t->size())
        throw ParseError("codebase db: signature " + std::to_string(i) + " covers " +
                         std::to_string(sig->n) + " nodes, its tree has " +
                         std::to_string(t->size()));
    }
  } else {
    // DB written before signatures existed: self-heal from the trees.
    u.computeSignatures();
  }
  for (const auto &d : v.at("lint").asArray()) u.lint.push_back(diagFromMsg(d));
  return u;
}

} // namespace

void UnitEntry::computeSignatures() {
  sigTsrc = tree::boundSignature(tsrc);
  sigTsrcPp = tree::boundSignature(tsrcPp);
  sigTsem = tree::boundSignature(tsem);
  sigTsemI = tree::boundSignature(tsemI);
  sigTir = tree::boundSignature(tir);
}

std::vector<u8> CodebaseDb::serialise() const {
  msgpack::Map m;
  m.emplace("app", app);
  m.emplace("model", model);
  m.emplace("modelKind", static_cast<i64>(modelKind));
  m.emplace("fortran", fortran);
  msgpack::Array names;
  for (const auto &n : fileNames) names.emplace_back(n);
  m.emplace("fileNames", std::move(names));
  msgpack::Array us;
  for (const auto &u : units) us.push_back(unitToMsg(u));
  m.emplace("units", std::move(us));
  m.emplace("hasCoverage", hasCoverage);
  msgpack::Array cov;
  for (const auto &[key, count] : coverage.lineHits) {
    msgpack::Array row;
    row.emplace_back(static_cast<i64>(key.first));
    row.emplace_back(static_cast<i64>(key.second));
    row.emplace_back(static_cast<i64>(count));
    cov.emplace_back(std::move(row));
  }
  m.emplace("coverage", std::move(cov));
  return svz::compress(msgpack::encode(msgpack::Value(std::move(m))));
}

CodebaseDb CodebaseDb::deserialise(const std::vector<u8> &bytes) {
  const auto v = msgpack::decode(svz::decompress(bytes));
  CodebaseDb db;
  db.app = v.at("app").asString();
  db.model = v.at("model").asString();
  db.modelKind = static_cast<ir::Model>(v.at("modelKind").asInt());
  db.fortran = v.at("fortran").asBool();
  for (const auto &n : v.at("fileNames").asArray()) db.fileNames.push_back(n.asString());
  for (const auto &u : v.at("units").asArray()) db.units.push_back(unitFromMsg(u));
  db.hasCoverage = v.at("hasCoverage").asBool();
  for (const auto &row : v.at("coverage").asArray()) {
    const auto &r = row.asArray();
    if (r.size() != 3)
      throw ParseError("codebase db: coverage row has " + std::to_string(r.size()) +
                       " fields, want 3");
    db.coverage.lineHits[{static_cast<i32>(r[0].asInt()), static_cast<i32>(r[1].asInt())}] =
        static_cast<u64>(r[2].asInt());
  }
  return db;
}

} // namespace sv::db
