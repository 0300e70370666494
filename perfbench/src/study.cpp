// `study`: the paper's whole workflow, app by app, from a cold TED engine.
#include <algorithm>
#include <cmath>

#include "expected_study.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "text/text.hpp"
#include "trace.hpp"
#include "tree/ted.hpp"
#include "workloads.hpp"

namespace perfbench {

using sv::metrics::Metric;
namespace silvervale = sv::silvervale;

namespace {

constexpr Metric kAbsolute[] = {Metric::SLOC, Metric::LLOC};
constexpr Metric kRelative[] = {Metric::Source, Metric::Tsrc, Metric::Tsem,
                                Metric::TsemInline, Metric::Tir};

void digestMatrix(Digest &d, const sv::analysis::DistanceMatrix &m) {
  for (const auto &l : m.labels) d.add(l);
  for (const double v : m.values) d.add(v);
}

std::string clusterDigest(const sv::analysis::DistanceMatrix &m) {
  std::vector<sv::analysis::Merge> merges;
  {
    trace::Span span("cluster");
    merges = sv::analysis::cluster(m);
  }
  Digest d;
  for (const auto &mg : merges) {
    d.add(static_cast<u64>(mg.left));
    d.add(static_cast<u64>(mg.right));
    d.add(mg.height);
  }
  return d.hex();
}

/// silvervale::divergenceMatrix rebuilt pair by pair: every entry is
/// max(d(a,b), d(b,a)) normalised, exactly as the library symmetrises.
sv::analysis::DistanceMatrix tracedMatrix(const silvervale::IndexedApp &app, Metric metric,
                                          usize threads, u64 op) {
  trace::Span span("matrix", op);
  sv::analysis::DistanceMatrix m;
  m.labels = app.modelNames();
  const usize n = app.models.size();
  m.values.assign(n * n, 0.0);
  std::vector<std::pair<usize, usize>> pairs;
  for (usize i = 0; i < n; ++i)
    for (usize j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  std::vector<double> results(pairs.size());
  const u64 parent = trace::current();
  sv::parallelFor(
      pairs.size(),
      [&](usize p) {
        trace::Adopt adopt(parent);
        trace::Span pairSpan("pair", op);
        const auto [i, j] = pairs[p];
        const double dij = tracedDiverge(app.models[i], app.models[j], metric, op).normalised();
        const double dji = tracedDiverge(app.models[j], app.models[i], metric, op).normalised();
        results[p] = std::max(dij, dji);
      },
      threads);
  for (usize p = 0; p < pairs.size(); ++p) m.set(pairs[p].first, pairs[p].second, results[p]);
  return m;
}

} // namespace

sv::metrics::Divergence tracedDiverge(const sv::db::CodebaseDb &c1, const sv::db::CodebaseDb &c2,
                                      Metric metric, u64 op) {
  trace::Span span("diverge", op);
  sv::metrics::Divergence out;
  for (const auto &[u1, u2] : sv::metrics::matchUnits(c1, c2)) {
    if (metric == Metric::Source) {
      const auto lines1 = u1 ? sv::str::splitLines(u1->normText) : std::vector<std::string>{};
      const auto lines2 = u2 ? sv::str::splitLines(u2->normText) : std::vector<std::string>{};
      if (!u1 || !u2) {
        out.distance += lines1.size() + lines2.size();
        out.dmaxEq7 += lines2.size();
        out.dmaxSym += lines1.size() + lines2.size();
        ++out.unmatchedUnits;
        continue;
      }
      trace::Span textSpan("text", op);
      out.distance += sv::text::diffDistance(lines1, lines2);
      out.dmaxEq7 += lines2.size();
      out.dmaxSym += lines1.size() + lines2.size();
      ++out.matchedUnits;
      continue;
    }
    if (!u1 || !u2) {
      const u64 n1 = u1 ? sv::metrics::metricTree(*u1, metric).size() : 0;
      const u64 n2 = u2 ? sv::metrics::metricTree(*u2, metric).size() : 0;
      out.distance += n1 + n2;
      out.dmaxEq7 += n2;
      out.dmaxSym += n1 + n2;
      ++out.unmatchedUnits;
      continue;
    }
    const auto &t1 = sv::metrics::metricTree(*u1, metric);
    const auto &t2 = sv::metrics::metricTree(*u2, metric);
    {
      trace::Span tedSpan("ted", op);
      out.distance += sv::tree::tedDispatch(t1, t2);
    }
    out.dmaxEq7 += t2.size();
    out.dmaxSym += t1.size() + t2.size();
    ++out.matchedUnits;
  }
  return out;
}

std::map<std::string, std::string> studyDeck(const std::vector<std::string> &apps, usize threads,
                                             bool traced,
                                             std::vector<silvervale::IndexedApp> *keep) {
  std::map<std::string, std::string> out;
  trace::Span deckSpan("deck");
  for (usize a = 0; a < apps.size(); ++a) {
    const auto &name = apps[a];
    // Operation ids are stable per app whatever the seeded order.
    const auto all = sv::corpus::appNames();
    const u64 op = static_cast<u64>(std::find(all.begin(), all.end(), name) - all.begin()) + 1;
    trace::Span appSpan("app", op);

    silvervale::IndexedApp app;
    {
      trace::Span span("db.index", op);
      silvervale::IndexAppOptions options;
      options.coverage = true;
      options.threads = threads;
      app = silvervale::indexApp(name, options);
    }
    for (const Metric metric : kAbsolute) {
      sv::analysis::DistanceMatrix m;
      {
        trace::Span span("matrix", op);
        m = silvervale::absoluteDifferenceMatrix(app, metric);
      }
      Digest d;
      digestMatrix(d, m);
      const auto key = name + "/" + std::string(sv::metrics::metricName(metric));
      out[key] = d.hex();
      out[key + "/cluster"] = clusterDigest(m);
    }
    for (const Metric metric : kRelative) {
      const auto m = traced ? tracedMatrix(app, metric, threads, op)
                            : silvervale::divergenceMatrix(app, metric);
      Digest d;
      digestMatrix(d, m);
      const auto key = name + "/" + std::string(sv::metrics::metricName(metric));
      out[key] = d.hex();
      out[key + "/cluster"] = clusterDigest(m);
    }
    {
      std::vector<sv::perf::NavPoint> nav;
      {
        trace::Span span("nav", op);
        nav = silvervale::navigationPoints(app);
      }
      Digest d;
      for (const auto &p : nav) {
        d.add(p.model);
        d.add(p.phiValue);
        d.add(p.tsem);
        d.add(p.tsrc);
      }
      out[name + "/nav"] = d.hex();
    }
    {
      Digest d;
      trace::Span span("perf", op);
      const auto perfs =
          sv::perf::simulateAll(silvervale::perfModels(app), silvervale::paperDeck(name));
      for (const auto &p : perfs) {
        const auto series = sv::perf::cascade(p);
        d.add(series.model);
        for (const auto &platform : series.platformOrder) d.add(platform);
        for (const double phi : series.phiAfterK) d.add(phi);
      }
      out[name + "/cascade"] = d.hex();
    }
    if (keep) keep->push_back(std::move(app));
  }
  return out;
}

namespace {

std::vector<std::string> seededAppOrder(u64 seed) {
  auto apps = sv::corpus::appNames();
  Rng rng(seed);
  rng.shuffle(apps);
  return apps;
}

std::string serialName(const std::string &app) {
  return app == "babelstream-fortran" ? "sequential" : "serial";
}

/// Every output of one deck against the recorded digests (outside the
/// timed region; run on every deck).
void checkDigests(const std::map<std::string, std::string> &digests, Checks &checks) {
  const auto &expected = expectedStudyDigests();
  checks.expect(digests.size() == expected.size(),
                "study: " + std::to_string(digests.size()) + " outputs, expected " +
                    std::to_string(expected.size()));
  for (const auto &[key, hex] : digests) {
    const auto it = expected.find(key);
    checks.expect(it != expected.end() && it->second == hex,
                  "study: digest of " + key + " is " + hex);
  }
}

/// The heavier cross-checks, once per run on one deck's indexed apps.
void checkStudy(const std::vector<silvervale::IndexedApp> &apps, u64 seed, Checks &checks) {
  // d(serial, serial) = 0 under every relative metric.
  for (const auto &app : apps) {
    const auto &serial = app.model(serialName(app.app));
    for (const Metric metric : kRelative)
      checks.expect(sv::metrics::diverge(serial, serial, metric).distance == 0,
                    "study: d(serial, serial) != 0 for " + app.app + " " +
                        std::string(sv::metrics::metricName(metric)));
  }

  // Fig 9/10: migrating the offload ports from CUDA costs more T_sem than
  // migrating them from serial.
  for (const auto &app : apps) {
    if (app.app != "tealeaf") continue;
    double fromSerial = 0, fromCuda = 0;
    for (const char *t : {"omp-target", "kokkos", "sycl-usm", "sycl-acc"}) {
      fromSerial +=
          sv::metrics::diverge(app.model("serial"), app.model(t), Metric::Tsem).normalised();
      fromCuda += sv::metrics::diverge(app.model("cuda"), app.model(t), Metric::Tsem).normalised();
    }
    checks.expect(fromCuda > fromSerial, "study: Fig 9/10 migration ordering does not hold");
  }

  // A seeded sample of unit pairs recomputed by the uncached Zhang-Shasha
  // reference, an algorithm independent of the engine's APTED-class path.
  // Pairs above kMaxCells DP cells are skipped to bound the check's time.
  constexpr u64 kMaxCells = 400'000;
  constexpr Metric kTree[] = {Metric::Tsrc, Metric::Tsem, Metric::TsemInline, Metric::Tir};
  Rng rng(seed ^ 0x5eed5eedull);
  usize sampled = 0;
  for (usize attempt = 0; attempt < 400 && sampled < 12; ++attempt) {
    const auto &app = apps[rng.below(apps.size())];
    const auto &a = app.models[rng.below(app.models.size())];
    const auto &b = app.models[rng.below(app.models.size())];
    const Metric metric = kTree[rng.below(4)];
    const auto pairs = sv::metrics::matchUnits(a, b);
    const auto &pick = pairs[rng.below(pairs.size())];
    if (!pick.u1 || !pick.u2) continue;
    const auto &t1 = sv::metrics::metricTree(*pick.u1, metric);
    const auto &t2 = sv::metrics::metricTree(*pick.u2, metric);
    if (static_cast<u64>(t1.size()) * t2.size() > kMaxCells) continue;
    sv::tree::TedOptions zs;
    zs.algo = sv::tree::TedAlgo::ZhangShasha;
    zs.useCache = false;
    ++sampled;
    checks.expect(sv::tree::ted(t1, t2, zs) == sv::tree::tedDispatch(t1, t2),
                  "study: engine TED differs from Zhang-Shasha on " + app.app + " " + a.model +
                      "/" + b.model + " " + pick.u1->role);
  }
  checks.expect(sampled == 12, "study: could not sample 12 unit pairs for the TED cross-check");
}

} // namespace

Outcome runStudy(const RunConfig &config) {
  Outcome outcome;
  auto &checks = outcome.checks;
  const auto order = seededAppOrder(config.seed);

  // Set-up: the shared pool. Each deck indexes its own apps (indexApp
  // builds the codebases), so there is no corpus to build beforehand.
  const double setupS = startPool(config.threads);

  if (!config.trace) {
    std::vector<double> deckS;
    std::vector<silvervale::IndexedApp> apps;
    double rssMb = 0; // through the first deck: later decks only add fragmentation
    const auto start = Clock::now();
    do {
      apps.clear();
      sv::tree::TedEngine::global().clear();
      const auto t0 = Clock::now();
      const auto digests = studyDeck(order, config.threads, false, &apps);
      deckS.push_back(secondsSince(t0));
      if (deckS.size() == 1) rssMb = peakRssMb();
      (void)drainRuntime(config.threads, checks);
      checkDigests(digests, checks);
    } while (secondsSince(start) < config.seconds);

    checkStudy(apps, config.seed, checks);
    double totalS = 0;
    for (const double s : deckS) totalS += s;
    const double portsPerS = 46.0 * static_cast<double>(deckS.size()) / totalS;
    outcome.endToEnd = {
        {"setup_s", setupS, "s"},
        {"latency_p50_ms", median(deckS) * 1e3, "ms"},
        {"latency_p90_ms", percentile(deckS, 90) * 1e3, "ms"},
        {"throughput_per_s", portsPerS, "1/s"},
        {"peak_rss_mb", rssMb, "MB"},
    };
    outcome.named = {{"setup_s", setupS, "s"},
                     {"study_s", median(deckS), "s"},
                     {"decks", static_cast<double>(deckS.size()), "count"},
                     {"peak_rss_mb", rssMb, "MB"}};
    return outcome;
  }

  // Traced run: one untraced deck, then the same deck traced; both cold.
  std::map<std::string, double> values;
  sv::tree::TedEngine::global().clear();
  auto t0 = Clock::now();
  const auto plain = studyDeck(order, config.threads, false);
  const double plainS = secondsSince(t0);
  const auto runtime = drainRuntime(config.threads, checks);
  values["runtime.workers"] = static_cast<double>(runtime.workers);
  values["runtime.occupancy"] = runtime.occupancy();
  values["runtime.steals"] = static_cast<double>(runtime.steals);

  sv::tree::TedEngine::global().clear();
  const auto before = sv::tree::TedEngine::global().stats();
  std::vector<silvervale::IndexedApp> apps;
  trace::setEnabled(true);
  t0 = Clock::now();
  const auto traced = studyDeck(order, config.threads, true, &apps);
  const double tracedS = secondsSince(t0);
  trace::setEnabled(false);
  const auto after = sv::tree::TedEngine::global().stats();
  (void)drainRuntime(config.threads, checks);
  checks.expect(traced == plain, "study: traced deck outputs differ from the untraced deck");

  std::vector<const sv::db::CodebaseDb *> dbs;
  for (const auto &app : apps)
    for (const auto &m : app.models) dbs.push_back(&m);
  values["trees.nodes"] = static_cast<double>(treeNodes(dbs));
  outcome.perLayer = finishTraced(config, values, before, after, tracedS / plainS - 1, checks);
  checkDigests(traced, checks);
  checkStudy(apps, config.seed, checks);
  return outcome;
}

} // namespace perfbench
