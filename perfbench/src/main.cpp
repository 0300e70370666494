// perfbench: the SilverVale end-to-end benchmark.
//
//   perfbench --workload study|query|ingest [--seed N] [--seconds S]
//             [--trace 0|1] [--trace-out FILE] [--git-sha SHA]
//   perfbench --print-digests
//
// Untraced runs (--trace 0) report the end-to-end metrics, traced runs the
// per-layer ones and a Chrome trace in --trace-out. The next-to-last line of
// standard output is a report (host metadata, the workload's named metrics,
// failed_share, missed checks); the last line is the result object
// {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "support/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string metricsObject(const std::vector<Measure> &metrics) {
  std::string out = "{";
  char buf[256];
  for (usize i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

[[noreturn]] void usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload study|query|ingest [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--git-sha SHA]\n"
               "       perfbench --print-digests\n",
               why);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  RunConfig config;
  config.threads = std::clamp<usize>(std::thread::hardware_concurrency(), 1, 4);
  std::string gitSha = "unknown";
  bool printDigests = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-digests") {
      printDigests = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") config.workload = value;
      else if (arg == "--seed") config.seed = std::stoull(value);
      else if (arg == "--seconds") config.seconds = std::stod(value);
      else if (arg == "--trace") config.trace = std::stoi(value) != 0;
      else if (arg == "--trace-out") config.traceOut = value;
      else if (arg == "--git-sha") gitSha = value;
      else usage(("unknown flag " + arg).c_str());
    } catch (const std::logic_error &) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (config.traceOut.empty()) config.traceOut = "perfbench_trace_" + config.workload + ".json";

  // Size the shared pool before anything parallel runs: it is built lazily
  // at the thread count configured at that moment and can never grow.
  sv::configureThreads(config.threads);

  Outcome outcome;
  try {
    if (printDigests) {
      const auto digests = studyDeck(sv::corpus::appNames(), config.threads, false);
      for (const auto &[key, hex] : digests)
        std::printf("      {\"%s\", \"%s\"},\n", key.c_str(), hex.c_str());
      return 0;
    }
    if (config.workload == "study") outcome = runStudy(config);
    else if (config.workload == "query") outcome = runQuery(config);
    else if (config.workload == "ingest") outcome = runIngest(config);
    else usage("unknown workload");
  } catch (const std::exception &e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  const auto &checks = outcome.checks;
  const usize attempted = std::max<usize>(checks.attempted, 1);
  auto named = outcome.named;
  named.push_back({"failed_share",
                   static_cast<double>(checks.failed) / static_cast<double>(attempted), "ratio"});
  if (!releaseBuild())
    std::fprintf(stderr,
                 "perfbench: WARNING: not a Release build (%s); timings are not comparable\n",
                 PERFBENCH_BUILD_TYPE);

  sv::json::Array misses;
  for (usize i = 0; i < checks.misses.size() && i < 20; ++i) misses.emplace_back(checks.misses[i]);
  for (const auto &m : checks.misses)
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  sv::json::Object report;
  report.emplace("workload", sv::json::Value(config.workload));
  report.emplace("traced", sv::json::Value(config.trace));
  report.emplace("host", hostMetadata(config, gitSha));
  report.emplace("misses", sv::json::Value(std::move(misses)));
  std::string reportText = sv::json::write(sv::json::Value(std::move(report)));
  reportText.pop_back(); // reopen the object to append the metrics verbatim
  std::printf("%s, \"named_metrics\": %s}\n", reportText.c_str(), metricsObject(named).c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false", attempted, checks.failed,
              metricsObject(config.trace ? outcome.perLayer : outcome.endToEnd).c_str());
  return 0;
}
