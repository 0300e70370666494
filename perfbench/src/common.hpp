// Shared plumbing of the benchmark driver: run configuration, the result a
// workload hands back, timing and percentile helpers, the seeded generator,
// output digests, the worker-count guard and host metadata.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "db/codebase.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/pipeline.hpp"

namespace perfbench {

using sv::i64;
using sv::u64;
using sv::usize;

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  usize threads = 1;      ///< T = min(nproc, 4)
  std::string traceOut;   ///< Chrome trace-event JSON path (traced runs)
};

/// One reported number.
struct Measure {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Output checks of one run: every check is one attempted operation, every
/// miss one failure (failed_share = failed / attempted).
struct Checks {
  usize attempted = 0;
  usize failed = 0;
  std::vector<std::string> misses;

  void expect(bool ok, const std::string &what);
  void add(const Checks &other);
};

/// What a workload reports. `endToEnd` are the BENCHMARK.json metrics of
/// untraced runs (every workload reports the same names); `named` are the
/// workload's own end-to-end metrics under their descriptive names
/// (study_s, query_p50_ms, ...); `perLayer` come from traced runs.
struct Outcome {
  Checks checks;
  std::vector<Measure> endToEnd;
  std::vector<Measure> named;
  std::vector<Measure> perLayer;
};

// ---- timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peakRssMb();

// ---- seeded inputs -----------------------------------------------------------

/// splitmix64: the benchmark's only source of randomness, so a seed gives
/// the same inputs on every host and standard library.
class Rng {
public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next();
  /// Uniform in [0, n).
  usize below(usize n) { return static_cast<usize>(next() % n); }
  template <typename T> void shuffle(std::vector<T> &v) {
    for (usize i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

private:
  u64 state_;
};

/// FNV-1a over the values fed in: the fingerprint of an output.
class Digest {
public:
  void add(u64 v);
  void add(double v);
  void add(const std::string &s);
  [[nodiscard]] std::string hex() const;

private:
  u64 h_ = 1469598103934665603ull;
};

// ---- runtime guard -----------------------------------------------------------

/// Aggregate of the drained pipeline NodeStats of one pass.
struct RuntimeStats {
  usize workers = 0; ///< largest worker count any node reported
  usize steals = 0;
  double busyMs = 0;
  double capacityMs = 0; ///< sum of wall * workers
  [[nodiscard]] double occupancy() const { return capacityMs > 0 ? busyMs / capacityMs : 0; }
};

/// Drain the process-wide NodeStats registry and check that every node (and
/// every child) ran with exactly `threads` workers — the lazily sized shared
/// pool once left "4-thread" runs on 2 workers.
[[nodiscard]] RuntimeStats drainRuntime(usize threads, Checks &checks);

// ---- host ----------------------------------------------------------------------

/// Hardware threads, compiler, build type, git sha, seed and T.
[[nodiscard]] sv::json::Value hostMetadata(const RunConfig &config, const std::string &gitSha);
[[nodiscard]] bool releaseBuild();

/// Sum of the node counts of every tree a tree metric compares (Tsrc,
/// Tsem, Tsem+i, Tir) over a set of DBs: the size of the TED work.
[[nodiscard]] u64 treeNodes(const std::vector<const sv::db::CodebaseDb *> &dbs);

} // namespace perfbench
