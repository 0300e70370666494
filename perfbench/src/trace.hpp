// Span tracer for the benchmark's traced runs. Every call the benchmark
// makes into a layer's public API is wrapped in a Span: name, start, end,
// the span that caused it and the operation (app, query, port) it serves.
// Spans stay in per-thread memory buffers while the workload runs and are
// collected and written out as Chrome trace-event JSON at the end; the
// per-layer metrics are computed from the collected records.
//
// A span's parent is the innermost open span of its thread; the first span
// a pool task opens inherits the parent its submitter captured with
// trace::current() and re-installed with trace::Adopt. Self time counts
// only same-thread children (children on other threads run concurrently
// with their parent and are not part of its interval's own work).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct SpanRecord {
  u64 id = 0;
  u64 parent = 0; ///< 0 for the root
  u64 op = 0;     ///< operation id shared by the spans of one request
  u64 tid = 0;    ///< recording thread (dense, per process)
  i64 startNs = 0;
  i64 endNs = 0;
  const char *name = ""; ///< static string
  [[nodiscard]] double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/// Turn recording on or off (off by default). Spans opened while off cost
/// one branch and record nothing.
void setEnabled(bool on);
[[nodiscard]] bool enabled();

class Span {
public:
  explicit Span(const char *name, u64 op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecord rec_;
  bool live_ = false;
};

/// The innermost open span of this thread (or the adopted parent), for
/// handing to pool tasks.
[[nodiscard]] u64 current();

/// Install `parent` as the parent of the outermost spans this thread opens
/// while the Adopt is alive.
class Adopt {
public:
  explicit Adopt(u64 parent);
  ~Adopt();
  Adopt(const Adopt &) = delete;
  Adopt &operator=(const Adopt &) = delete;

private:
  u64 saved_;
};

/// Move every recorded span out of the per-thread buffers, sorted by
/// (start, id). Call only while no span is open on any thread.
[[nodiscard]] std::vector<SpanRecord> collect();

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps
/// relative to the earliest span; args carry id, parent and op).
[[nodiscard]] std::string toChromeJson(const std::vector<SpanRecord> &spans);

/// Per-name aggregates of a span set.
struct NameStats {
  usize count = 0;
  double totalMs = 0; ///< summed durations
  double selfMs = 0;  ///< summed self times
  double maxMs = 0;
};
[[nodiscard]] std::map<std::string, NameStats> summarise(const std::vector<SpanRecord> &spans);

/// Self time of every span: its duration minus that of its same-thread
/// children. Indexed like `spans`.
[[nodiscard]] std::vector<double> selfTimesMs(const std::vector<SpanRecord> &spans);

/// Parse a Chrome trace written by toChromeJson with support/json and check
/// it: one root; every parent exists; every child lies inside its parent's
/// interval; same-thread siblings do not overlap; and for every thread-root
/// (the root, or a span whose parent ran on another thread) the self times
/// of its same-thread subtree sum to its duration. Returns the problems
/// found (empty when valid); `spanCount` receives the number of events.
[[nodiscard]] std::vector<std::string> validateChromeJson(const std::string &text,
                                                          usize *spanCount = nullptr);

} // namespace perfbench::trace
