// Shared-view TED engine (the perf layer over tree/ted, Section VII): the
// pairwise TED calls over the cartesian product of model ports dominate
// end-to-end runtime, and the uncached `tree::ted()` rebuilds its per-tree
// indices and re-interns every label string per comparison. The engine is
// an Apted-only cache — the paper's TBMD uses one tree edit distance, and
// Zhang–Shasha / PathStrategy exist only as uncached oracles in tree/ted —
// that makes each pair cheap by precomputing per-tree structure once:
//
//  * a thread-safe global label interner (ids are append-only, so indices
//    built at different times stay comparable);
//  * a per-tree cached `TreeViews` — the `apted::TreeIndex` (both
//    decomposition orientations, Merkle-style subtree fingerprints) plus
//    the lower-bound signature — built once and shared across all
//    O(M^2 * U) comparisons. Views are keyed by (structural fingerprint,
//    node count), so byte-identical trees (shared headers across model
//    ports) share one view;
//  * an O(min(n1, n2)) whole-tree equality short-circuit (`ted == 0`);
//  * a symmetric pair memo keyed on (fingerprint, fingerprint, costs):
//    ted(a, b, {del, ins, ren}) == ted(b, a, {ins, del, ren}), so
//    diverge(a, b) and diverge(b, a) share the TED work and only the
//    asymmetric dmax/unmatched accounting is recomputed;
//  * strategy matrices cached per *canonical* (fp1, n1, fp2, n2) pair — the
//    DP always executes in the memo's canonical orientation (swapping trees
//    and del/ins together preserves the distance), so one strategy matrix
//    serves both query directions and, being cost-independent, every
//    TedCosts — and subtree-pair TD-rectangle reuse inside `apted::run`
//    (any repeated (fingerprint, fingerprint) subtree pair replays its TD
//    rectangle). Note the pair memo still answers same-cost repeats first:
//    within a single cost configuration strategy hits stay at zero by
//    design, and only distinct TedCosts (or cutoff-abandoned pairs that
//    are re-queried) reach the strategy cache.
//  * cutoff mode (TedOptions::cutoff > 0): the cached signature lower
//    bound (tree/tedbounds.hpp) answers `cutoff` outright when it reaches
//    the threshold; otherwise the DP runs with in-kernel early abandon.
//    Only exact results (below the cutoff) enter the pair memo.
//
// `tedDispatch` routes only TedAlgo::Apted through the engine; ZhangShasha
// and PathStrategy always run the uncached reference, so `--algo zs|ps`
// executes the algorithm it names. The engine is byte-identical to the
// uncached `tree::ted()` reference on every input (tests/tree/
// tedengine_test.cpp and the corpus parity suite check it against all
// three uncached algorithms); `tree::ted()` itself stays untouched.
#pragma once

#include <memory>

#include "tree/ted.hpp"
#include "tree/tedbounds.hpp"

namespace sv::tree {

/// Per-tree structure, built once and shared between all pairs the tree
/// participates in.
struct TreeViews {
  usize size = 0;
  u64 rootFp = 0; ///< Tree::fingerprint()
  /// Apted per-tree index (both orientations, canonical ids, keyroot sums,
  /// subtree fingerprints with `fp[size] == rootFp`), labelled through the
  /// engine's global interner. Null only for the empty tree.
  std::shared_ptr<const apted::TreeIndex> aptedIndex;
  /// Lower-bound signature (tree/tedbounds.hpp), cached with the index so
  /// cutoff-mode prechecks are O(|sig|) merges on re-query, no tree walk.
  std::shared_ptr<const BoundSignature> sig;
};

/// Cache-effectiveness counters, exposed for tests and the ted bench.
struct EngineStats {
  u64 viewHits = 0;            ///< views() served from the cache
  u64 viewMisses = 0;          ///< views() that had to build
  u64 memoHits = 0;            ///< ted() answered from the pair memo
  u64 memoMisses = 0;          ///< ted() that ran a DP
  u64 wholeTreeShortcuts = 0;  ///< ted() == 0 via equal root fingerprints
  u64 keyrootBlockHits = 0;    ///< always 0; kept for the benchmark's per-layer report
  u64 strategyHits = 0;        ///< Apted strategy matrices served from the cache
  u64 strategyMisses = 0;      ///< Apted strategy matrices computed
  u64 spfKernels[4] = {0, 0, 0, 0};     ///< single-path kernels run, by apted::PathKind
  u64 spfSubproblems[4] = {0, 0, 0, 0}; ///< forest-DP cells, by apted::PathKind
  u64 subtreeBlockHits = 0;    ///< Apted subtree-pair TD rectangles replayed
  // Cutoff-mode (TedOptions::cutoff > 0) outcome split. Every cutoff query
  // that is not a view shortcut or memo hit lands in exactly one bucket.
  u64 prunedByBound = 0;  ///< signature lower bound reached the cutoff: no DP at all
  u64 prunedByCutoff = 0; ///< DP resolved at the cutoff ceiling (abandoned, or exact == cutoff)
  u64 cutoffExact = 0;    ///< DP completed with an exact distance below the cutoff
};

/// Thread-safe cached TED evaluator. One global instance serves the whole
/// process (metrics::diverge, silvervale::divergenceMatrix, the benches);
/// independent instances can be created for isolation in tests.
class TedEngine {
public:
  TedEngine();
  ~TedEngine();

  TedEngine(const TedEngine &) = delete;
  TedEngine &operator=(const TedEngine &) = delete;

  /// The process-wide engine used by `tedDispatch`.
  static TedEngine &global();

  /// Cached Apted d_TED(a, b): byte-identical to `tree::ted(a, b, options)`
  /// for every algorithm, since all three return the same distance.
  /// Ignores `options.algo` (and `options.useCache`): the engine runs only
  /// Apted. Thread-safe; concurrent calls share views and memo entries.
  [[nodiscard]] u64 ted(const Tree &a, const Tree &b, const TedOptions &options = {});

  /// The shared view of `t`, building it on first use.
  /// Keyed by (fingerprint, size): structurally identical trees share.
  [[nodiscard]] std::shared_ptr<const TreeViews> views(const Tree &t);

  [[nodiscard]] EngineStats stats() const;

  /// Drop cached views, memo entries and stats. The label interner is kept:
  /// ids are append-only, so views still held by callers stay valid.
  void clear();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Route through the global engine when `options.useCache` (the default) and
/// `options.algo` is Apted (the default), or the uncached reference
/// `tree::ted()` otherwise — the engine on/off switch used by
/// metrics::diverge and the benches. ZhangShasha and PathStrategy always
/// run uncached.
[[nodiscard]] u64 tedDispatch(const Tree &a, const Tree &b, const TedOptions &options = {});

} // namespace sv::tree
