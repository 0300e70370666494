// Tree Edit Distance (Section III-B). Three interchangeable algorithms:
//
//  * ZhangShasha — the classic left-path keyroot algorithm [Zhang & Shasha
//    1989]; O(n1*n2*min(depth,leaves)^2) time, O(n1*n2) space.
//  * PathStrategy — a whole-tree orientation pick: the relevant-subproblem
//    count of the left-path and right-path decompositions is computed first
//    and the cheaper one is executed on (possibly mirrored) trees.
//  * Apted — in the spirit of APTED/RTED [Pawlik & Augsten 2011/2016]: an
//    O(n1*n2) strategy DP picks, for *every subtree pair*, the cheapest
//    root-leaf path decomposition (left or right path, in either tree —
//    the inner/heavy path is approximated by decomposing the larger side)
//    using exact relevant-subproblem counts, and the distance phase
//    executes that plan recursively through single-path kernels. On the
//    deep, skewed T_ir trees the paper calls out (Section IV-E) this is a
//    multiplicative win over any whole-tree orientation.
//
// All three return identical distances on every input; ZhangShasha and
// PathStrategy stay selectable as the cross-check oracles for Apted (the
// fuzz `ted` round and tests/tree/ted_test.cpp assert the equality). Only
// Apted has a cached form (tree/tedengine.hpp); the two oracles always run
// here, uncached.
//
// Costs default to the paper's unit weight for delete/insert/relabel, but a
// TedCosts struct allows per-operation weights — the future-work knob the
// paper mentions ("adding new code may have a different productivity impact
// than removing existing code").
#pragma once

#include <functional>

#include "tree/tree.hpp"

namespace sv::tree {

struct TedCosts {
  u32 del = 1;    ///< cost of deleting a node of T1
  u32 ins = 1;    ///< cost of inserting a node of T2
  u32 rename = 1; ///< cost of relabelling when labels differ (equal labels cost 0)
};

enum class TedAlgo {
  ZhangShasha,  ///< always left-path decomposition
  PathStrategy, ///< choose left/right decomposition by whole-tree subproblem count
  Apted,        ///< per-subtree-pair optimal path strategy (the default)
};

struct TedOptions {
  TedAlgo algo = TedAlgo::Apted;
  TedCosts costs{};
  /// Consulted by `tedDispatch` (tree/tedengine.hpp): route Apted through
  /// the shared-view engine (true) or the uncached reference below (false).
  /// ZhangShasha and PathStrategy run uncached either way. `ted()` itself
  /// always runs uncached and ignores this flag.
  bool useCache = true;
  /// Early-abandon threshold. 0 (the default) computes the exact distance.
  /// With cutoff > 0 every TED entry point returns exactly
  /// `min(exact, cutoff)`: pairs whose admissible lower bound (see
  /// tree/tedbounds.hpp) already reaches the cutoff skip the DP entirely,
  /// and the whole-tree forest DP abandons once every completion of the
  /// current post-order prefix is provably >= cutoff. Deterministic and
  /// identical between the engine and the uncached reference, because a
  /// pair with exact < cutoff can never trip an admissible bound.
  u64 cutoff = 0;
};

/// d_TED(t1, t2): minimal total cost of node deletions, insertions and
/// relabellings transforming t1 into t2. All algorithms return identical
/// values; see tests/tree/ted_test.cpp for the cross-check property suite.
[[nodiscard]] u64 ted(const Tree &t1, const Tree &t2, const TedOptions &options = {});

/// Number of relevant subproblems the left-path (keyroot) decomposition
/// would solve; the PathStrategy estimator. Exposed for the ablation bench.
[[nodiscard]] u64 tedSubproblemsLeft(const Tree &t);
[[nodiscard]] u64 tedSubproblemsRight(const Tree &t);

/// The APTED-class core: per-tree indices, the strategy DP and the
/// single-path distance kernels. Exposed so the shared-view engine
/// (tree/tedengine) can cache indices and strategy matrices per tree /
/// tree pair, and so the ablation bench and tests can inspect strategy
/// costs directly. `ted()` with TedAlgo::Apted is the self-contained entry.
namespace apted {

/// One decomposition orientation of an indexed tree. Positions are 1-based
/// post-order indices *of this orientation* (the right orientation
/// traverses mirrored child order); `toCanon` maps them back to the
/// canonical (left post-order) ids the shared TD table is keyed by.
struct OrientIndex {
  std::vector<u32> label;     ///< [1..n] interned label id
  std::vector<u32> lml;       ///< [1..n] post-order index of the path-leaf descendant
  std::vector<u32> toCanon;   ///< [1..n] orientation position -> canonical position
  std::vector<u8> isPathChild; ///< [1..n] node is the first child of its parent (this orientation)
};

/// Everything the strategy DP and the distance kernels need for one tree,
/// built once in O(n). Canonical node ids are 1-based left post-order.
struct TreeIndex {
  usize n = 0;
  OrientIndex left;                       ///< canonical orientation (toCanon = identity)
  OrientIndex right;                      ///< mirrored child order
  std::vector<u32> canonToRight;          ///< [1..n] canonical -> right post-order position
  std::vector<u32> parent;                ///< [1..n] canonical parent (0 for the root)
  std::vector<std::vector<u32>> children; ///< [1..n] canonical ids, source order
  std::vector<u32> sz;                    ///< [1..n] subtree size
  std::vector<u64> krSumLeft;             ///< [1..n] keyroot relevant-forest sum, left paths
  std::vector<u64> krSumRight;            ///< [1..n] keyroot relevant-forest sum, right paths
  std::vector<u64> fp;                    ///< [1..n] Merkle subtree fingerprint (canonical order)
};

/// Index `t` for the Apted pipeline. `intern` supplies label ids; both
/// trees of a comparison must share one interner (the engine passes its
/// global one, `ted()` a per-call pair interner).
[[nodiscard]] TreeIndex buildIndex(const Tree &t,
                                   const std::function<u32(const std::string &)> &intern);

/// The four single-path decompositions the strategy DP chooses between:
/// decompose along the left/right root-leaf path of the first tree's
/// subtree, or of the second tree's subtree (the larger-side choice that
/// approximates the inner/heavy path).
enum class PathKind : u8 { LeftA = 0, RightA = 1, LeftB = 2, RightB = 3 };
[[nodiscard]] const char *pathKindName(PathKind k);

/// The per-subtree-pair decomposition plan. `pick[(v-1)*n2 + (w-1)]` holds
/// the PathKind for canonical subtree pair (v, w); `cost` is the exact
/// relevant-subproblem count of the optimal plan at the root pair (always
/// <= the best whole-tree orientation product).
struct Strategy {
  usize n1 = 0, n2 = 0;
  std::vector<u8> pick;
  u64 cost = 0;

  [[nodiscard]] PathKind at(usize v, usize w) const {
    return static_cast<PathKind>(pick[(v - 1) * n2 + (w - 1)]);
  }
};

/// The O(n1*n2) strategy DP over all subtree pairs, bottom-up in both
/// trees. Structural only: independent of TedCosts, so one matrix serves
/// every cost configuration of a tree pair (the engine caches it by
/// fingerprint pair).
[[nodiscard]] Strategy computeStrategy(const TreeIndex &a, const TreeIndex &b);

/// Execution counters for one distance run, attributed per path kind so
/// the bench can report the strategy-choice histogram.
struct RunCounters {
  u64 kernels[4] = {0, 0, 0, 0};     ///< single-path kernels executed, by PathKind
  u64 subproblems[4] = {0, 0, 0, 0}; ///< forest-DP cells computed, by PathKind
  u64 blockHits = 0;                 ///< subtree-pair TD rectangles replayed by fingerprint
};

/// Execute the strategy: recursively solve the subtree pairs hanging off
/// each chosen path, then run the single-path kernel for the path itself.
/// With `reuseBlocks`, repeated (fingerprint, fingerprint) subtree pairs
/// replay their TD rectangle instead of recomputing.
/// With `cutoff > 0` the whole-tree kernel early-abandons per the
/// TedOptions::cutoff contract and `run` returns exactly cutoff; pairs
/// that complete return the exact distance (callers clamp).
[[nodiscard]] u64 run(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy,
                      const TedCosts &costs, bool reuseBlocks, RunCounters *counters,
                      u64 cutoff = 0);

} // namespace apted

} // namespace sv::tree
