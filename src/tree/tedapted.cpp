// The APTED-class TED core (tree/ted.hpp `apted` namespace): per-tree
// indices, the optimal path-strategy DP, and the single-path distance
// kernels that execute the plan recursively.
//
// Strategy over shape classes. The strategy DP is structural: the cost and
// pick of subtree pair (v, w) depend only on the label-free shapes of
// subtree(v) and subtree(w). `buildIndex` interns each tree's subtree
// shapes into exact classes (numbered by first post-order appearance, so
// children precede parents), and `computeStrategy` runs the recurrence
// over class pairs: m1*m2 cells instead of n1*n2, where program trees have
// few shapes (a 1680-node T_ir tree has 50). A class's cost/H_L/H_R rows
// (3*m2 u64) are recycled once its last parent class has read them, so
// the DP scratch is 3*m2 words per finished class with an unfinished
// parent, plus two H' rows; `run` looks up the pick of (shape[v], shape[w]).
//
// Correctness sketch. `run(v, w)` fills TD(a, b) for *every* pair
// a in subtree(v), b in subtree(w):
//  * decomposing in A (Left/RightA) recursively solves each subtree
//    hanging off the chosen root-leaf path of v against the whole of
//    subtree(w) (all x all by induction), then the single-path kernel —
//    one Zhang–Shasha keyroot iteration for the path, against every local
//    keyroot of w — fills path(v) x subtree(w). Path and hanging subtrees
//    partition subtree(v), so the union is all x all.
//  * decomposing in B is symmetric. The forest DP's jump reads only hit
//    entries one of those two sources has already produced (hanging pairs
//    recursively; on-path pairs in an earlier keyroot iteration), exactly
//    mirroring the classic Zhang–Shasha fill order.
// Right-path kernels operate on mirrored post-order views — mirroring both
// trees leaves the distance invariant — and translate positions back to
// canonical ids so all four kernels share one TD table.
//
// Dense layout:
//  * Cell width. Every TD/FD value is at most n1*del + n2*ins, and a cell
//    adds at most one more operation cost to such a value, so when
//    (n1 + n2 + 2) * max(del, ins, rename) < 2^32 nothing can wrap a u32.
//    `run` tests that at entry and instantiates the kernels on u32 cells,
//    else on u64 cells. Cutoff arithmetic stays u64.
//  * Row split. A forest-DP row belongs to one A node; rows off A's keyroot
//    path hold only jump cells and run without a test, and only rows on the
//    path test B's side (see runKernelPairs).
//  * Scratch. TD and FD live in a grow-only per-thread buffer that is
//    never cleared (see threadTables for why that is safe); it holds
//    2 * (n1+1) * (n2+1) cells of the largest pair the thread has run —
//    23 MB at u32 for two 1708-node trees — until the thread exits.
//  * Strategy picks are 2-bit PathKinds, four per byte, one per class pair
//    (Strategy::at): m1*m2/4 bytes.
#include "tree/ted.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <unordered_map>

#include "support/hash.hpp"

namespace sv::tree::apted {

namespace {

/// One post-order traversal: node ids in visit order plus the inverse map.
struct Traversal {
  std::vector<NodeId> order;
  std::vector<u32> pos; ///< node id -> 1-based post-order position
};

Traversal postorderOf(const Tree &t, bool mirrored) {
  Traversal tr;
  const usize n = t.size();
  tr.order.reserve(n);
  tr.pos.assign(n, 0);
  std::vector<std::pair<NodeId, usize>> stack{{0, 0}};
  while (!stack.empty()) {
    auto &[id, cursor] = stack.back();
    const auto &ch = t.node(id).children;
    if (cursor < ch.size()) {
      const NodeId next = mirrored ? ch[ch.size() - 1 - cursor] : ch[cursor];
      ++cursor;
      stack.emplace_back(next, 0);
    } else {
      tr.order.push_back(id);
      stack.pop_back();
    }
  }
  for (usize i = 0; i < tr.order.size(); ++i) tr.pos[tr.order[i]] = static_cast<u32>(i + 1);
  return tr;
}

OrientIndex makeOrient(const Tree &t, const Traversal &tr, bool mirrored,
                       const std::function<u32(const std::string &)> &intern,
                       const std::vector<u32> &canonPos) {
  OrientIndex v;
  const usize n = t.size();
  v.label.assign(n + 1, 0);
  v.lml.assign(n + 1, 0);
  v.toCanon.assign(n + 1, 0);
  v.isPathChild.assign(n + 1, 0);
  for (usize i = 1; i <= n; ++i) {
    const NodeId id = tr.order[i - 1];
    const auto &node = t.node(id);
    v.label[i] = intern(node.label);
    v.toCanon[i] = canonPos[id];
    const auto &ch = node.children;
    if (ch.empty()) {
      v.lml[i] = static_cast<u32>(i);
    } else {
      const NodeId first = mirrored ? ch.back() : ch.front();
      v.lml[i] = v.lml[tr.pos[first]];
      v.isPathChild[tr.pos[first]] = 1;
    }
  }
  return v;
}

/// Local keyroots of the subtree rooted at `root` (an orientation
/// position), ascending, into `out`: the root plus every proper descendant
/// that is not on its parent's path in this orientation.
void localKeyroots(const OrientIndex &v, u32 root, std::vector<u32> &out) {
  out.clear();
  for (u32 u = v.lml[root]; u < root; ++u)
    if (!v.isPathChild[u]) out.push_back(u);
  out.push_back(root);
}

/// The Zhang–Shasha forest DP over every (A keyroot, B keyroot) pair of the
/// given lists, in one orientation. Byte-identical recurrence to ted.cpp's
/// reference; TD reads/writes go through the canonical maps so left- and
/// right-orientation kernels share one table. Returns the DP cell count.
///
/// Rows are split by what the A node di needs: a row off A's keyroot path
/// (lml(di) != li) holds only jump cells, so it runs without a test; only
/// rows on the path test B's side. Each row hoists lml(di), the label and
/// the TD row of canon(di); the B side is read as slices starting at lj.
///
/// With `cutoff > 0`, the iteration spanning both *whole* trees (only ever
/// the root pair's final kernel) early-abandons: after filling prefix row
/// x, any complete edit mapping splits into a mapping between the
/// post-order prefixes A[1..x] / B[1..y] (costing >= FD(x, y), the true
/// prefix forest distance in that iteration) and a mapping between the
/// remainders (costing >= the size bound on them) — so
///   d(T1, T2) >= min_y ( FD(x, y) + sizeLB(fullA - x, fullB - y) ),
/// and once that reaches the cutoff no completion can beat it. Admissible:
/// never fires when the exact distance is below the cutoff. Only the
/// whole-tree span qualifies because inner iterations' FD rows are forest
/// distances of partial keyroot forests, not tree prefixes.
template <class Cell>
u64 runKernelPairs(const OrientIndex &A, const OrientIndex &B, std::span<const u32> aKrs,
                   std::span<const u32> bKrs, const TedCosts &costs, Cell *td, usize tdStride,
                   Cell *fd, usize fullA, usize fullB, u64 cutoff, bool *abandoned) {
  const Cell del = costs.del, ins = costs.ins, ren = costs.rename;
  u64 cells = 0;
  for (const u32 i : aKrs) {
    const u32 li = A.lml[i];
    const usize rows = i - li + 2; // forest prefixes 0..(i-li+1)
    for (const u32 j : bKrs) {
      const u32 lj = B.lml[j];
      const usize cols = j - lj + 2;
      // Column y (>= 1) is B node dj = lj + y - 1, so these slices are
      // indexed by y - 1.
      const u32 *bLml = B.lml.data() + lj;
      const u32 *bLabel = B.label.data() + lj;
      const u32 *bCanon = B.toCanon.data() + lj;
      const bool wholeSpan = cutoff > 0 && rows - 1 == fullA && cols - 1 == fullB;

      fd[0] = 0;
      for (usize y = 1; y < cols; ++y) fd[y] = fd[y - 1] + ins;

      for (usize x = 1; x < rows; ++x) {
        const u32 di = li + static_cast<u32>(x) - 1;
        const u32 aLml = A.lml[di];
        const Cell *up = fd + (x - 1) * cols;
        Cell *cur = fd + x * cols;
        Cell *tdRow = td + static_cast<usize>(A.toCanon[di]) * tdStride;
        // Jump cells read FD(lml(di) - li, lml(dj) - lj) + TD(di, dj).
        const Cell *jumpRow = fd + (aLml - li) * cols;
        Cell left = up[0] + del;
        cur[0] = left;
        if (aLml != li) {
          for (usize y = 1; y < cols; ++y) {
            const Cell sub = jumpRow[bLml[y - 1] - lj] + tdRow[bCanon[y - 1]];
            left = std::min({up[y] + del, left + ins, sub});
            cur[y] = left;
          }
        } else {
          const u32 aLabel = A.label[di];
          for (usize y = 1; y < cols; ++y) {
            const Cell delCost = up[y] + del;
            const Cell insCost = left + ins;
            if (bLml[y - 1] == lj) {
              const Cell r = aLabel == bLabel[y - 1] ? 0 : ren;
              left = std::min({delCost, insCost, up[y - 1] + r});
              tdRow[bCanon[y - 1]] = left;
            } else {
              left = std::min({delCost, insCost, jumpRow[bLml[y - 1] - lj] + tdRow[bCanon[y - 1]]});
            }
            cur[y] = left;
          }
        }
        if (wholeSpan) {
          const u64 remA = static_cast<u64>(fullA - x);
          u64 best = ~u64{0};
          for (usize y = 0; y < cols; ++y) {
            const u64 remB = static_cast<u64>(fullB - y);
            const u64 rem = remA >= remB ? (remA - remB) * costs.del : (remB - remA) * costs.ins;
            best = std::min(best, static_cast<u64>(cur[y]) + rem);
          }
          if (best >= cutoff) {
            cells += x * (cols - 1);
            *abandoned = true;
            return cells;
          }
        }
      }
      cells += (rows - 1) * (cols - 1);
    }
  }
  return cells;
}

/// Identifies one subtree pair's TD rectangle by content: equal keys imply
/// identical subtree labels/shapes on both sides, hence identical TD values
/// under the run's fixed costs.
struct BlockKey {
  u64 fa = 0, fb = 0;
  u32 na = 0, nb = 0;
  bool operator==(const BlockKey &) const = default;
};

struct BlockKeyHash {
  usize operator()(const BlockKey &k) const {
    return static_cast<usize>(
        hashCombine(hashCombine(k.fa, k.fb), (static_cast<u64>(k.na) << 32) | k.nb));
  }
};

} // namespace

const char *pathKindName(PathKind k) {
  switch (k) {
  case PathKind::LeftA: return "leftA";
  case PathKind::RightA: return "rightA";
  case PathKind::LeftB: return "leftB";
  case PathKind::RightB: return "rightB";
  }
  return "?";
}

namespace {

/// Interns label-free subtree shapes by their exact child-class sequence.
/// The hash only picks a chain; membership compares the sequences, so two
/// different shapes never share a class.
class ShapeInterner {
public:
  explicit ShapeInterner(ShapeClasses &classes) : classes_(classes) {
    classes_.childBegin.assign(1, 0);
  }

  u32 intern(std::span<const u32> kids) {
    u64 h = kids.size();
    for (const u32 c : kids) h = hashCombine(h, c);
    const auto [it, fresh] = heads_.try_emplace(h, kNone);
    for (u32 c = it->second; c != kNone; c = next_[c]) {
      const auto have = classes_.children(c);
      if (std::equal(have.begin(), have.end(), kids.begin(), kids.end())) return c;
    }
    // New class. krSum follows L(u) = span(u) + sum_c L(c) - span(pathChild),
    // where a node's relevant-forest span in either orientation is its
    // subtree size: the path child's own relevant forest merges into u's
    // extended span, every other child keeps its keyroots.
    const auto id = static_cast<u32>(classes_.size());
    u32 size = 1;
    u64 sumL = 0, sumR = 0;
    for (const u32 c : kids) {
      size += classes_.sz[c];
      sumL += classes_.krSumLeft[c];
      sumR += classes_.krSumRight[c];
    }
    classes_.child.insert(classes_.child.end(), kids.begin(), kids.end());
    classes_.childBegin.push_back(static_cast<u32>(classes_.child.size()));
    classes_.sz.push_back(size);
    classes_.krSumLeft.push_back(size + sumL - (kids.empty() ? 0 : classes_.sz[kids.front()]));
    classes_.krSumRight.push_back(size + sumR - (kids.empty() ? 0 : classes_.sz[kids.back()]));
    next_.push_back(it->second);
    it->second = id;
    return id;
  }

private:
  static constexpr u32 kNone = ~u32{0};
  ShapeClasses &classes_;
  std::unordered_map<u64, u32> heads_; ///< hash -> newest class with it
  std::vector<u32> next_;              ///< class -> older class with the same hash
};

} // namespace

TreeIndex buildIndex(const Tree &t, const std::function<u32(const std::string &)> &intern) {
  TreeIndex ix;
  ix.n = t.size();
  if (ix.n == 0) return ix;

  const auto L = postorderOf(t, false);
  const auto R = postorderOf(t, true);
  ix.left = makeOrient(t, L, false, intern, L.pos);
  ix.right = makeOrient(t, R, true, intern, L.pos);
  ix.canonToRight.assign(ix.n + 1, 0);
  for (usize r = 1; r <= ix.n; ++r) ix.canonToRight[ix.right.toCanon[r]] = static_cast<u32>(r);

  ix.children.assign(ix.n + 1, {});
  ix.sz.assign(ix.n + 1, 0);
  ix.fp.assign(ix.n + 1, 0);
  ix.shape.assign(ix.n + 1, 0);

  ShapeInterner shapes(ix.classes);
  std::vector<u32> kidShapes;
  for (u32 i = 1; i <= ix.n; ++i) {
    const auto &node = t.node(L.order[i - 1]);
    auto &ch = ix.children[i];
    ch.reserve(node.children.size());
    for (const NodeId c : node.children) ch.push_back(L.pos[c]);

    // Post-order: every child's aggregate is final here.
    u32 size = 1;
    u64 fp = fnv1a(node.label);
    kidShapes.clear();
    for (const u32 c : ch) {
      size += ix.sz[c];
      fp = hashCombine(fp, ix.fp[c]);
      kidShapes.push_back(ix.shape[c]);
    }
    ix.sz[i] = size;
    ix.fp[i] = fp;
    ix.shape[i] = shapes.intern(kidShapes);
  }
  return ix;
}

Strategy computeStrategy(const TreeIndex &a, const TreeIndex &b) {
  const ShapeClasses &A = a.classes, &B = b.classes;
  Strategy s;
  s.m1 = A.size();
  s.m2 = B.size();
  if (s.m1 == 0 || s.m2 == 0) return s;
  const usize m1 = s.m1, m2 = s.m2;
  s.pick.assign((m1 * m2 + 3) / 4, 0);

  // One row per A class, over B classes. cost(ca, cb) is the minimal
  // subproblem count of any subtree pair with those shapes; the H rows
  // accumulate the recursive cost of the subtree pairs hanging off each
  // candidate path:
  //   H_L(ca, cb)  = sum over subtrees hanging off ca's left path of cost(., cb)
  //                = H_L(first child) + sum over the other children's cost
  //   H'_L(ca, cb) = the symmetric sum for cb's left path (within-row, since
  //                  cb's children have smaller ids)
  // and right-path variants. A class's cost/H_L/H_R rows live until its
  // last parent class has read them, then their slot is recycled.
  constexpr u32 kNone = ~u32{0};
  std::vector<u32> lastParent(m1, kNone);
  for (u32 p = 0; p < m1; ++p)
    for (const u32 c : A.children(p)) lastParent[c] = p;

  std::vector<std::unique_ptr<u64[]>> slots; // 3 * m2 each: cost, H_L, H_R
  std::vector<u32> freeSlots;
  std::vector<u32> slotOf(m1, kNone);
  std::vector<u64> hplRow(m2), hprRow(m2);
  const auto rowsOf = [&](u32 c) { return slots[slotOf[c]].get(); };

  for (u32 ca = 0; ca < m1; ++ca) {
    if (freeSlots.empty()) {
      freeSlots.push_back(static_cast<u32>(slots.size()));
      slots.push_back(std::make_unique_for_overwrite<u64[]>(3 * m2));
    }
    slotOf[ca] = freeSlots.back();
    freeSlots.pop_back();
    u64 *const costRow = rowsOf(ca);
    u64 *const hlRow = costRow + m2;
    u64 *const hrRow = hlRow + m2;

    const auto chA = A.children(ca);
    if (chA.empty()) {
      std::fill(hlRow, hrRow + m2, 0);
    } else {
      const u64 *first = rowsOf(chA.front()), *last = rowsOf(chA.back());
      std::copy(first + m2, first + 2 * m2, hlRow);
      std::copy(last + 2 * m2, last + 3 * m2, hrRow);
      for (usize k = 0; k < chA.size(); ++k) {
        const u64 *childCost = rowsOf(chA[k]);
        if (k != 0)
          for (usize cb = 0; cb < m2; ++cb) hlRow[cb] += childCost[cb];
        if (k + 1 != chA.size())
          for (usize cb = 0; cb < m2; ++cb) hrRow[cb] += childCost[cb];
      }
    }

    const u64 szA = A.sz[ca];
    const u64 krLa = A.krSumLeft[ca], krRa = A.krSumRight[ca];
    for (u32 cb = 0; cb < m2; ++cb) {
      const auto chB = B.children(cb);
      u64 hpl = 0, hpr = 0;
      if (!chB.empty()) {
        hpl = hplRow[chB.front()];
        hpr = hprRow[chB.back()];
        for (usize k = 0; k < chB.size(); ++k) {
          if (k != 0) hpl += costRow[chB[k]];
          if (k + 1 != chB.size()) hpr += costRow[chB[k]];
        }
      }
      // Single-path kernel cost: the path-relevant forest of the
      // decomposed side (the whole subtree) against every local keyroot
      // forest of the other side.
      const u64 cLA = hlRow[cb] + szA * B.krSumLeft[cb];
      const u64 cRA = hrRow[cb] + szA * B.krSumRight[cb];
      const u64 cLB = hpl + static_cast<u64>(B.sz[cb]) * krLa;
      const u64 cRB = hpr + static_cast<u64>(B.sz[cb]) * krRa;

      u64 best = cLA;
      auto kind = PathKind::LeftA;
      if (cRA < best) { best = cRA; kind = PathKind::RightA; }
      if (cLB < best) { best = cLB; kind = PathKind::LeftB; }
      if (cRB < best) { best = cRB; kind = PathKind::RightB; }

      costRow[cb] = best;
      hplRow[cb] = hpl;
      hprRow[cb] = hpr;
      const usize k = static_cast<usize>(ca) * m2 + cb;
      s.pick[k / 4] |= static_cast<u8>(static_cast<u8>(kind) << (2 * (k % 4)));
    }

    for (const u32 c : chA) {
      if (lastParent[c] == ca && slotOf[c] != kNone) {
        freeSlots.push_back(slotOf[c]);
        slotOf[c] = kNone;
      }
    }
  }
  // The root is the only subtree of its size, so its class is the last one.
  s.cost = rowsOf(static_cast<u32>(m1 - 1))[m2 - 1];
  return s;
}

namespace {

/// Grow-only per-thread DP storage: `n` cells for the TD table followed by
/// `n` for the FD table, where n = (n1 + 1) * (n2 + 1) bounds both. It is
/// reused across runs and never cleared, which is safe because every TD
/// read hits a cell that an earlier kernel or a block replay wrote in the
/// same run (see the correctness sketch above), and every FD read hits a
/// cell written earlier in the same keyroot iteration. `run` spawns no
/// tasks, so a worker never re-enters it while its own run is under way.
/// The storage lives until the thread exits and holds, per cell width, 2n
/// cells of the largest pair that thread has run.
template <class Cell>
Cell *threadTables(usize n) {
  thread_local std::unique_ptr<Cell[]> cells;
  thread_local usize capacity = 0;
  if (n > capacity) {
    cells.reset();
    cells = std::make_unique_for_overwrite<Cell[]>(2 * n);
    capacity = n;
  }
  return cells.get();
}

template <class Cell>
u64 runCells(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy,
             const TedCosts &costs, bool reuseBlocks, RunCounters *counters, u64 cutoff) {
  const usize tdStride = b.n + 1;
  const usize tableCells = (a.n + 1) * tdStride;
  Cell *const td = threadTables<Cell>(tableCells);
  Cell *const fd = td + tableCells;
  thread_local std::vector<u32> keyroots;

  // Solved subtree-pair rectangles by content; repeats replay instead of
  // recomputing. Subtrees sharing a fingerprint are disjoint
  // (nesting would change the size), so rectangle copies never alias.
  std::unordered_map<BlockKey, std::pair<u32, u32>, BlockKeyHash> blocks;
  const auto blockKeyOf = [&](u32 v, u32 w) {
    return BlockKey{a.fp[v], b.fp[w], a.sz[v], b.sz[w]};
  };

  // Two-phase frames: phase 0 queues the subtree pairs hanging off the
  // chosen path, phase 1 (after they resolved) runs the path kernel.
  struct Frame {
    u32 v, w;
    u8 phase;
  };
  std::vector<Frame> stack;
  stack.push_back({static_cast<u32>(a.n), static_cast<u32>(b.n), 0});

  while (!stack.empty()) {
    const Frame f = stack.back();
    const u32 v = f.v, w = f.w;
    const PathKind kind = strategy.at(a.shape[v], b.shape[w]);

    if (f.phase == 0) {
      if (reuseBlocks) {
        const auto it = blocks.find(blockKeyOf(v, w));
        if (it != blocks.end()) {
          const auto [v0, w0] = it->second;
          const u32 dlv = a.left.lml[v], dlw = b.left.lml[w];
          const u32 slv = a.left.lml[v0], slw = b.left.lml[w0];
          const usize cols = w - dlw + 1;
          for (u32 r = 0; r <= v - dlv; ++r) {
            const Cell *src = td + static_cast<usize>(slv + r) * tdStride + slw;
            std::copy(src, src + cols, td + static_cast<usize>(dlv + r) * tdStride + dlw);
          }
          if (counters) ++counters->blockHits;
          stack.pop_back();
          continue;
        }
      }
      stack.back().phase = 1;
      switch (kind) {
      case PathKind::LeftA:
        for (u32 u = v; !a.children[u].empty(); u = a.children[u].front())
          for (usize c = 1; c < a.children[u].size(); ++c) stack.push_back({a.children[u][c], w, 0});
        break;
      case PathKind::RightA:
        for (u32 u = v; !a.children[u].empty(); u = a.children[u].back())
          for (usize c = 0; c + 1 < a.children[u].size(); ++c)
            stack.push_back({a.children[u][c], w, 0});
        break;
      case PathKind::LeftB:
        for (u32 u = w; !b.children[u].empty(); u = b.children[u].front())
          for (usize c = 1; c < b.children[u].size(); ++c) stack.push_back({v, b.children[u][c], 0});
        break;
      case PathKind::RightB:
        for (u32 u = w; !b.children[u].empty(); u = b.children[u].back())
          for (usize c = 0; c + 1 < b.children[u].size(); ++c)
            stack.push_back({v, b.children[u][c], 0});
        break;
      }
      continue;
    }

    stack.pop_back();
    u64 cells = 0;
    bool abandoned = false;
    switch (kind) {
    case PathKind::LeftA:
      localKeyroots(b.left, w, keyroots);
      cells = runKernelPairs<Cell>(a.left, b.left, {&v, 1}, keyroots, costs, td, tdStride, fd,
                                   a.n, b.n, cutoff, &abandoned);
      break;
    case PathKind::RightA: {
      const u32 vr = a.canonToRight[v];
      localKeyroots(b.right, b.canonToRight[w], keyroots);
      cells = runKernelPairs<Cell>(a.right, b.right, {&vr, 1}, keyroots, costs, td, tdStride,
                                   fd, a.n, b.n, cutoff, &abandoned);
      break;
    }
    case PathKind::LeftB:
      localKeyroots(a.left, v, keyroots);
      cells = runKernelPairs<Cell>(a.left, b.left, keyroots, {&w, 1}, costs, td, tdStride, fd,
                                   a.n, b.n, cutoff, &abandoned);
      break;
    case PathKind::RightB: {
      const u32 wr = b.canonToRight[w];
      localKeyroots(a.right, a.canonToRight[v], keyroots);
      cells = runKernelPairs<Cell>(a.right, b.right, keyroots, {&wr, 1}, costs, td, tdStride,
                                   fd, a.n, b.n, cutoff, &abandoned);
      break;
    }
    }
    if (counters) {
      ++counters->kernels[static_cast<usize>(kind)];
      counters->subproblems[static_cast<usize>(kind)] += cells;
    }
    // The whole-tree span only exists in the root pair's own kernel, so an
    // abandon here is the last kernel of the run anyway.
    if (abandoned) return cutoff;
    if (reuseBlocks) blocks.emplace(blockKeyOf(v, w), std::make_pair(v, w));
  }
  const u64 exact = td[static_cast<usize>(a.n) * tdStride + b.n];
  return cutoff ? std::min(exact, cutoff) : exact;
}

} // namespace

u64 run(const TreeIndex &a, const TreeIndex &b, const Strategy &strategy, const TedCosts &costs,
        bool reuseBlocks, RunCounters *counters, u64 cutoff) {
  if (a.n == 0) return std::min(static_cast<u64>(b.n) * costs.ins,
                                cutoff ? cutoff : ~u64{0});
  if (b.n == 0) return std::min(static_cast<u64>(a.n) * costs.del,
                                cutoff ? cutoff : ~u64{0});
  // The cell-width proof (see "Dense layout" above).
  const u64 maxCost = std::max({costs.del, costs.ins, costs.rename});
  if ((static_cast<u64>(a.n) + b.n + 2) * maxCost < (u64{1} << 32))
    return runCells<u32>(a, b, strategy, costs, reuseBlocks, counters, cutoff);
  return runCells<u64>(a, b, strategy, costs, reuseBlocks, counters, cutoff);
}

} // namespace sv::tree::apted
