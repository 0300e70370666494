#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>

#include "tree/ted.hpp"

using namespace sv;
using namespace sv::tree;

namespace {

Tree randomTree(u32 seed, usize n) {
  std::mt19937 rng(seed);
  static const char *labels[] = {"Fn", "Call", "If", "For", "Decl", "BinOp", "Ref", "Lit"};
  auto t = Tree::leaf(labels[rng() % 8]);
  for (usize i = 1; i < n; ++i) {
    const NodeId parent = static_cast<NodeId>(rng() % t.size());
    t.addChild(parent, labels[rng() % 8]);
  }
  return t;
}

u64 tedZS(const Tree &a, const Tree &b) {
  return ted(a, b, TedOptions{TedAlgo::ZhangShasha, {}});
}
u64 tedPS(const Tree &a, const Tree &b) {
  return ted(a, b, TedOptions{TedAlgo::PathStrategy, {}});
}
u64 tedAP(const Tree &a, const Tree &b) {
  return ted(a, b, TedOptions{TedAlgo::Apted, {}});
}

/// Same tree with every node's child order reversed. d(mir(a), mir(b)) ==
/// d(a, b): the edit-mapping constraints are symmetric under simultaneous
/// sibling reversal.
Tree mirrored(const Tree &t) {
  Tree out = Tree::leaf(t.node(0).label);
  // BFS copy with reversed child order; ids differ but structure mirrors.
  std::vector<std::pair<NodeId, NodeId>> queue{{0, 0}}; // (src, dst)
  for (usize q = 0; q < queue.size(); ++q) {
    const auto [src, dst] = queue[q];
    const auto &ch = t.node(src).children;
    for (auto it = ch.rbegin(); it != ch.rend(); ++it)
      queue.emplace_back(*it, out.addChild(dst, t.node(*it).label));
  }
  return out;
}

/// A tree assembled from copies of a few small templates under a spine, with
/// random labels: many subtrees share a shape but not their labels.
Tree repetitiveTree(u32 seed, usize spine) {
  std::mt19937 rng(seed);
  static const char *labels[] = {"Fn", "Call", "If", "For", "Decl", "BinOp", "Ref", "Lit"};
  const auto label = [&] { return labels[rng() % 8]; };
  // Each template is a parent list in pre-order: node k > 0 hangs off tmpl[k].
  const std::vector<std::vector<u32>> templates = {
      {0}, {0, 0, 0}, {0, 0, 1, 1}, {0, 0, 0, 2, 2, 0}, {0, 0, 1, 2}};
  auto t = Tree::leaf(label());
  NodeId cur = 0;
  for (usize i = 0; i < spine; ++i) {
    const usize copies = 1 + rng() % 4;
    for (usize c = 0; c < copies; ++c) {
      const auto &tmpl = templates[rng() % templates.size()];
      std::vector<NodeId> ids{t.addChild(cur, label())};
      for (usize k = 1; k < tmpl.size(); ++k) ids.push_back(t.addChild(ids[tmpl[k]], label()));
    }
    cur = t.addChild(cur, label());
  }
  return t;
}

/// A T_ir-like tree: wide and at most four levels deep (unit, functions,
/// blocks, instructions, operand leaves).
Tree wideShallowTree(u32 seed, usize fns) {
  std::mt19937 rng(seed);
  static const char *ops[] = {"add", "mul", "load", "store", "br", "call", "cmp", "phi"};
  auto t = Tree::leaf("unit");
  for (usize f = 0; f < fns; ++f) {
    const NodeId fn = t.addChild(0, "fn");
    for (usize b = 0, nb = 1 + rng() % 4; b < nb; ++b) {
      const NodeId block = t.addChild(fn, "block");
      for (usize i = 0, ni = 1 + rng() % 8; i < ni; ++i) {
        const NodeId inst = t.addChild(block, ops[rng() % 8]);
        for (usize o = 0, no = rng() % 3; o < no; ++o) t.addChild(inst, "v");
      }
    }
  }
  return t;
}

/// The node-level strategy DP: the same recurrence as apted::computeStrategy,
/// run over every canonical subtree pair (v, w) rather than over shape
/// classes. Kept as the reference the class DP must reproduce pick for pick.
struct NodeStrategy {
  usize n2 = 0;
  std::vector<apted::PathKind> pick; ///< slot (v-1)*n2 + (w-1)
  u64 cost = 0;
};

NodeStrategy nodeLevelStrategy(const apted::TreeIndex &a, const apted::TreeIndex &b) {
  // Per-node keyroot sums from the orientation indices:
  // L(u) = span(u) + sum_c L(c) - span(pathChild).
  const auto keyrootSums = [](const apted::TreeIndex &ix, std::vector<u64> &kl,
                              std::vector<u64> &kr, std::vector<u32> &parent) {
    kl.assign(ix.n + 1, 0);
    kr.assign(ix.n + 1, 0);
    parent.assign(ix.n + 1, 0);
    const auto lspan = [&](u32 c) { return static_cast<u64>(c - ix.left.lml[c] + 1); };
    const auto rspan = [&](u32 c) {
      const u32 r = ix.canonToRight[c];
      return static_cast<u64>(r - ix.right.lml[r] + 1);
    };
    for (u32 v = 1; v <= ix.n; ++v) {
      const auto &ch = ix.children[v];
      u64 sl = 0, sr = 0;
      for (const u32 c : ch) {
        sl += kl[c];
        sr += kr[c];
        parent[c] = v;
      }
      kl[v] = lspan(v) + sl - (ch.empty() ? 0 : lspan(ch.front()));
      kr[v] = rspan(v) + sr - (ch.empty() ? 0 : rspan(ch.back()));
    }
  };
  std::vector<u64> klA, krA, klB, krB;
  std::vector<u32> parentA, parentB;
  keyrootSums(a, klA, krA, parentA);
  keyrootSums(b, klB, krB, parentB);

  NodeStrategy s;
  const usize n2 = s.n2 = b.n;
  s.pick.assign(a.n * n2, apted::PathKind::LeftA);
  std::vector<u64> costRow(n2 + 1, 0), hlRow(n2 + 1, 0), hrRow(n2 + 1, 0);
  std::vector<u64> hplRow(n2 + 1, 0), hprRow(n2 + 1, 0);
  std::vector<u64> prevCost(n2 + 1, 0), prevHr(n2 + 1, 0);
  struct ParentAcc {
    std::vector<u64> sumAll, c1Cost, c1Hl;
  };
  std::unordered_map<u32, ParentAcc> accs;
  for (u32 v = 1; v <= a.n; ++v) {
    if (a.children[v].empty()) {
      std::fill(hlRow.begin(), hlRow.end(), 0);
      std::fill(hrRow.begin(), hrRow.end(), 0);
    } else {
      // The node before v in post-order is its last child.
      const ParentAcc &acc = accs.at(v);
      for (usize w = 1; w <= n2; ++w) {
        hlRow[w] = acc.c1Hl[w] + (acc.sumAll[w] - acc.c1Cost[w]);
        hrRow[w] = prevHr[w] + (acc.sumAll[w] - prevCost[w]);
      }
      accs.erase(v);
    }
    for (u32 w = 1; w <= n2; ++w) {
      const auto &chB = b.children[w];
      u64 hpl = 0, hpr = 0;
      if (!chB.empty()) {
        hpl = hplRow[chB.front()];
        hpr = hprRow[chB.back()];
        for (usize k = 0; k < chB.size(); ++k) {
          if (k != 0) hpl += costRow[chB[k]];
          if (k + 1 != chB.size()) hpr += costRow[chB[k]];
        }
      }
      const u64 c[4] = {hlRow[w] + a.sz[v] * klB[w], hrRow[w] + a.sz[v] * krB[w],
                        hpl + b.sz[w] * klA[v], hpr + b.sz[w] * krA[v]};
      usize kind = 0;
      for (usize k = 1; k < 4; ++k)
        if (c[k] < c[kind]) kind = k;
      costRow[w] = c[kind];
      hplRow[w] = hpl;
      hprRow[w] = hpr;
      s.pick[(v - 1) * n2 + (w - 1)] = static_cast<apted::PathKind>(kind);
    }
    s.cost = costRow[n2];
    if (const u32 p = parentA[v]; p != 0) {
      auto &acc = accs[p];
      if (acc.sumAll.empty()) acc.sumAll.assign(n2 + 1, 0);
      for (usize w = 1; w <= n2; ++w) acc.sumAll[w] += costRow[w];
      if (v == a.children[p].front()) {
        acc.c1Cost = costRow;
        acc.c1Hl = hlRow;
      }
    }
    std::swap(prevCost, costRow);
    std::swap(prevHr, hrRow);
  }
  return s;
}

/// Label-free shape of subtree(v), spelled out: the exact identity the
/// shape classes must intern.
std::string shapeString(const apted::TreeIndex &ix, u32 v) {
  std::string s = "(";
  for (const u32 c : ix.children[v]) s += shapeString(ix, c);
  return s + ")";
}

/// Index `t` with a label interner shared by every tree of one test.
apted::TreeIndex indexOf(const Tree &t, std::unordered_map<std::string, u32> &ids) {
  return apted::buildIndex(t, [&ids](const std::string &s) {
    return ids.emplace(s, static_cast<u32>(ids.size())).first->second;
  });
}

} // namespace

TEST(Ted, IdenticalTreesHaveZeroDistance) {
  const auto t = randomTree(1, 50);
  EXPECT_EQ(tedZS(t, t), 0u);
  EXPECT_EQ(tedPS(t, t), 0u);
  EXPECT_EQ(tedAP(t, t), 0u);
}

TEST(Ted, EmptyVersusTree) {
  const Tree empty;
  const auto t = randomTree(2, 20);
  EXPECT_EQ(tedZS(empty, t), t.size());
  EXPECT_EQ(tedZS(t, empty), t.size());
  EXPECT_EQ(tedZS(empty, empty), 0u);
  EXPECT_EQ(tedAP(empty, t), t.size());
  EXPECT_EQ(tedAP(t, empty), t.size());
  EXPECT_EQ(tedAP(empty, empty), 0u);
}

TEST(Ted, AptedSingleNodes) {
  EXPECT_EQ(tedAP(Tree::leaf("A"), Tree::leaf("A")), 0u);
  EXPECT_EQ(tedAP(Tree::leaf("A"), Tree::leaf("B")), 1u);
  EXPECT_EQ(tedAP(Tree::leaf("A"), toTree(build("A", {build("x")}))), 1u);
}

TEST(Ted, SingleRelabel) {
  const auto a = toTree(build("A", {build("x"), build("y")}));
  const auto b = toTree(build("B", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
}

TEST(Ted, SingleLeafInsertion) {
  const auto a = toTree(build("A", {build("x")}));
  const auto b = toTree(build("A", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
  EXPECT_EQ(tedZS(b, a), 1u);
}

TEST(Ted, InnerNodeDeletionCostsOne) {
  // Deleting "Mid" reattaches its children: classic TED semantics.
  const auto a = toTree(build("R", {build("Mid", {build("x"), build("y")})}));
  const auto b = toTree(build("R", {build("x"), build("y")}));
  EXPECT_EQ(tedZS(a, b), 1u);
}

TEST(Ted, PaperFigure1DistanceIsFive) {
  // Fig 1: "four outlined nodes are inserted or deleted with one relabelled
  // node on the top". Modelled after the two ClangAST fragments shown:
  //   T1: FunctionDecl            T2: FunctionTemplateDecl
  //        └─ CompoundStmt              ├─ TemplateTypeParmDecl
  //            ├─ DeclStmt              └─ FunctionDecl
  //            └─ ReturnStmt                 └─ CompoundStmt
  //                                               └─ ReturnStmt
  // Edits: relabel the root (1), insert TemplateTypeParmDecl and
  // FunctionDecl (2), delete DeclStmt, and relabel/shift accounts for the
  // remaining ops — total 5.
  // The two deleted nodes live under the first child while the two inserted
  // nodes live under the second, so the ancestor-preservation constraint of
  // a valid edit mapping rules out converting them into cheap relabels.
  const auto t1 = toTree(
      build("FunctionDecl", {build("ParmVarDecl", {build("DeclRefExpr"), build("IntegerLiteral")}),
                             build("CompoundStmt")}));
  const auto t2 = toTree(build(
      "FunctionTemplateDecl",
      {build("ParmVarDecl"), build("CompoundStmt", {build("CallExpr"), build("ReturnStmt")})}));
  EXPECT_EQ(tedZS(t1, t2), 5u);
  EXPECT_EQ(tedPS(t1, t2), 5u);
  EXPECT_EQ(tedAP(t1, t2), 5u);
}

TEST(Ted, DistanceBoundedByNodeSum) {
  const auto a = randomTree(3, 30);
  const auto b = randomTree(4, 45);
  const u64 d = tedZS(a, b);
  EXPECT_LE(d, a.size() + b.size());
  EXPECT_GE(d, static_cast<u64>(b.size() > a.size() ? b.size() - a.size()
                                                    : a.size() - b.size()));
}

TEST(Ted, UnitCostSymmetry) {
  const auto a = randomTree(5, 40);
  const auto b = randomTree(6, 25);
  EXPECT_EQ(tedZS(a, b), tedZS(b, a));
}

TEST(Ted, CustomCostsScaleOperations) {
  const auto a = toTree(build("A", {build("x")}));
  const auto b = toTree(build("A", {build("x"), build("y"), build("z")}));
  TedOptions opts;
  opts.costs.ins = 3;
  EXPECT_EQ(ted(a, b, opts), 6u); // two insertions at cost 3
  TedOptions del;
  del.costs.del = 5;
  EXPECT_EQ(ted(b, a, del), 10u); // two deletions at cost 5
}

TEST(Ted, RenameCostRespected) {
  const auto a = Tree::leaf("A");
  const auto b = Tree::leaf("B");
  TedOptions opts;
  opts.costs.rename = 7;
  // rename (7) still beats delete+insert (2)? No: unit del+ins = 2 < 7.
  EXPECT_EQ(ted(a, b, opts), 2u);
  opts.costs.del = 10;
  opts.costs.ins = 10;
  EXPECT_EQ(ted(a, b, opts), 7u);
}

// Property sweep: both algorithms must agree on randomly generated pairs,
// and metric axioms must hold under unit costs.
class TedPropertySweep : public ::testing::TestWithParam<u32> {};

TEST_P(TedPropertySweep, AlgorithmsAgreeAndAxiomsHold) {
  const u32 seed = GetParam();
  std::mt19937 rng(seed);
  const auto a = randomTree(seed * 2 + 1, 10 + rng() % 60);
  const auto b = randomTree(seed * 2 + 2, 10 + rng() % 60);
  const auto c = randomTree(seed * 2 + 3, 10 + rng() % 60);

  const u64 ab = tedZS(a, b);
  EXPECT_EQ(ab, tedPS(a, b)) << "seed=" << seed;
  EXPECT_EQ(ab, tedAP(a, b)) << "seed=" << seed;

  // Identity of indiscernibles (one direction) and symmetry.
  EXPECT_EQ(tedZS(a, a), 0u);
  EXPECT_EQ(ab, tedZS(b, a));
  EXPECT_EQ(ab, tedAP(b, a)) << "seed=" << seed;

  // Triangle inequality.
  const u64 bc = tedZS(b, c);
  const u64 ac = tedZS(a, c);
  EXPECT_LE(ac, ab + bc) << "seed=" << seed;

  // Mirror invariance: reversing sibling order in both trees preserves the
  // distance (the right-path kernels rely on exactly this symmetry).
  EXPECT_EQ(ab, tedAP(mirrored(a), mirrored(b))) << "seed=" << seed;

  // Injective relabel invariance: a bijection on the label alphabet leaves
  // every equal/unequal comparison, hence the distance, unchanged.
  const auto tag = [](const std::string &s) { return s + "#t"; };
  EXPECT_EQ(ab, tedAP(a.relabel(tag), b.relabel(tag))) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomPairs, TedPropertySweep, ::testing::Range(0u, 24u));

TEST(Ted, LinearChainVsBushyTree) {
  // Chain a(b(c)) vs star a(b, c): mapping both b->b and c->c would violate
  // the ancestor-preservation constraint, so one node must be deleted and
  // re-inserted — distance 2.
  const auto chain = toTree(build("a", {build("b", {build("c")})}));
  const auto star = toTree(build("a", {build("b"), build("c")}));
  EXPECT_EQ(tedZS(chain, star), 2u);
  EXPECT_EQ(tedPS(chain, star), 2u);
  EXPECT_EQ(tedAP(chain, star), 2u);
}

TEST(Ted, SubproblemEstimatorsPositive) {
  const auto t = randomTree(9, 100);
  EXPECT_GT(tedSubproblemsLeft(t), 0u);
  EXPECT_GT(tedSubproblemsRight(t), 0u);
}

TEST(Ted, SkewedTreeStrategiesAgree) {
  // A left-comb and a right-comb: worst case for one strategy each.
  auto leftComb = Tree::leaf("n");
  NodeId cur = 0;
  for (int i = 0; i < 100; ++i) {
    const auto inner = leftComb.addChild(cur, "n");
    leftComb.addChild(cur, "leaf");
    cur = inner;
  }
  auto rightComb = Tree::leaf("n");
  cur = 0;
  for (int i = 0; i < 100; ++i) {
    rightComb.addChild(cur, "leaf");
    cur = rightComb.addChild(cur, "n");
  }
  EXPECT_EQ(tedZS(leftComb, rightComb), tedPS(leftComb, rightComb));
  EXPECT_EQ(tedZS(leftComb, rightComb), tedAP(leftComb, rightComb));
}

TEST(Ted, StrategyCostNeverExceedsWholeTreeOrientations) {
  // The per-subtree-pair plan can only improve on a whole-tree pick: an
  // all-LeftA plan unrolls to exactly the Zhang–Shasha left decomposition
  // cost, and likewise for the other uniform choices.
  std::unordered_map<std::string, u32> ids;
  const auto intern = [&ids](const std::string &s) {
    return ids.emplace(s, static_cast<u32>(ids.size())).first->second;
  };
  for (u32 seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    const auto a = randomTree(seed * 2 + 101, 10 + rng() % 80);
    const auto b = randomTree(seed * 2 + 102, 10 + rng() % 80);
    const auto ia = apted::buildIndex(a, intern);
    const auto ib = apted::buildIndex(b, intern);
    const auto strat = apted::computeStrategy(ia, ib);
    const u64 left = tedSubproblemsLeft(a) * tedSubproblemsLeft(b);
    const u64 right = tedSubproblemsRight(a) * tedSubproblemsRight(b);
    EXPECT_LE(strat.cost, std::min(left, right)) << "seed=" << seed;
    EXPECT_GT(strat.cost, 0u);
  }
}

TEST(Ted, RunCountersMatchStrategyCost) {
  // Without block reuse, the executed forest-DP cell count equals the
  // strategy DP's predicted subproblem total — the cost model is exact.
  // Strategy picks are packed four to a byte; n1*n2 mod 4 = 0, 1, 2, 3 puts
  // the root pair's pick (slot n1*n2 - 1, decoded by every run) in each of
  // the four positions of the last, partly filled byte.
  std::unordered_map<std::string, u32> ids;
  const auto intern = [&ids](const std::string &s) {
    return ids.emplace(s, static_cast<u32>(ids.size())).first->second;
  };
  const std::pair<usize, usize> sizes[] = {{60, 70}, {33, 41}, {42, 55}, {35, 37}, {1, 3}};
  for (const auto &[n1, n2] : sizes) {
    SCOPED_TRACE(testing::Message() << n1 << "x" << n2);
    const auto a = randomTree(static_cast<u32>(41 + n1), n1);
    const auto b = randomTree(static_cast<u32>(42 + n2), n2);
    const auto ia = apted::buildIndex(a, intern);
    const auto ib = apted::buildIndex(b, intern);
    const auto strat = apted::computeStrategy(ia, ib);
    EXPECT_EQ(strat.pick.size(), (strat.m1 * strat.m2 + 3) / 4);
    apted::RunCounters rc;
    const u64 d = apted::run(ia, ib, strat, {}, /*reuseBlocks=*/false, &rc);
    EXPECT_EQ(d, tedZS(a, b));
    EXPECT_EQ(rc.subproblems[0] + rc.subproblems[1] + rc.subproblems[2] + rc.subproblems[3],
              strat.cost);
    EXPECT_EQ(rc.blockHits, 0u);
  }
}

TEST(Ted, ClassStrategyMatchesNodeLevelOracle) {
  // The class-pair DP must pick, at every subtree pair (v, w), what the
  // node-level DP picks, with the same root cost: on trees full of repeated
  // shapes, on random trees where few shapes repeat, and on wide trees of
  // depth <= 4 like the T_ir ones.
  std::unordered_map<std::string, u32> ids;
  std::vector<std::pair<Tree, Tree>> pairs;
  for (u32 seed = 0; seed < 4; ++seed) {
    pairs.emplace_back(repetitiveTree(seed * 2 + 601, 8 + seed * 5),
                       repetitiveTree(seed * 2 + 602, 12 + seed * 3));
    pairs.emplace_back(randomTree(seed * 2 + 701, 40 + seed * 30),
                       randomTree(seed * 2 + 702, 90 - seed * 15));
    pairs.emplace_back(wideShallowTree(seed * 2 + 801, 6 + seed * 4),
                       wideShallowTree(seed * 2 + 802, 10 + seed * 2));
    pairs.emplace_back(repetitiveTree(seed + 901, 10), wideShallowTree(seed + 951, 8));
  }
  pairs.emplace_back(Tree::leaf("x"), randomTree(17, 30));
  pairs.emplace_back(randomTree(18, 30), Tree::leaf("y"));
  for (usize i = 0; i < pairs.size(); ++i) {
    const auto &[ta, tb] = pairs[i];
    SCOPED_TRACE(testing::Message() << "pair " << i << ": " << ta.size() << "x" << tb.size());
    const auto a = indexOf(ta, ids);
    const auto b = indexOf(tb, ids);
    const auto strat = apted::computeStrategy(a, b);
    const auto oracle = nodeLevelStrategy(a, b);
    EXPECT_EQ(strat.cost, oracle.cost);
    EXPECT_EQ(strat.m1, a.classes.size());
    EXPECT_EQ(strat.m2, b.classes.size());
    usize mismatches = 0;
    for (u32 v = 1; v <= a.n; ++v)
      for (u32 w = 1; w <= b.n; ++w)
        mismatches += strat.at(a.shape[v], b.shape[w]) != oracle.pick[(v - 1) * b.n + (w - 1)];
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(Ted, ShapeClassesIgnoreLabels) {
  // R(A(x, y), B(p, q), C(z)): A and B share a shape despite their labels,
  // C does not, and every leaf is class 0.
  std::unordered_map<std::string, u32> ids;
  const auto t = toTree(build("R", {build("A", {build("x"), build("y")}),
                                    build("B", {build("p"), build("q")}), build("C", {build("z")})}));
  const auto ix = indexOf(t, ids);
  ASSERT_EQ(ix.n, 9u);
  // Canonical post-order: x y A p q B z C R.
  for (const u32 leaf : {1u, 2u, 4u, 5u, 7u}) EXPECT_EQ(ix.shape[leaf], 0u);
  EXPECT_EQ(ix.shape[3], ix.shape[6]);
  EXPECT_NE(ix.shape[3], ix.shape[8]);
  EXPECT_EQ(ix.classes.size(), 4u);
  EXPECT_EQ(ix.classes.sz[ix.shape[3]], 3u);
  EXPECT_EQ(ix.classes.sz[ix.shape[9]], 9u);
}

TEST(Ted, ShapeClassesKeepChildOrder) {
  // X(leaf, C(leaf)) and Y(C(leaf), leaf) hold the same multiset of child
  // shapes in a different order: different shapes, different classes.
  std::unordered_map<std::string, u32> ids;
  const auto t = toTree(build("R", {build("X", {build("l"), build("C", {build("l")})}),
                                    build("Y", {build("C", {build("l")}), build("l")})}));
  const auto ix = indexOf(t, ids);
  // Canonical post-order: l l C X l C l Y R.
  EXPECT_EQ(ix.shape[3], ix.shape[6]);
  EXPECT_NE(ix.shape[4], ix.shape[8]);
  EXPECT_EQ(ix.classes.size(), 5u);
}

TEST(Ted, ShapeClassesAreExactAndAscendAlongPostOrder) {
  // On random trees, two nodes share a class iff their label-free shapes
  // are equal; a new class takes the next id at its first post-order
  // appearance, so every child's class precedes its parent's.
  std::unordered_map<std::string, u32> ids;
  for (const auto &t : {randomTree(1001, 300), repetitiveTree(1002, 30), wideShallowTree(1003, 20)}) {
    const auto ix = indexOf(t, ids);
    std::unordered_map<std::string, u32> byShape;
    u32 nextId = 0;
    for (u32 v = 1; v <= ix.n; ++v) {
      const auto [it, fresh] = byShape.emplace(shapeString(ix, v), ix.shape[v]);
      EXPECT_EQ(it->second, ix.shape[v]) << "v=" << v;
      if (fresh) {
        EXPECT_EQ(ix.shape[v], nextId++) << "v=" << v;
      }
      const auto kids = ix.classes.children(ix.shape[v]);
      ASSERT_EQ(kids.size(), ix.children[v].size());
      for (usize k = 0; k < kids.size(); ++k) {
        EXPECT_EQ(kids[k], ix.shape[ix.children[v][k]]);
        EXPECT_LT(kids[k], ix.shape[v]);
      }
      EXPECT_EQ(ix.classes.sz[ix.shape[v]], ix.sz[v]);
    }
    EXPECT_EQ(byShape.size(), ix.classes.size());
    EXPECT_EQ(ix.shape[ix.n], ix.classes.size() - 1);
  }
}

TEST(Ted, WideCostsMatchReference) {
  // del = 2^30 puts (n1 + n2 + 2) * max cost far past 2^32, so the kernels
  // run on u64 cells; the distances themselves exceed 2^32 and would wrap
  // in a u32 table.
  for (u32 seed = 0; seed < 6; ++seed) {
    std::mt19937 rng(seed);
    const auto a = randomTree(seed * 2 + 301, 10 + rng() % 50);
    const auto b = randomTree(seed * 2 + 302, 10 + rng() % 50);
    for (const TedCosts costs : {TedCosts{1u << 30, 1, 1}, TedCosts{1u << 30, 1u << 30, 3},
                                 TedCosts{5, 7, 1u << 31}}) {
      const u64 ref = ted(a, b, TedOptions{TedAlgo::ZhangShasha, costs});
      EXPECT_EQ(ted(a, b, TedOptions{TedAlgo::Apted, costs}), ref) << "seed=" << seed;
      EXPECT_EQ(ted(b, a, TedOptions{TedAlgo::Apted, {costs.ins, costs.del, costs.rename}}), ref)
          << "seed=" << seed;
    }
  }
  // A distance of several times 2^32 on a small pair.
  const auto a = randomTree(7, 12);
  const Tree leaf = Tree::leaf("only");
  const TedCosts costs{1u << 31, 1u << 31, 1u << 31};
  EXPECT_GT(ted(a, leaf, TedOptions{TedAlgo::ZhangShasha, costs}), u64{1} << 32);
  EXPECT_EQ(ted(a, leaf, TedOptions{TedAlgo::Apted, costs}),
            ted(a, leaf, TedOptions{TedAlgo::ZhangShasha, costs}));
}

TEST(Ted, CellWidthThresholdMatchesReference) {
  // n1 + n2 + 2 = 64, so a max cost of 2^26 - 1 keeps (n1 + n2 + 2) * max
  // just below 2^32 (u32 cells) and 2^26 reaches it (u64 cells).
  const auto a = randomTree(501, 30);
  const auto b = randomTree(502, 32);
  for (const u32 c : {(1u << 26) - 1, 1u << 26}) {
    for (const TedCosts costs : {TedCosts{c, c, c}, TedCosts{c, 1, 1}, TedCosts{1, 1, c}}) {
      const u64 ref = ted(a, b, TedOptions{TedAlgo::ZhangShasha, costs});
      EXPECT_EQ(ted(a, b, TedOptions{TedAlgo::Apted, costs}), ref) << "c=" << c;
    }
  }
}
