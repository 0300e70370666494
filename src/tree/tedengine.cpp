#include "tree/tedengine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <tuple>
#include <unordered_map>

#include "support/hash.hpp"

namespace sv::tree {

namespace {

/// Global label id space: the DP inner loop compares u32s, not strings, and
/// interning happens once per distinct tree instead of once per pair. Ids
/// are append-only so views built at different times remain comparable.
class LabelInterner {
public:
  u32 intern(const std::string &s) {
    {
      std::shared_lock lock(mutex_);
      const auto it = ids_.find(s);
      if (it != ids_.end()) return it->second;
    }
    std::unique_lock lock(mutex_);
    return ids_.emplace(s, static_cast<u32>(ids_.size())).first->second;
  }

private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, u32> ids_;
};

/// Memo key for one unordered tree pair under fixed costs. ted(a, b,
/// {del, ins, ren}) == ted(b, a, {ins, del, ren}) — reversing an edit
/// script swaps deletions and insertions — so keys are canonicalised by
/// ordering the (fingerprint, size) pairs and swapping del/ins alongside.
struct PairKey {
  u64 fp1 = 0, fp2 = 0;
  usize n1 = 0, n2 = 0;
  u32 del = 0, ins = 0, rename = 0;

  bool operator==(const PairKey &) const = default;
};

struct PairKeyHash {
  usize operator()(const PairKey &k) const {
    u64 h = hashCombine(k.fp1, k.fp2);
    h = hashCombine(h, static_cast<u64>(k.n1));
    h = hashCombine(h, static_cast<u64>(k.n2));
    h = hashCombine(h, (static_cast<u64>(k.del) << 40) ^ (static_cast<u64>(k.ins) << 20) ^
                           static_cast<u64>(k.rename));
    return static_cast<usize>(h);
  }
};

struct ViewKey {
  u64 fp = 0;
  usize n = 0;
  bool operator==(const ViewKey &) const = default;
};

struct ViewKeyHash {
  usize operator()(const ViewKey &k) const {
    return static_cast<usize>(hashCombine(k.fp, static_cast<u64>(k.n)));
  }
};

/// Strategy-cache key: the *canonical* pair orientation (same ordering as
/// PairKey). The plan itself is orientation-specific — strategy(a, b)
/// decomposes different trees than strategy(b, a) — so the engine always
/// executes the DP in canonical orientation (with del/ins swapped to
/// compensate), making one matrix serve both query directions. No costs:
/// the strategy DP is structural only.
struct StratKey {
  u64 fp1 = 0, fp2 = 0;
  usize n1 = 0, n2 = 0;
  bool operator==(const StratKey &) const = default;
};

struct StratKeyHash {
  usize operator()(const StratKey &k) const {
    return static_cast<usize>(hashCombine(hashCombine(k.fp1, k.fp2),
                                          hashCombine(static_cast<u64>(k.n1),
                                                      static_cast<u64>(k.n2))));
  }
};

} // namespace

struct TedEngine::Impl {
  LabelInterner interner;

  mutable std::mutex viewMutex;
  std::unordered_map<ViewKey, std::shared_ptr<const TreeViews>, ViewKeyHash> viewCache;

  mutable std::mutex memoMutex;
  std::unordered_map<PairKey, u64, PairKeyHash> memo;

  mutable std::mutex strategyMutex;
  std::unordered_map<StratKey, std::shared_ptr<const apted::Strategy>, StratKeyHash> strategies;

  std::atomic<u64> viewHits{0}, viewMisses{0};
  std::atomic<u64> memoHits{0}, memoMisses{0};
  std::atomic<u64> wholeTreeShortcuts{0};
  std::atomic<u64> strategyHits{0}, strategyMisses{0};
  std::atomic<u64> spfKernels[4]{0, 0, 0, 0};
  std::atomic<u64> spfSubproblems[4]{0, 0, 0, 0};
  std::atomic<u64> subtreeBlockHits{0};
  std::atomic<u64> prunedByBound{0}, prunedByCutoff{0}, cutoffExact{0};
};

TedEngine::TedEngine() : impl_(std::make_unique<Impl>()) {}
TedEngine::~TedEngine() = default;

TedEngine &TedEngine::global() {
  static TedEngine engine;
  return engine;
}

std::shared_ptr<const TreeViews> TedEngine::views(const Tree &t) {
  const ViewKey key{t.fingerprint(), t.size()};
  {
    std::lock_guard lock(impl_->viewMutex);
    const auto it = impl_->viewCache.find(key);
    if (it != impl_->viewCache.end()) {
      impl_->viewHits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside the lock: a racing builder of the same tree just produces
  // an equivalent view and the first insertion wins.
  auto built = std::make_shared<TreeViews>();
  built->size = t.size();
  built->rootFp = key.fp;
  built->sig = std::make_shared<const BoundSignature>(boundSignature(t));
  if (!t.empty()) {
    built->aptedIndex = std::make_shared<const apted::TreeIndex>(apted::buildIndex(
        t, [this](const std::string &s) { return impl_->interner.intern(s); }));
  }
  impl_->viewMisses.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(impl_->viewMutex);
  return impl_->viewCache.emplace(key, std::move(built)).first->second;
}

u64 TedEngine::ted(const Tree &a, const Tree &b, const TedOptions &options) {
  const TedCosts &costs = options.costs;
  const u64 cutoff = options.cutoff;
  const auto clamp = [cutoff](u64 d) { return cutoff ? std::min(d, cutoff) : d; };
  if (a.empty()) return clamp(static_cast<u64>(b.size()) * costs.ins);
  if (b.empty()) return clamp(static_cast<u64>(a.size()) * costs.del);

  const auto va = views(a);
  const auto vb = views(b);

  // Whole-tree equality: identical units (shared headers, unchanged
  // kernels) answer in the O(n) it took to fingerprint them.
  if (va->rootFp == vb->rootFp && va->size == vb->size) {
    impl_->wholeTreeShortcuts.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  PairKey key{va->rootFp, vb->rootFp, va->size, vb->size, costs.del, costs.ins, costs.rename};
  const bool swapped = std::tie(key.fp1, key.n1) > std::tie(key.fp2, key.n2);
  if (swapped) {
    std::swap(key.fp1, key.fp2);
    std::swap(key.n1, key.n2);
    std::swap(key.del, key.ins);
  }
  {
    // The memo holds exact distances only, so a hit serves cutoff mode too.
    std::lock_guard lock(impl_->memoMutex);
    const auto it = impl_->memo.find(key);
    if (it != impl_->memo.end()) {
      impl_->memoHits.fetch_add(1, std::memory_order_relaxed);
      return clamp(it->second);
    }
  }

  // Filter: the cached signature bound settles the pair without any DP
  // when it reaches the cutoff (min(exact, cutoff) == cutoff).
  if (cutoff > 0 && tedLowerBound(*va->sig, *vb->sig, costs) >= cutoff) {
    impl_->prunedByBound.fetch_add(1, std::memory_order_relaxed);
    return cutoff;
  }
  impl_->memoMisses.fetch_add(1, std::memory_order_relaxed);

  // Refine. The DP always executes in the memo's canonical orientation:
  // ted(a, b, {del, ins, ren}) == ted(b, a, {ins, del, ren}), and key.del /
  // key.ins were swapped alongside the trees above — so strategy matrices
  // and cutoff behaviour are shared by both query directions. Strategy
  // matrices are structural (cost-independent) and keyed by the canonical
  // pair, so one strategy DP serves every cost configuration too.
  const TreeViews &A = swapped ? *vb : *va;
  const TreeViews &B = swapped ? *va : *vb;
  const StratKey skey{key.fp1, key.fp2, key.n1, key.n2};
  std::shared_ptr<const apted::Strategy> strat;
  {
    std::lock_guard lock(impl_->strategyMutex);
    const auto it = impl_->strategies.find(skey);
    if (it != impl_->strategies.end()) strat = it->second;
  }
  if (strat) {
    impl_->strategyHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    impl_->strategyMisses.fetch_add(1, std::memory_order_relaxed);
    strat = std::make_shared<const apted::Strategy>(
        apted::computeStrategy(*A.aptedIndex, *B.aptedIndex));
    std::lock_guard lock(impl_->strategyMutex);
    strat = impl_->strategies.emplace(skey, std::move(strat)).first->second;
  }
  apted::RunCounters rc;
  const u64 result = apted::run(*A.aptedIndex, *B.aptedIndex, *strat,
                                {key.del, key.ins, key.rename}, /*reuseBlocks=*/true, &rc, cutoff);
  for (usize k = 0; k < 4; ++k) {
    impl_->spfKernels[k].fetch_add(rc.kernels[k], std::memory_order_relaxed);
    impl_->spfSubproblems[k].fetch_add(rc.subproblems[k], std::memory_order_relaxed);
  }
  impl_->subtreeBlockHits.fetch_add(rc.blockHits, std::memory_order_relaxed);

  if (cutoff > 0) {
    // result == cutoff may be an abandoned run (a lower bound, not the
    // distance) — never memoise it. Anything below the cutoff is exact.
    if (result >= cutoff) {
      impl_->prunedByCutoff.fetch_add(1, std::memory_order_relaxed);
      return cutoff;
    }
    impl_->cutoffExact.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard lock(impl_->memoMutex);
  impl_->memo.emplace(key, result);
  return result;
}

EngineStats TedEngine::stats() const {
  EngineStats s;
  s.viewHits = impl_->viewHits.load();
  s.viewMisses = impl_->viewMisses.load();
  s.memoHits = impl_->memoHits.load();
  s.memoMisses = impl_->memoMisses.load();
  s.wholeTreeShortcuts = impl_->wholeTreeShortcuts.load();
  s.strategyHits = impl_->strategyHits.load();
  s.strategyMisses = impl_->strategyMisses.load();
  for (usize k = 0; k < 4; ++k) {
    s.spfKernels[k] = impl_->spfKernels[k].load();
    s.spfSubproblems[k] = impl_->spfSubproblems[k].load();
  }
  s.subtreeBlockHits = impl_->subtreeBlockHits.load();
  s.prunedByBound = impl_->prunedByBound.load();
  s.prunedByCutoff = impl_->prunedByCutoff.load();
  s.cutoffExact = impl_->cutoffExact.load();
  return s;
}

void TedEngine::clear() {
  {
    std::lock_guard lock(impl_->viewMutex);
    impl_->viewCache.clear();
  }
  {
    std::lock_guard lock(impl_->memoMutex);
    impl_->memo.clear();
  }
  {
    std::lock_guard lock(impl_->strategyMutex);
    impl_->strategies.clear();
  }
  impl_->viewHits = 0;
  impl_->viewMisses = 0;
  impl_->memoHits = 0;
  impl_->memoMisses = 0;
  impl_->wholeTreeShortcuts = 0;
  impl_->strategyHits = 0;
  impl_->strategyMisses = 0;
  for (usize k = 0; k < 4; ++k) {
    impl_->spfKernels[k] = 0;
    impl_->spfSubproblems[k] = 0;
  }
  impl_->subtreeBlockHits = 0;
  impl_->prunedByBound = 0;
  impl_->prunedByCutoff = 0;
  impl_->cutoffExact = 0;
}

u64 tedDispatch(const Tree &a, const Tree &b, const TedOptions &options) {
  if (options.useCache && options.algo == TedAlgo::Apted)
    return TedEngine::global().ted(a, b, options);
  return ted(a, b, options);
}

} // namespace sv::tree
