#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<u64> gNextId{1};
std::atomic<u64> gNextTid{1};

/// One thread's span store. Only the owning thread appends; collect() reads
/// after the parallel work that filled it has joined.
struct Buffer {
  u64 tid = 0;
  std::vector<SpanRecord> spans;
};

std::mutex gRegistryMutex;
std::vector<std::shared_ptr<Buffer>> gRegistry; // guarded by gRegistryMutex

struct ThreadState {
  std::shared_ptr<Buffer> buffer;
  std::vector<u64> open; ///< ids of this thread's open spans, innermost last
  u64 adopted = 0;
};

ThreadState &state() {
  thread_local ThreadState st;
  if (!st.buffer) {
    st.buffer = std::make_shared<Buffer>();
    st.buffer->tid = gNextTid.fetch_add(1);
    const std::lock_guard lock(gRegistryMutex);
    gRegistry.push_back(st.buffer);
  }
  return st;
}

i64 nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

} // namespace

void setEnabled(bool on) { gEnabled.store(on); }
bool enabled() { return gEnabled.load(std::memory_order_relaxed); }

Span::Span(const char *name, u64 op) {
  if (!enabled()) return;
  auto &st = state();
  live_ = true;
  rec_.id = gNextId.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = st.open.empty() ? st.adopted : st.open.back();
  rec_.op = op;
  rec_.tid = st.buffer->tid;
  rec_.name = name;
  st.open.push_back(rec_.id);
  rec_.startNs = nowNs();
}

Span::~Span() {
  if (!live_) return;
  rec_.endNs = nowNs();
  auto &st = state();
  st.open.pop_back();
  st.buffer->spans.push_back(rec_);
}

u64 current() {
  if (!enabled()) return 0;
  const auto &st = state();
  return st.open.empty() ? st.adopted : st.open.back();
}

Adopt::Adopt(u64 parent) : saved_(0) {
  if (!enabled()) return;
  auto &st = state();
  saved_ = st.adopted;
  st.adopted = parent;
}

Adopt::~Adopt() {
  if (!enabled()) return;
  state().adopted = saved_;
}

std::vector<SpanRecord> collect() {
  std::vector<SpanRecord> out;
  const std::lock_guard lock(gRegistryMutex);
  for (const auto &buf : gRegistry) {
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord &a, const SpanRecord &b) {
    return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
  });
  return out;
}

std::string toChromeJson(const std::vector<SpanRecord> &spans) {
  i64 origin = 0;
  for (usize i = 0; i < spans.size(); ++i)
    if (i == 0 || spans[i].startNs < origin) origin = spans[i].startNs;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (usize i = 0; i < spans.size(); ++i) {
    const auto &s = spans[i];
    // Nanosecond-exact microseconds: three decimals.
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                  i == 0 ? "" : ",", s.name, static_cast<unsigned long long>(s.tid),
                  static_cast<double>(s.startNs - origin) / 1e3,
                  static_cast<double>(s.endNs - s.startNs) / 1e3,
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<double> selfTimesMs(const std::vector<SpanRecord> &spans) {
  std::unordered_map<u64, usize> at;
  for (usize i = 0; i < spans.size(); ++i) at.emplace(spans[i].id, i);
  std::vector<double> self(spans.size());
  for (usize i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const auto &s : spans) {
    const auto it = at.find(s.parent);
    if (it != at.end() && spans[it->second].tid == s.tid) self[it->second] -= s.ms();
  }
  return self;
}

std::map<std::string, NameStats> summarise(const std::vector<SpanRecord> &spans) {
  std::map<std::string, NameStats> out;
  const auto self = selfTimesMs(spans);
  for (usize i = 0; i < spans.size(); ++i) {
    auto &n = out[spans[i].name];
    ++n.count;
    n.totalMs += spans[i].ms();
    n.selfMs += self[i];
    n.maxMs = std::max(n.maxMs, spans[i].ms());
  }
  return out;
}

std::vector<std::string> validateChromeJson(const std::string &text, usize *spanCount) {
  std::vector<std::string> problems;
  struct Ev {
    u64 id, parent, tid;
    double ts, dur;
    std::string name;
  };
  std::vector<Ev> evs;
  try {
    const auto doc = sv::json::parse(text);
    for (const auto &e : doc.at("traceEvents").asArray()) {
      if (e.at("ph").asString() != "X") problems.push_back("event is not a complete event");
      const auto &args = e.at("args");
      evs.push_back({static_cast<u64>(args.at("id").asInt()),
                     static_cast<u64>(args.at("parent").asInt()),
                     static_cast<u64>(e.at("tid").asInt()), e.at("ts").asNumber(),
                     e.at("dur").asNumber(), e.at("name").asString()});
      (void)args.at("op").asInt();
    }
  } catch (const std::exception &ex) {
    problems.push_back(std::string("trace does not parse: ") + ex.what());
    return problems;
  }
  if (spanCount) *spanCount = evs.size();

  // Timestamps are printed with three decimals: allow the rounding of two
  // endpoints per comparison.
  constexpr double eps = 0.002;
  std::unordered_map<u64, usize> at;
  usize roots = 0;
  for (usize i = 0; i < evs.size(); ++i) {
    if (evs[i].dur < 0) problems.push_back("span " + evs[i].name + " has a negative duration");
    if (!at.emplace(evs[i].id, i).second) problems.push_back("duplicate span id");
    if (evs[i].parent == 0) ++roots;
  }
  if (roots != 1) problems.push_back("expected one root span, found " + std::to_string(roots));

  std::unordered_map<u64, std::vector<usize>> sameThreadChildren;
  for (usize i = 0; i < evs.size(); ++i) {
    const auto &e = evs[i];
    if (e.parent == 0) continue;
    const auto it = at.find(e.parent);
    if (it == at.end()) {
      problems.push_back("span " + e.name + " has a missing parent");
      continue;
    }
    const auto &p = evs[it->second];
    if (e.ts + eps < p.ts || e.ts + e.dur > p.ts + p.dur + eps)
      problems.push_back("span " + e.name + " is not inside its parent " + p.name);
    if (p.tid == e.tid) sameThreadChildren[e.parent].push_back(i);
  }
  std::vector<double> self(evs.size());
  for (usize i = 0; i < evs.size(); ++i) {
    self[i] = evs[i].dur;
    auto &kids = sameThreadChildren[evs[i].id];
    std::sort(kids.begin(), kids.end(), [&](usize a, usize b) { return evs[a].ts < evs[b].ts; });
    for (usize k = 0; k < kids.size(); ++k) {
      self[i] -= evs[kids[k]].dur;
      if (k > 0 && evs[kids[k]].ts + eps < evs[kids[k - 1]].ts + evs[kids[k - 1]].dur)
        problems.push_back("overlapping same-thread children under " + evs[i].name);
    }
  }
  // Self times of every thread-root's same-thread subtree sum to its span.
  for (usize i = 0; i < evs.size(); ++i) {
    const auto &e = evs[i];
    const auto pit = at.find(e.parent);
    const bool threadRoot = e.parent == 0 || pit == at.end() || evs[pit->second].tid != e.tid;
    if (!threadRoot) continue;
    double sum = 0;
    usize visited = 0;
    std::vector<usize> stack{i};
    while (!stack.empty()) {
      const usize k = stack.back();
      stack.pop_back();
      sum += self[k];
      ++visited;
      for (const usize c : sameThreadChildren[evs[k].id]) stack.push_back(c);
    }
    if (std::abs(sum - e.dur) > eps * static_cast<double>(visited) * 2)
      problems.push_back("self times under " + e.name + " do not sum to its duration");
  }
  if (problems.size() > 20) problems.resize(20);
  return problems;
}

} // namespace perfbench::trace
