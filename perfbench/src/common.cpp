#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace perfbench {

void Checks::expect(bool ok, const std::string &what) {
  ++attempted;
  if (ok) return;
  ++failed;
  misses.push_back(what);
}

void Checks::add(const Checks &other) {
  attempted += other.attempted;
  failed += other.failed;
  misses.insert(misses.end(), other.misses.begin(), other.misses.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<usize>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<usize>(rank, 1, v.size()) - 1];
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

u64 Rng::next() {
  u64 z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::add(u64 v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(const std::string &s) {
  add(static_cast<u64>(s.size()));
  for (const unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

void checkWorkers(const sv::NodeStats &node, usize threads, Checks &checks) {
  checks.expect(node.workers == threads, "runtime: node '" + node.name + "' ran with " +
                                             std::to_string(node.workers) + " workers, not " +
                                             std::to_string(threads));
  for (const auto &child : node.children) checkWorkers(child, threads, checks);
}

} // namespace

RuntimeStats drainRuntime(usize threads, Checks &checks) {
  RuntimeStats out;
  for (const auto &node : sv::drainPipelineStats()) {
    out.workers = std::max(out.workers, node.workers);
    out.steals += node.steals;
    out.busyMs += node.busyMs;
    out.capacityMs += node.wallMs * static_cast<double>(node.workers);
    checkWorkers(node, threads, checks);
  }
  return out;
}

bool releaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

sv::json::Value hostMetadata(const RunConfig &config, const std::string &gitSha) {
  sv::json::Object o;
  o.emplace("hardware_threads",
            sv::json::Value(static_cast<usize>(std::thread::hardware_concurrency())));
#if defined(__clang__)
  o.emplace("compiler", sv::json::Value(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  o.emplace("compiler", sv::json::Value(std::string("gcc ") + __VERSION__));
#else
  o.emplace("compiler", sv::json::Value(std::string("unknown")));
#endif
  o.emplace("build_type", sv::json::Value(std::string(PERFBENCH_BUILD_TYPE)));
  o.emplace("release", sv::json::Value(releaseBuild()));
  o.emplace("git_sha", sv::json::Value(gitSha));
  o.emplace("seed", sv::json::Value(static_cast<usize>(config.seed)));
  o.emplace("threads", sv::json::Value(config.threads));
  return sv::json::Value(std::move(o));
}

u64 treeNodes(const std::vector<const sv::db::CodebaseDb *> &dbs) {
  u64 n = 0;
  for (const auto *db : dbs)
    for (const auto &u : db->units)
      n += u.tsrc.size() + u.tsem.size() + u.tsemI.size() + u.tir.size();
  return n;
}

} // namespace perfbench
