#include "oracle.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "common/hash.h"
#include "core/join_project.h"
#include "core/result_sink.h"

namespace perfbench {
namespace {

using jpmm::CountedPair;
using jpmm::OutPair;

/// Rank order of the top-k check: count descending, then (x, z) ascending.
bool RanksBefore(const CountedPair& a, const CountedPair& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.x != b.x ? a.x < b.x : a.z < b.z;
}

uint64_t PairHash(jpmm::Value x, jpmm::Value z) {
  return jpmm::Mix64(jpmm::PackPair(x, z));
}

/// Streams the reference output into a Digest without materializing it
/// (unless keys are wanted): per-shard count, hash and bounded top-k heap.
class DigestSink : public jpmm::ResultSink {
 public:
  explicit DigestSink(bool keep_keys) : keep_keys_(keep_keys) {}

  void Open(int num_shards) override {
    shards_.clear();
    for (int w = 0; w < num_shards; ++w) {
      shards_.push_back(std::make_unique<DigestShard>(keep_keys_));
    }
  }
  Shard& shard(int w) override { return *shards_[static_cast<size_t>(w)]; }
  bool supports_tuples() const override { return false; }

  Digest Take() {
    Digest d;
    std::vector<CountedPair> top;
    for (auto& s : shards_) {
      d.count += s->count;
      d.hash += s->hash;
      while (!s->heap.empty()) {
        top.push_back(s->heap.top());
        s->heap.pop();
      }
      d.keys.insert(d.keys.end(), s->keys.begin(), s->keys.end());
    }
    std::sort(top.begin(), top.end(), RanksBefore);
    if (top.size() > kTopK) top.resize(kTopK);
    d.top = std::move(top);
    std::sort(d.keys.begin(), d.keys.end());
    return d;
  }

 private:
  struct DigestShard : Shard {
    explicit DigestShard(bool keep) : keep_keys(keep) {}
    void OnPair(const OutPair& p) override { OnCountedPair({p.x, p.z, 1}); }
    void OnCountedPair(const CountedPair& p) override {
      ++count;
      hash += PairHash(p.x, p.z);
      if (keep_keys) keys.push_back(jpmm::PackPair(p.x, p.z));
      heap.push(p);
      if (heap.size() > kTopK) heap.pop();
    }
    const bool keep_keys;
    uint64_t count = 0;
    uint64_t hash = 0;
    std::vector<uint64_t> keys;
    // Max-heap under RanksBefore: the top is the worst kept pair.
    std::priority_queue<CountedPair, std::vector<CountedPair>,
                        decltype(&RanksBefore)>
        heap{&RanksBefore};
  };

  const bool keep_keys_;
  std::vector<std::unique_ptr<DigestShard>> shards_;
};

bool Contains(const Digest& d, const OutPair& p) {
  return std::binary_search(d.keys.begin(), d.keys.end(),
                            jpmm::PackPair(p.x, p.z));
}

std::string Mismatch(const char* what, uint64_t got, uint64_t want) {
  return std::string(what) + " " + std::to_string(got) + " != oracle " +
         std::to_string(want);
}

/// Distinct pairs that all belong to the oracle.
std::string CheckSubset(const Digest& d, std::span<const OutPair> got) {
  std::vector<uint64_t> keys;
  keys.reserve(got.size());
  for (const OutPair& p : got) {
    if (!Contains(d, p)) return "pair not in the oracle";
    keys.push_back(jpmm::PackPair(p.x, p.z));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return "duplicate pair";
  }
  return "";
}

}  // namespace

Digest TwoPathOracle(const jpmm::IndexedRelation& r, bool keep_keys,
                     int threads) {
  DigestSink sink(keep_keys);
  jpmm::WcojFullJoinProject(r, r, /*count_witnesses=*/true, /*min_count=*/1,
                            threads, &sink);
  return sink.Take();
}

Digest TwoPathStampOracle(const jpmm::IndexedRelation& r, bool keep_keys) {
  // For each x, count the witnesses of every z reached through x's ys in a
  // stamped array, then feed the pairs to the same digest reduction.
  const uint64_t n = r.num_x();
  std::vector<jpmm::Value> stamp(n, jpmm::kInvalidValue);
  std::vector<uint32_t> witnesses(n);
  std::vector<jpmm::Value> touched;
  DigestSink sink(keep_keys);
  sink.Open(1);
  jpmm::ResultSink::Shard& out = sink.shard(0);
  for (jpmm::Value x = 0; x < n; ++x) {
    touched.clear();
    for (jpmm::Value y : r.YsOf(x)) {
      for (jpmm::Value z : r.XsOf(y)) {
        if (stamp[z] != x) {
          stamp[z] = x;
          witnesses[z] = 0;
          touched.push_back(z);
        }
        ++witnesses[z];
      }
    }
    for (jpmm::Value z : touched) out.OnCountedPair({x, z, witnesses[z]});
  }
  return sink.Take();
}

Digest Star3Oracle(const jpmm::IndexedRelation& r) {
  // For each x1, mark every (x2, x3) that shares some y with it in an
  // x2 * x3 bitmap: memory stays at num_x^2 bits, where the library's
  // StarJoinProjectWcoj materializes the whole join before deduplicating.
  const uint64_t n = r.num_x();
  std::vector<uint64_t> seen((n * n + 63) / 64);
  Digest d;
  for (jpmm::Value x1 = 0; x1 < n; ++x1) {
    if (r.DegX(x1) == 0) continue;
    std::fill(seen.begin(), seen.end(), 0);
    for (jpmm::Value y : r.YsOf(x1)) {
      const auto xs = r.XsOf(y);
      for (jpmm::Value x2 : xs) {
        for (jpmm::Value x3 : xs) {
          const uint64_t bit = x2 * n + x3;
          const uint64_t mask = uint64_t{1} << (bit % 64);
          if ((seen[bit / 64] & mask) == 0) {
            seen[bit / 64] |= mask;
            ++d.count;
          }
        }
      }
    }
  }
  return d;
}

void Corrupt(Digest* d) {
  d->count += 1;
  d->hash ^= 1;
  if (!d->top.empty()) d->top.front().count += 1;
  d->keys.clear();
}

std::string CheckCount(const Digest& d, uint64_t count, bool truncated) {
  if (truncated ? count <= d.count : count == d.count) return "";
  return Mismatch(truncated ? "truncated count" : "count", count, d.count);
}

std::string CheckTop(const Digest& d, std::span<const CountedPair> got) {
  if (got.size() != d.top.size()) {
    return Mismatch("top-k size", got.size(), d.top.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == d.top[i])) {
      return "top-k entry " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckPairs(const Digest& d, std::span<const OutPair> got,
                       bool complete) {
  if (!complete) return CheckSubset(d, got);
  if (got.size() != d.count) return Mismatch("size", got.size(), d.count);
  uint64_t hash = 0;
  for (const OutPair& p : got) hash += PairHash(p.x, p.z);
  return hash == d.hash ? "" : "pair-set hash differs";
}

std::string CheckPage(const Digest& d, std::span<const OutPair> got,
                      uint64_t offset, uint64_t limit, uint64_t skipped) {
  const uint64_t want_skipped = std::min(offset, d.count);
  const uint64_t want = std::min(limit, d.count - want_skipped);
  if (skipped != want_skipped) {
    return Mismatch("skipped", skipped, want_skipped);
  }
  if (got.size() != want) return Mismatch("page size", got.size(), want);
  return CheckSubset(d, got);
}

}  // namespace perfbench
