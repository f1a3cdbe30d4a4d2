// ResultSink layer under contention: CountOnlySink's shard-local counters
// and the span reservations of LimitSink / PageSink. Every test drives
// each shard from its own std::thread (the executor contract: one owner per
// shard) with a mix of scalar and span deliveries and checks the exact
// totals; the engine-level tests check CountOnlySink against VectorSink on
// real two-path executions across heavy-product modes and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

constexpr int kShardCounts[] = {1, 2, 3, 4, 8};

// Which delivery family a stress run exercises: the page sinks size() by
// one result kind, so each run sticks to one.
enum class Kind { kPairs, kCounted, kTuples };
constexpr Kind kKinds[] = {Kind::kPairs, Kind::kCounted, Kind::kTuples};
constexpr uint32_t kArity = 3;

// Emits `n` results through `sh`, tagged (worker, sequence number) so every
// result is distinct, alternating scalar calls with spans of 1..40 results.
void Emit(ResultSink::Shard& sh, Kind kind, uint32_t worker, uint64_t n,
          uint64_t seed) {
  Rng rng(seed);
  uint64_t seq = 0;
  while (seq < n) {
    const uint64_t want =
        rng.NextBounded(3) == 0 ? 1 : 1 + rng.NextBounded(40);
    const uint64_t len = std::min(n - seq, want);
    const bool scalar = len == 1 && rng.NextBounded(2) == 0;
    std::vector<OutPair> ps;
    std::vector<CountedPair> cs;
    std::vector<Value> flat;
    for (uint64_t i = 0; i < len; ++i) {
      const Value z = static_cast<Value>(seq + i);
      ps.push_back(OutPair{worker, z});
      cs.push_back(CountedPair{worker, z, 1});
      flat.insert(flat.end(), {worker, z, worker + z});
    }
    switch (kind) {
      case Kind::kPairs:
        scalar ? sh.OnPair(ps[0]) : sh.OnPairs(ps);
        break;
      case Kind::kCounted:
        scalar ? sh.OnCountedPair(cs[0]) : sh.OnCountedPairs(cs);
        break;
      case Kind::kTuples:
        scalar ? sh.OnTuple(flat) : sh.OnTuples(flat, kArity);
        break;
    }
    seq += len;
  }
}

// Results per worker for the stress runs: uneven across workers so shards
// finish at different times.
uint64_t PerWorker(int w) { return 3000 + 517 * static_cast<uint64_t>(w); }

uint64_t TotalFor(int shards) {
  uint64_t total = 0;
  for (int w = 0; w < shards; ++w) total += PerWorker(w);
  return total;
}

// Runs one thread per shard, each emitting PerWorker(w) results.
void RunShards(ResultSink& sink, int shards, Kind kind, uint64_t seed) {
  std::vector<std::thread> workers;
  for (int w = 0; w < shards; ++w) {
    workers.emplace_back([&sink, w, kind, seed] {
      Emit(sink.shard(w), kind, static_cast<uint32_t>(w), PerWorker(w),
           seed * 131 + static_cast<uint64_t>(w));
    });
  }
  for (auto& t : workers) t.join();
}

// ---- CountOnlySink -------------------------------------------------------

TEST(CountOnlySink, ShardsNeverShareACacheLine) {
  static_assert(alignof(ResultSink::Shard) == 64);
  static_assert(sizeof(ResultSink::Shard) % 64 == 0);
  CountOnlySink sink;
  sink.Open(8);
  std::set<uintptr_t> lines;
  for (int w = 0; w < 8; ++w) {
    const auto addr = reinterpret_cast<uintptr_t>(&sink.shard(w));
    EXPECT_EQ(addr % 64, 0u) << "shard " << w;
    lines.insert(addr / 64);
  }
  EXPECT_EQ(lines.size(), 8u);
}

TEST(CountOnlySink, ExactTotalsUnderConcurrentEmission) {
  for (int shards : kShardCounts) {
    for (Kind kind : kKinds) {
      CountOnlySink sink;
      sink.Open(shards);
      const uint64_t total = TotalFor(shards);
      // A live reader: count() is race-free during emission and never
      // runs backwards or past the final total.
      std::atomic<bool> stop{false};
      bool monotone = true, bounded = true;
      std::thread reader([&] {
        uint64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const uint64_t now = sink.count();
          monotone = monotone && now >= last;
          bounded = bounded && now <= total;
          last = now;
        }
      });
      RunShards(sink, shards, kind, /*seed=*/shards);
      stop.store(true, std::memory_order_release);
      reader.join();
      sink.Finish();
      EXPECT_TRUE(monotone) << "shards=" << shards;
      EXPECT_TRUE(bounded) << "shards=" << shards;
      EXPECT_EQ(sink.count(), total) << "shards=" << shards;
    }
  }
}

TEST(CountOnlySink, ReopenResets) {
  CountOnlySink sink;
  EXPECT_EQ(sink.count(), 0u);
  sink.Open(4);
  RunShards(sink, 4, Kind::kPairs, 1);
  sink.Finish();
  ASSERT_EQ(sink.count(), TotalFor(4));
  sink.Open(2);
  EXPECT_EQ(sink.count(), 0u);
  RunShards(sink, 2, Kind::kTuples, 2);
  sink.Finish();
  EXPECT_EQ(sink.count(), TotalFor(2));
}

// ---- LimitSink / PageSink span reservation -------------------------------

// Pairs with z = 0, 1, 2, ...: with one shard the result slot of each
// pair is its z, so the kept set shows exactly which slots a span kept.
std::vector<OutPair> Seq(Value from, Value n) {
  std::vector<OutPair> ps;
  for (Value z = from; z < from + n; ++z) ps.push_back(OutPair{0, z});
  return ps;
}

std::vector<Value> Zs(const std::vector<OutPair>& ps) {
  std::vector<Value> zs;
  for (const OutPair& p : ps) zs.push_back(p.z);
  return zs;
}

std::vector<Value> Range(Value from, Value to) {
  std::vector<Value> r;
  for (Value v = from; v < to; ++v) r.push_back(v);
  return r;
}

TEST(PageSink, SpansStraddlingOffsetAndEndKeepExactlyTheirInPageSlots) {
  PageSink sink(/*offset=*/5, /*limit=*/10);  // page = slots [5, 15)
  sink.Open(1);
  auto& sh = sink.shard(0);
  sh.OnPairs(Seq(0, 3));   // slots 0..2: all before the page
  sh.OnPairs(Seq(3, 4));   // slots 3..6: straddles offset, keeps 5, 6
  sh.OnPair(OutPair{0, 7});
  EXPECT_FALSE(sink.done());
  sh.OnPairs(Seq(8, 10));  // slots 8..17: straddles end, keeps 8..14
  EXPECT_TRUE(sink.done());
  sh.OnPairs(Seq(18, 4));  // past the page
  sh.OnPair(OutPair{0, 22});
  sink.Finish();
  EXPECT_EQ(Zs(sink.pairs()), Range(5, 15));
  EXPECT_EQ(sink.size(), 10u);
  EXPECT_EQ(sink.skipped(), 5u);
}

TEST(PageSink, OneSpanCoveringThePageKeepsItsMiddle) {
  PageSink sink(/*offset=*/4, /*limit=*/3);
  sink.Open(1);
  std::vector<CountedPair> cs;
  for (Value z = 0; z < 20; ++z) cs.push_back(CountedPair{0, z, z + 1});
  sink.shard(0).OnCountedPairs(cs);
  sink.Finish();
  ASSERT_EQ(sink.counted().size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(sink.counted()[i].z, 4 + i);
  EXPECT_EQ(sink.skipped(), 4u);
  EXPECT_TRUE(sink.done());
}

TEST(PageSink, TupleSpansStraddlingTheBoundaryKeepWholeTuples) {
  PageSink sink(/*offset=*/2, /*limit=*/3);  // tuple slots [2, 5)
  sink.Open(1);
  std::vector<Value> flat;
  for (Value t = 0; t < 4; ++t) flat.insert(flat.end(), {t, t + 10, t + 20});
  sink.shard(0).OnTuples(flat, kArity);  // slots 0..3: keeps 2, 3
  const Value last[] = {4, 14, 24};
  sink.shard(0).OnTuple(last);  // slot 4
  sink.shard(0).OnTuples(flat, kArity);  // page already full
  sink.Finish();
  EXPECT_EQ(sink.tuple_arity(), kArity);
  EXPECT_EQ(sink.tuple_data(),
            (std::vector<Value>{2, 12, 22, 3, 13, 23, 4, 14, 24}));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.skipped(), 2u);
}

TEST(LimitSink, SpanStraddlingTheLimitKeepsItsHead) {
  LimitSink sink(7);
  sink.Open(1);
  sink.shard(0).OnPairs(Seq(0, 5));
  sink.shard(0).OnPairs(Seq(5, 5));  // keeps 5, 6
  EXPECT_TRUE(sink.done());
  sink.shard(0).OnPair(OutPair{0, 10});
  sink.Finish();
  EXPECT_EQ(Zs(sink.pairs()), Range(0, 7));
  EXPECT_EQ(sink.limit(), 7u);
}

size_t KeptDistinct(const PageSink& sink, Kind kind) {
  std::set<std::pair<Value, Value>> keys;
  switch (kind) {
    case Kind::kPairs:
      for (const OutPair& p : sink.pairs()) keys.insert({p.x, p.z});
      break;
    case Kind::kCounted:
      for (const CountedPair& p : sink.counted()) keys.insert({p.x, p.z});
      break;
    case Kind::kTuples:
      for (size_t i = 0; i < sink.tuple_data().size(); i += kArity) {
        keys.insert({sink.tuple_data()[i], sink.tuple_data()[i + 1]});
      }
      break;
  }
  return keys.size();
}

// Reservation exactness with every shard count, result kind and a page
// that sits before, across, or past the end of the output. The offset-0
// pages are exactly LimitSink, which is PageSink(0, k).
TEST(PageSink, ReservationIsExactUnderConcurrentMixedDeliveries) {
  for (int shards : kShardCounts) {
    const uint64_t total = TotalFor(shards);
    const std::pair<uint64_t, uint64_t> pages[] = {
        {0, 1},          {0, 100},           {37, 250},
        {total / 2, 999}, {total - 10, 100}, {total + 5, 10},
        {0, total + 1},  {0, ~uint64_t{0}},
    };
    for (Kind kind : kKinds) {
      for (const auto& [offset, limit] : pages) {
        PageSink sink(offset, limit);
        sink.Open(shards);
        RunShards(sink, shards, kind, /*seed=*/offset + shards);
        sink.Finish();
        const uint64_t skipped = std::min(offset, total);
        const uint64_t want = std::min(limit, total - skipped);
        EXPECT_EQ(sink.size(), want)
            << "shards=" << shards << " offset=" << offset
            << " limit=" << limit;
        EXPECT_EQ(sink.skipped(), skipped);
        EXPECT_EQ(KeptDistinct(sink, kind), want) << "no slot kept twice";
        EXPECT_EQ(sink.done(), limit != ~uint64_t{0} &&
                                   total >= offset + limit);
      }
    }
  }
}

TEST(PageSink, ReopenResets) {
  PageSink sink(3, 4);
  sink.Open(2);
  RunShards(sink, 2, Kind::kPairs, 5);
  sink.Finish();
  ASSERT_TRUE(sink.done());
  sink.Open(3);
  EXPECT_FALSE(sink.done());
  EXPECT_EQ(sink.skipped(), 0u);
  sink.shard(2).OnPairs(Seq(0, 5));
  sink.Finish();
  EXPECT_EQ(Zs(sink.pairs()), Range(3, 5));
  EXPECT_EQ(sink.skipped(), 3u);
}

// ---- Engine level: CountOnlySink agrees with VectorSink ------------------

struct HeavyMode {
  const char* name;
  PartitionMode partition;
  HeavyPathMode heavy_path;
};

constexpr HeavyMode kModes[] = {
    {"partition-off", PartitionMode::kOff, HeavyPathMode::kAuto},
    {"partition-force", PartitionMode::kForce, HeavyPathMode::kAuto},
    {"csr-csr", PartitionMode::kAuto, HeavyPathMode::kForceCsrCsr},
};

TEST(CountOnlySink, MatchesVectorSinkOnTwoPathAcrossModesAndThreads) {
  // Four dense communities: thresholds {2, 2} leave a real heavy part,
  // so the product kernels' emit loops feed the sink.
  const BinaryRelation rel = CommunityGraph(4, 60, 0.5, 11);
  const size_t oracle = testutil::OracleTwoPath(rel, rel).size();
  QueryEngine engine;
  engine.catalog().Put("R", rel);
  for (bool counted : {false, true}) {
    QuerySpec spec;
    spec.kind = QueryKind::kTwoPath;
    spec.relations = {"R", "R"};
    spec.strategy = Strategy::kMmJoin;
    spec.count_witnesses = counted;
    PreparedQuery q;
    ASSERT_TRUE(engine.Prepare(spec, &q).ok());
    for (const HeavyMode& mode : kModes) {
      for (int threads : {1, 2, 4, 8}) {
        ExecOptions exec;
        exec.threads = threads;
        exec.thresholds = {2, 2};
        exec.partition = mode.partition;
        exec.heavy_path = mode.heavy_path;
        const std::string where = std::string(mode.name) +
                                  " threads=" + std::to_string(threads) +
                                  " counted=" + std::to_string(counted);

        VectorSink all;
        ExecStats stats;
        ASSERT_TRUE(engine.Execute(q, all, exec, &stats).ok()) << where;
        EXPECT_GT(stats.heavy_blocks_executed, 0u) << where;
        EXPECT_EQ(all.size(), oracle) << where;

        CountOnlySink count;
        ASSERT_TRUE(engine.Execute(q, count, exec).ok()) << where;
        EXPECT_EQ(count.count(), all.size()) << where;

        // Behind a fan-out (the batched delivery path) the count is the
        // same, and the fan-out's own forward total covers it.
        CountOnlySink fanned;
        FanoutSink fan;
        fan.AddTarget(&fanned);
        ASSERT_TRUE(engine.Execute(q, fan, exec).ok()) << where;
        EXPECT_EQ(fanned.count(), all.size()) << where;
        EXPECT_EQ(fan.results_forwarded(), all.size()) << where;
      }
    }
  }
}

}  // namespace
}  // namespace jpmm
