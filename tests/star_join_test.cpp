// Tests for the star-join MMJoin (§3.2) and its combinatorial comparator.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/join_project.h"
#include "core/result_sink.h"
#include "core/star_join.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleStar;
using testutil::RandomRelation;
using testutil::ToVectors;

struct StarFixture {
  std::vector<BinaryRelation> rels;
  std::vector<IndexedRelation> idx;
  std::vector<const IndexedRelation*> idx_ptrs;
  std::vector<const BinaryRelation*> rel_ptrs;

  StarFixture(int k, uint32_t nx, uint32_t ny, uint32_t tuples, double skew,
              uint64_t seed) {
    for (int i = 0; i < k; ++i) {
      rels.push_back(RandomRelation(nx, ny, tuples, skew, seed + i));
    }
    for (int i = 0; i < k; ++i) {
      idx.emplace_back(rels[i]);
      rel_ptrs.push_back(&rels[i]);
    }
    for (auto& x : idx) idx_ptrs.push_back(&x);
  }
};

struct StarParam {
  int k;
  uint32_t nx, ny, tuples;
  double skew;
  uint64_t d1, d2;
  int threads;
};

class StarSweep : public ::testing::TestWithParam<StarParam> {};

TEST_P(StarSweep, MmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 200);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = MmStarJoin(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
}

TEST_P(StarSweep, NonMmStarMatchesOracle) {
  const StarParam p = GetParam();
  StarFixture f(p.k, p.nx, p.ny, p.tuples, p.skew, 300);
  StarJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = NonMmStarJoin(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StarSweep,
    ::testing::Values(
        StarParam{2, 20, 15, 80, 0.8, 2, 2, 1},
        StarParam{3, 15, 12, 60, 0.8, 2, 2, 1},
        StarParam{3, 15, 12, 60, 0.8, 1, 1, 1},    // everything heavy-ish
        StarParam{3, 15, 12, 60, 0.8, 100, 100, 1},  // everything light
        StarParam{3, 18, 14, 80, 1.5, 3, 2, 2},    // skewed + threads
        StarParam{4, 10, 8, 36, 0.7, 2, 2, 1},
        StarParam{4, 10, 8, 36, 0.7, 1, 2, 2},
        StarParam{5, 8, 6, 24, 0.5, 1, 1, 1}));

TEST(StarJoin, DenseBlockGoesThroughMatrix) {
  // One shared dense y-block: all x heavy, y heavy in all relations.
  BinaryRelation r;
  for (Value a = 0; a < 8; ++a) {
    for (Value b = 0; b < 8; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = MmStarJoin({&ri, &ri, &ri}, opts);
  EXPECT_GT(res.v_rows, 0u);
  EXPECT_GT(res.w_rows, 0u);
  EXPECT_GT(res.heavy_y, 0u);
  EXPECT_EQ(res.tuples.size(), 8u * 8 * 8);
}

TEST(StarJoin, MemoryCapDegradesGracefully) {
  BinaryRelation r;
  for (Value a = 0; a < 12; ++a) {
    for (Value b = 0; b < 12; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  StarJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 256;  // forces threshold doubling
  auto res = MmStarJoin({&ri, &ri}, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(res.tuples.size(), 12u * 12);
}

TEST(StarJoin, DifferentRelationsPerPosition) {
  StarFixture f(3, 14, 10, 50, 1.0, 400);
  StarJoinOptions opts;
  opts.thresholds = {2, 3};
  auto mm = MmStarJoin(f.idx_ptrs, opts);
  auto nonmm = NonMmStarJoin(f.idx_ptrs, opts);
  auto wcoj = WcojStarJoin(f.idx_ptrs);
  const auto oracle = OracleStar(f.rel_ptrs);
  EXPECT_EQ(ToVectors(mm.tuples), oracle);
  EXPECT_EQ(ToVectors(nonmm.tuples), oracle);
  EXPECT_EQ(ToVectors(wcoj), oracle);
}

TEST(StarJoin, EmptyIntersectionProducesNothing) {
  BinaryRelation a, b;
  a.Add(0, 0);
  a.Finalize();
  b.Add(0, 1);
  b.Finalize();
  IndexedRelation ai(a), bi(b);
  StarJoinOptions opts;
  auto res = MmStarJoin({&ai, &bi}, opts);
  EXPECT_EQ(res.tuples.size(), 0u);
}

TEST(StarJoin, K2AgreesWithTwoPathSemantics) {
  StarFixture f(2, 25, 18, 120, 1.1, 500);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  auto res = MmStarJoin(f.idx_ptrs, opts);
  EXPECT_EQ(ToVectors(res.tuples), OracleStar(f.rel_ptrs));
}

// ---- Partitioned dedup ----------------------------------------------------

// One dedup input: `copies` shuffled copies of `distinct` tuples, so the
// duplicates of a tuple land with different producers.
struct DedupCase {
  const char* name;
  uint32_t arity;
  std::vector<uint64_t> bounds;  // per column, as PartitionedTuples takes
  std::vector<Value> flat;
};

DedupCase MakeDedupCase(const char* name, uint32_t arity, size_t distinct,
                        int copies, uint64_t first_bound, Value first_lo,
                        uint64_t rest_bound, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> base(distinct, std::vector<Value>(arity));
  for (auto& t : base) {
    t[0] = static_cast<Value>(first_lo +
                              rng.NextBounded(first_bound - first_lo));
    for (uint32_t d = 1; d < arity; ++d) {
      t[d] = static_cast<Value>(rng.NextBounded(rest_bound));
    }
  }
  std::vector<std::vector<Value>> all;
  for (int c = 0; c < copies; ++c) {
    all.insert(all.end(), base.begin(), base.end());
  }
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.NextBounded(i)]);
  }
  std::vector<uint64_t> bounds(arity, rest_bound);
  bounds[0] = first_bound;
  DedupCase out{name, arity, bounds, {}};
  for (const auto& t : all) out.flat.insert(out.flat.end(), t.begin(), t.end());
  return out;
}

std::vector<DedupCase> DedupCases() {
  constexpr uint64_t kAll = uint64_t{1} << 32;
  std::vector<DedupCase> cases;
  for (uint32_t k : {1u, 2u, 3u, 4u, 5u}) {
    // The column widths pick the key width: narrow columns pack into
    // 64-bit keys, wider ones into 128-bit keys, and full-width columns at
    // k = 5 fit neither and take the comparison sort.
    cases.push_back(MakeDedupCase("narrow", k, 3000, 3, 64, 0, 40, 11 * k));
    cases.push_back(MakeDedupCase("wide16", k, 3000, 2, 1 << 16, 0, 1 << 16,
                                  13 * k));
    cases.push_back(
        MakeDedupCase("full-width", k, 3000, 2, kAll, 0, kAll, 17 * k));
    // Every tuple in one range: a single hot partition.
    cases.push_back(
        MakeDedupCase("one-first-value", k, 2000, 4, 1000, 999, 1000, 19 * k));
    // First values at the top of the domain: the range bound is 2^32.
    cases.push_back(MakeDedupCase("max-first-value", k, 2000, 3, kAll,
                                  std::numeric_limits<Value>::max() - 1, kAll,
                                  23 * k));
    cases.push_back(DedupCase{"empty", k, std::vector<uint64_t>(k, 100), {}});
  }
  return cases;
}

// The partitions `c` becomes when its tuples are produced by `threads`
// concurrent workers, one contiguous slice each.
std::unique_ptr<PartitionedTuples> Produce(const DedupCase& c, int threads) {
  auto parts = std::make_unique<PartitionedTuples>(threads, c.bounds);
  ParallelFor(threads, c.flat.size() / c.arity,
              [&](size_t i0, size_t i1, int w) {
                for (size_t i = i0; i < i1; ++i) {
                  parts->Add(w, {c.flat.data() + i * c.arity, c.arity});
                }
              });
  return parts;
}

TEST(StarDedup, ParallelDedupMatchesSortUnique) {
  for (const DedupCase& c : DedupCases()) {
    TupleBuffer want(c.arity, c.flat);
    want.SortUnique();
    // SortUnique itself against the naive sort of the tuples.
    std::vector<std::vector<Value>> naive;
    for (size_t i = 0; i < c.flat.size(); i += c.arity) {
      naive.emplace_back(c.flat.begin() + static_cast<long>(i),
                         c.flat.begin() + static_cast<long>(i + c.arity));
    }
    std::sort(naive.begin(), naive.end());
    naive.erase(std::unique(naive.begin(), naive.end()), naive.end());
    ASSERT_EQ(ToVectors(want), naive) << c.name << " k=" << c.arity;

    for (int threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(c.arity) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(Produce(c, threads)->SortUnique().flat(), want.flat());

      bool interrupted = false;
      EXPECT_EQ(DedupStarTuples(Produce(c, threads).get(), nullptr, nullptr,
                                &interrupted)
                    .flat(),
                want.flat());
      EXPECT_FALSE(interrupted);

      // Through a sink: shards merged in shard order are the sorted output,
      // and the result is still filled.
      VectorSink sink;
      sink.Open(threads);
      EXPECT_EQ(DedupStarTuples(Produce(c, threads).get(), &sink, nullptr,
                                &interrupted)
                    .flat(),
                want.flat());
      sink.Finish();
      EXPECT_EQ(sink.tuple_data(), want.flat());
      EXPECT_FALSE(interrupted);
    }
  }
}

TEST(StarDedup, VectorSinkOrderIsTheSameAtEveryThreadCount) {
  StarFixture f(3, 40, 30, 400, 1.2, 600);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  const TupleBuffer want = MmStarJoin(f.idx_ptrs, opts).tuples;
  ASSERT_EQ(ToVectors(want), OracleStar(f.rel_ptrs));
  auto wcoj_full = [](const std::vector<const IndexedRelation*>& rels,
                      const StarJoinOptions& so) {
    JoinProjectOptions jo;
    jo.strategy = Strategy::kWcojFull;
    jo.threads = so.threads;
    jo.sink = so.sink;
    return JoinProject::Star(rels, jo);
  };
  using Run = std::function<StarJoinResult(
      const std::vector<const IndexedRelation*>&, const StarJoinOptions&)>;
  const std::pair<const char*, Run> runs[] = {
      {"mm", MmStarJoin}, {"nonmm", NonMmStarJoin}, {"wcoj-full", wcoj_full}};
  for (int threads : {1, 2, 3, 4, 8}) {
    opts.threads = threads;
    for (const auto& [name, run] : runs) {
      VectorSink sink;
      opts.sink = &sink;
      const StarJoinResult res = run(f.idx_ptrs, opts);
      opts.sink = nullptr;
      EXPECT_EQ(res.tuples.flat(), want.flat())
          << name << " threads=" << threads;
      EXPECT_EQ(sink.tuple_data(), want.flat())
          << name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace jpmm
