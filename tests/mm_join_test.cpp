// Correctness tests for Algorithm 1 (MMJoin) and the combinatorial Non-MM
// join, against brute-force oracles, across thresholds / skews / threads —
// the central property suite of the library.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/join_project.h"
#include "core/mm_join.h"
#include "core/nonmm_join.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

using testutil::OracleTwoPath;
using testutil::OracleTwoPathCounted;
using testutil::RandomRelation;
using testutil::Sorted;

TEST(MmJoin, TinyHandComputedExample) {
  // R = {(0,0), (0,1), (1,1)}, S = {(5,0), (6,1)}:
  // output = {(0,5), (0,6), (1,6)}.
  BinaryRelation r, s;
  r.Add(0, 0);
  r.Add(0, 1);
  r.Add(1, 1);
  r.Finalize();
  s.Add(5, 0);
  s.Add(6, 1);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  auto res = MmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(res.pairs),
            (std::vector<OutPair>{{0, 5}, {0, 6}, {1, 6}}));
}

TEST(MmJoin, PaperExample2) {
  // Example 2 of the paper: two bipartite relations where x,y in {1..6};
  // light part has values 1-3, heavy part 4-6 under Delta1 = Delta2 = 2.
  BinaryRelation r, s;
  // R: 1-1, 2-2, 3-3 (light chains) and dense block on {4,5,6}.
  r.Add(1, 1);
  r.Add(2, 2);
  r.Add(3, 3);
  r.Add(4, 4);
  r.Add(4, 6);
  r.Add(5, 4);
  r.Add(5, 5);
  r.Add(5, 6);
  r.Add(6, 4);
  r.Add(6, 5);
  r.Finalize();
  s.Add(1, 1);
  s.Add(2, 2);
  s.Add(3, 3);
  s.Add(4, 4);
  s.Add(4, 5);
  s.Add(5, 4);
  s.Add(5, 5);
  s.Add(5, 6);
  s.Add(6, 5);
  s.Add(6, 6);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {2, 2};
  opts.count_witnesses = true;
  auto res = MmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(res.counted), OracleTwoPathCounted(r, s));
  // The heavy block {4,5,6} x {4,5,6} should have gone through the matrix.
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_inner, 0u);
}

// ---------------------------------------------------------------------------
// Property sweep: (num_x, num_y, tuples, skew, delta1, delta2, threads).
struct SweepParam {
  uint32_t nx, ny, tuples;
  double skew;
  uint64_t d1, d2;
  int threads;
};

class MmJoinSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(MmJoinSweep, EnumerationMatchesOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 31);
  BinaryRelation s = RandomRelation(p.nx + 7, p.ny, p.tuples, p.skew, 32);
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = MmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, s));
}

TEST_P(MmJoinSweep, CountsMatchOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 33);
  BinaryRelation s = RandomRelation(p.nx + 3, p.ny, p.tuples, p.skew, 34);
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  opts.count_witnesses = true;
  auto res = MmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(res.counted), OracleTwoPathCounted(r, s));
}

TEST_P(MmJoinSweep, NonMmMatchesOracle) {
  const SweepParam p = GetParam();
  BinaryRelation r = RandomRelation(p.nx, p.ny, p.tuples, p.skew, 35);
  BinaryRelation s = RandomRelation(p.nx + 5, p.ny, p.tuples, p.skew, 36);
  IndexedRelation ri(r), si(s);
  NonMmJoinOptions opts;
  opts.thresholds = {p.d1, p.d2};
  opts.threads = p.threads;
  auto res = NonMmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, s));

  opts.count_witnesses = true;
  auto counted = NonMmJoinTwoPath(ri, si, opts);
  EXPECT_EQ(Sorted(counted.counted), OracleTwoPathCounted(r, s));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MmJoinSweep,
    ::testing::Values(
        // all-light extreme
        SweepParam{30, 20, 150, 0.8, 1000, 1000, 1},
        // all-heavy extreme
        SweepParam{30, 20, 150, 0.8, 1, 1, 1},
        // balanced thresholds, single thread
        SweepParam{40, 30, 300, 1.0, 3, 3, 1},
        // asymmetric thresholds
        SweepParam{40, 30, 300, 1.0, 2, 8, 1},
        SweepParam{40, 30, 300, 1.0, 8, 2, 1},
        // heavy skew (hubs)
        SweepParam{60, 40, 500, 1.6, 4, 4, 1},
        // no skew (uniform)
        SweepParam{60, 40, 500, 0.0, 4, 4, 1},
        // multithreaded variants
        SweepParam{40, 30, 300, 1.0, 3, 3, 4},
        SweepParam{60, 40, 500, 1.6, 2, 2, 3},
        // larger instance
        SweepParam{200, 150, 3000, 1.2, 6, 6, 2}));

// ---------------------------------------------------------------------------

TEST(MmJoin, SelfJoinMatchesOracle) {
  BinaryRelation r = RandomRelation(50, 35, 400, 1.3, 41);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {3, 3};
  auto res = MmJoinTwoPath(ri, ri, opts);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, r));
}

TEST(MmJoin, CommunityGraphFromExample1) {
  // Example 1: N^{3/2} join size but Theta(N) projected output.
  BinaryRelation r = CommunityGraph(4, 24, 0.9, 7);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {8, 8};
  auto res = MmJoinTwoPath(ri, ri, opts);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, r));
  EXPECT_GT(res.heavy_rows, 0u);  // communities are heavy
}

TEST(MmJoin, MinCountFiltersPairs) {
  BinaryRelation r = RandomRelation(30, 20, 250, 1.0, 42);
  IndexedRelation ri(r);
  for (uint32_t c : {2u, 3u, 5u}) {
    MmJoinOptions opts;
    opts.thresholds = {3, 3};
    opts.count_witnesses = true;
    opts.min_count = c;
    auto res = MmJoinTwoPath(ri, ri, opts);
    EXPECT_EQ(Sorted(res.counted), OracleTwoPathCounted(r, r, c)) << "c=" << c;
  }
}

TEST(MmJoin, SortDedupMatchesStampDedup) {
  BinaryRelation r = RandomRelation(45, 30, 350, 1.2, 43);
  IndexedRelation ri(r);
  MmJoinOptions stamp;
  stamp.thresholds = {3, 3};
  MmJoinOptions sortd = stamp;
  sortd.dedup = DedupImpl::kSortLocal;
  EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, stamp).pairs),
            Sorted(MmJoinTwoPath(ri, ri, sortd).pairs));

  stamp.count_witnesses = sortd.count_witnesses = true;
  EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, stamp).counted),
            Sorted(MmJoinTwoPath(ri, ri, sortd).counted));
}

// Dense two-path output under forced CSR x CSR: nearly every column of
// every product row is set, and the kernel's rows come in first-touch
// order, so the sort-merge dedup has to order them itself before merging
// them with the light witnesses (delta1 = 60 leaves some y values light,
// so a pair can have witnesses on both sides). Both dedups must equal the
// dense-GEMM result, on the uniform plan (rows handed over in place) and
// on a forced density grid (rows gathered across bands).
TEST(MmJoin, ForcedCsrCsrDenseOutputMatchesAcrossDedupAndKernels) {
  BinaryRelation r = RandomRelation(150, 40, 3000, 0.3, 46);
  IndexedRelation ri(r);
  for (PartitionMode partition : {PartitionMode::kOff, PartitionMode::kForce}) {
    for (int threads : {1, 3}) {
      for (bool counted : {false, true}) {
        MmJoinOptions dense;
        dense.thresholds = {60, 2};
        dense.threads = threads;
        dense.row_block = 64;
        dense.partition = partition;
        dense.count_witnesses = counted;
        dense.heavy_path = HeavyPathMode::kForceDense;
        MmJoinOptions stamp = dense;
        stamp.heavy_path = HeavyPathMode::kForceCsrCsr;
        MmJoinOptions sortd = stamp;
        sortd.dedup = DedupImpl::kSortLocal;
        const MmJoinResult want = MmJoinTwoPath(ri, ri, dense);
        const MmJoinResult got_stamp = MmJoinTwoPath(ri, ri, stamp);
        const MmJoinResult got_sort = MmJoinTwoPath(ri, ri, sortd);
        const std::string where = std::string(PartitionModeName(partition)) +
                                  " threads=" + std::to_string(threads) +
                                  " counted=" + std::to_string(counted);
        // Dense output: most of the 150 x 150 pairs are present.
        ASSERT_GT(want.size(), 150u * 150u * 3 / 4) << where;
        EXPECT_GT(got_stamp.kernel_counts.csr_csr, 0u) << where;
        EXPECT_EQ(got_stamp.kernel_counts.csr_csr,
                  got_stamp.kernel_counts.total())
            << where;
        EXPECT_EQ(got_sort.kernel_counts.csr_csr,
                  got_sort.kernel_counts.total())
            << where;
        if (counted) {
          const auto ref = Sorted(want.counted);
          EXPECT_EQ(Sorted(got_stamp.counted), ref) << where;
          EXPECT_EQ(Sorted(got_sort.counted), ref) << where;
        } else {
          const auto ref = Sorted(want.pairs);
          EXPECT_EQ(Sorted(got_stamp.pairs), ref) << where;
          EXPECT_EQ(Sorted(got_sort.pairs), ref) << where;
        }
      }
    }
  }
}

TEST(MmJoin, SmallRowBlocksMatch) {
  BinaryRelation r = RandomRelation(60, 30, 600, 1.4, 44);
  IndexedRelation ri(r);
  MmJoinOptions a;
  a.thresholds = {2, 2};
  a.row_block = 1;
  MmJoinOptions b = a;
  b.row_block = 7;
  MmJoinOptions c = a;
  c.row_block = 4096;
  const auto ref = Sorted(MmJoinTwoPath(ri, ri, a).pairs);
  EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, b).pairs), ref);
  EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, c).pairs), ref);
}

TEST(MmJoin, MemoryCapRaisesThresholds) {
  BinaryRelation r = RandomRelation(200, 100, 3000, 1.2, 45);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  opts.max_matrix_bytes = 1024;  // absurdly small: force adjustment
  auto res = MmJoinTwoPath(ri, ri, opts);
  EXPECT_GT(res.adjusted_thresholds.delta1, 1u);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, r));
}

TEST(MmJoin, EmptyRelations) {
  BinaryRelation r;
  r.Finalize();
  IndexedRelation ri(r);
  MmJoinOptions opts;
  auto res = MmJoinTwoPath(ri, ri, opts);
  EXPECT_TRUE(res.pairs.empty());
}

TEST(MmJoin, DisjointYDomainsProduceNothing) {
  BinaryRelation r, s;
  r.Add(0, 0);
  r.Add(1, 1);
  r.Finalize();
  s.Add(0, 5);
  s.Add(1, 6);
  s.Finalize();
  IndexedRelation ri(r), si(s);
  MmJoinOptions opts;
  opts.thresholds = {1, 1};
  EXPECT_TRUE(MmJoinTwoPath(ri, si, opts).pairs.empty());
}

TEST(MmJoin, OutputHasNoDuplicates) {
  BinaryRelation r = RandomRelation(80, 40, 900, 1.3, 46);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {3, 5};
  auto res = MmJoinTwoPath(ri, ri, opts);
  auto sorted = Sorted(res.pairs);
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(NonMm, HeavyPathExercised) {
  BinaryRelation r = CommunityGraph(3, 16, 1.0, 3);
  IndexedRelation ri(r);
  NonMmJoinOptions opts;
  opts.thresholds = {4, 4};
  auto res = NonMmJoinTwoPath(ri, ri, opts);
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_EQ(Sorted(res.pairs), OracleTwoPath(r, r));
}

// Guard for the dynamic (atomic-chunk-claiming) scheduler: on skewed
// inputs, every thread count — including ones above the hardware count —
// must produce the identical sorted output. A partition-dependent race or
// per-worker-state collision would show up as a diff here.
TEST(MmJoin, ThreadCountDoesNotChangeSortedOutput) {
  BipartiteSpec spec;
  spec.num_sets = 1500;
  spec.dom_size = 500;
  spec.min_set_size = 1;
  spec.max_set_size = 16;
  spec.element_skew = 0.9;  // zipf-heavy hubs => skewed x/y degrees
  spec.size_skew = 1.0;
  spec.seed = 97;
  BinaryRelation rel = MakeBipartite(spec);
  IndexedRelation ri(rel);

  const std::vector<int> sweep = {1, 3, HardwareThreads()};
  for (DedupImpl dedup : {DedupImpl::kStampArray, DedupImpl::kSortLocal}) {
    MmJoinOptions base;
    base.thresholds = {4, 4};  // force a real heavy part
    base.dedup = dedup;
    base.threads = 1;
    const auto ref = Sorted(MmJoinTwoPath(ri, ri, base).pairs);
    EXPECT_FALSE(ref.empty());
    for (int threads : sweep) {
      MmJoinOptions opts = base;
      opts.threads = threads;
      EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, opts).pairs), ref)
          << "threads=" << threads;
    }
    // Counted variant: witness counts must also be partition-independent.
    MmJoinOptions counted = base;
    counted.count_witnesses = true;
    const auto cref = Sorted(MmJoinTwoPath(ri, ri, counted).counted);
    for (int threads : sweep) {
      MmJoinOptions opts = counted;
      opts.threads = threads;
      EXPECT_EQ(Sorted(MmJoinTwoPath(ri, ri, opts).counted), cref)
          << "threads=" << threads;
    }
  }
}

// Same property through the JoinProject facade (plan choice + execution),
// with a pinned calibration so the optimizer's decision is deterministic
// and no measurement runs inside the test.
TEST(MmJoin, JoinProjectThreadSweepIsDeterministic) {
  BipartiteSpec spec;
  spec.num_sets = 2500;
  spec.dom_size = 600;
  spec.max_set_size = 20;
  spec.element_skew = 0.8;
  spec.seed = 131;
  BinaryRelation rel = MakeBipartite(spec);

  const MatMulCalibration cal =
      MatMulCalibration::FromFlopsRate(5e10, {1, 2, 4, 8});
  JoinProjectOptions opts;
  opts.sorted = true;
  opts.optimizer.calibration = &cal;
  opts.threads = 1;
  const auto ref = JoinProject::TwoPath(rel, rel, opts);
  for (int threads : {3, HardwareThreads()}) {
    JoinProjectOptions o = opts;
    o.threads = threads;
    const auto got = JoinProject::TwoPath(rel, rel, o);
    EXPECT_EQ(got.pairs, ref.pairs) << "threads=" << threads;
    EXPECT_EQ(got.executed, ref.executed);
  }
}

TEST(MmJoin, InstrumentationIsConsistent) {
  BinaryRelation r = CommunityGraph(3, 20, 1.0, 9);
  IndexedRelation ri(r);
  MmJoinOptions opts;
  opts.thresholds = {5, 5};
  auto res = MmJoinTwoPath(ri, ri, opts);
  EXPECT_GE(res.light_seconds, 0.0);
  EXPECT_GE(res.heavy_seconds, 0.0);
  EXPECT_EQ(res.adjusted_thresholds.delta1, 5u);
  EXPECT_GT(res.heavy_rows, 0u);
  EXPECT_GT(res.heavy_cols, 0u);
}

}  // namespace
}  // namespace jpmm
