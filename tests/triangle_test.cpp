// Tests for the AYZ-style triangle counting extension (§9 future work).

#include <gtest/gtest.h>

#include <tuple>

#include "core/cancel_token.h"
#include "core/triangle.h"
#include "datagen/generators.h"
#include "tests/test_util.h"

namespace jpmm {
namespace {

// Symmetric random graph (no self loops).
BinaryRelation RandomGraph(uint32_t n, uint32_t edges, uint64_t seed) {
  Rng rng(seed);
  BinaryRelation g;
  for (uint32_t i = 0; i < edges; ++i) {
    const auto u = static_cast<Value>(rng.NextBounded(n));
    const auto v = static_cast<Value>(rng.NextBounded(n));
    if (u == v) continue;
    g.Add(u, v);
    g.Add(v, u);
  }
  g.Finalize();
  return g;
}

// O(n^3) oracle.
uint64_t OracleTriangles(const IndexedRelation& g) {
  uint64_t count = 0;
  for (Value a = 0; a < g.num_x(); ++a) {
    for (Value b = a + 1; b < g.num_x(); ++b) {
      if (!g.Contains(a, b)) continue;
      for (Value c = b + 1; c < g.num_x(); ++c) {
        if (g.Contains(a, c) && g.Contains(b, c)) ++count;
      }
    }
  }
  return count;
}

TEST(Triangle, SingleTriangle) {
  BinaryRelation g;
  for (auto [u, v] : {std::pair<Value, Value>{0, 1}, {1, 2}, {0, 2}}) {
    g.Add(u, v);
    g.Add(v, u);
  }
  g.Finalize();
  IndexedRelation gi(g);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 1u);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, 1u);
}

TEST(Triangle, CompleteGraphK6) {
  BinaryRelation g;
  for (Value u = 0; u < 6; ++u) {
    for (Value v = 0; v < 6; ++v) {
      if (u != v) g.Add(u, v);
    }
  }
  g.Finalize();
  IndexedRelation gi(g);
  // C(6,3) = 20 triangles.
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 20u);
  for (uint64_t delta : {1ull, 2ull, 3ull, 10ull}) {
    TriangleCountOptions opts;
    opts.delta = delta;
    EXPECT_EQ(CountTrianglesMm(gi, opts).triangles, 20u) << delta;
  }
}

TEST(Triangle, TriangleFreeBipartite) {
  BinaryRelation g;
  for (Value u = 0; u < 10; ++u) {
    for (Value v = 10; v < 20; ++v) {
      g.Add(u, v);
      g.Add(v, u);
    }
  }
  g.Finalize();
  IndexedRelation gi(g);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, 0u);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), 0u);
}

class TriangleSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, HeavyPathMode>> {};

TEST_P(TriangleSweep, MatchesOracleAcrossThresholds) {
  const auto [seed, mode] = GetParam();
  BinaryRelation g = RandomGraph(40, 250, seed);
  IndexedRelation gi(g);
  const uint64_t expected = OracleTriangles(gi);
  EXPECT_EQ(CountTrianglesNodeIterator(gi), expected);
  for (uint64_t delta : {1ull, 3ull, 8ull, 1000ull}) {
    TriangleCountOptions opts;
    opts.delta = delta;
    opts.heavy_path = mode;
    const auto res = CountTrianglesMm(gi, opts);
    EXPECT_EQ(res.triangles, expected) << "seed=" << seed << " delta=" << delta
                                       << " mode=" << HeavyPathModeName(mode);
    EXPECT_EQ(res.light_triangles + res.heavy_triangles, res.triangles);
    // A forced mode pins the kernel of every trace block that ran.
    const HeavyKernelCounts& kc = res.kernel_counts;
    switch (mode) {
      case HeavyPathMode::kForceDense:
        EXPECT_EQ(kc.dense, kc.total());
        break;
      case HeavyPathMode::kForceCsrDense:
        EXPECT_EQ(kc.csr_dense, kc.total());
        break;
      case HeavyPathMode::kForceCsrCsr:
        EXPECT_EQ(kc.csr_csr, kc.total());
        break;
      case HeavyPathMode::kAuto:
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TriangleSweep,
    ::testing::Combine(::testing::Range<uint64_t>(1, 9),
                       ::testing::Values(HeavyPathMode::kAuto,
                                         HeavyPathMode::kForceDense,
                                         HeavyPathMode::kForceCsrDense,
                                         HeavyPathMode::kForceCsrCsr)));

// A token fired before the run skips every light chunk and every heavy
// trace block, and the heavy skips are reported.
TEST(Triangle, FiredTokenSkipsEveryHeavyBlock) {
  BinaryRelation g = CommunityGraph(3, 20, 1.0, 5);
  IndexedRelation gi(g);
  CancelToken token;
  token.RequestCancel();
  TriangleCountOptions opts;
  opts.delta = 1;  // every vertex heavy: one 60-row trace block
  opts.cancel = &token;
  const auto res = CountTrianglesMm(gi, opts);
  EXPECT_TRUE(res.cancelled);
  EXPECT_EQ(res.heavy_vertices, 60u);
  EXPECT_EQ(res.blocks_skipped, 1u);
  EXPECT_EQ(res.heavy_triangles, 0u);
}

TEST(Triangle, CommunityGraph) {
  BinaryRelation g = CommunityGraph(3, 20, 1.0, 5);
  IndexedRelation gi(g);
  // 3 complete communities of 20: 3 * C(20,3) triangles.
  const uint64_t expected = 3 * 1140;
  EXPECT_EQ(CountTrianglesNodeIterator(gi), expected);
  EXPECT_EQ(CountTrianglesMm(gi).triangles, expected);
}

TEST(Triangle, ThreadsDoNotChangeCount) {
  BinaryRelation g = RandomGraph(60, 600, 99);
  IndexedRelation gi(g);
  const uint64_t ref = CountTrianglesMm(gi).triangles;
  for (int threads : {2, 4}) {
    TriangleCountOptions opts;
    opts.threads = threads;
    EXPECT_EQ(CountTrianglesMm(gi, opts).triangles, ref);
  }
}

TEST(Triangle, MemoryCapDegrades) {
  BinaryRelation g = RandomGraph(80, 1200, 7);
  IndexedRelation gi(g);
  TriangleCountOptions opts;
  opts.delta = 1;
  opts.max_matrix_bytes = 64;  // absurd cap: force threshold doubling
  const auto res = CountTrianglesMm(gi, opts);
  EXPECT_GT(res.delta_used, 1u);
  EXPECT_EQ(res.triangles, CountTrianglesNodeIterator(gi));
}

TEST(Triangle, EmptyAndTinyGraphs) {
  BinaryRelation empty;
  empty.Finalize();
  IndexedRelation ei(empty);
  EXPECT_EQ(CountTrianglesMm(ei).triangles, 0u);

  BinaryRelation edge;
  edge.Add(0, 1);
  edge.Add(1, 0);
  edge.Finalize();
  IndexedRelation edgei(edge);
  EXPECT_EQ(CountTrianglesMm(edgei).triangles, 0u);
}

}  // namespace
}  // namespace jpmm
