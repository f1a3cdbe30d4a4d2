// Tests for the heavy-product executor (core/heavy_product.h), called
// directly: output rows against the dense reference product in every
// kernel / partition mode and thread count, the stop accounting, and the
// 2^24 exactness bound as a plan constraint.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "core/heavy_product.h"
#include "matrix/dense_matrix.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

using RowMap = std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>;

// Runs the executor and collects every delivered row, entries sorted by
// column. Rows must arrive exactly once.
RowMap RunProduct(
    const CsrMatrix& a, const CsrMatrix& b, const HeavyKnobs& knobs,
    HeavyRecord* record,
    const std::function<bool()>& stop = [] { return false; }) {
  RowMap rows;
  std::mutex mu;
  RunHeavyProduct(
      HeavyProduct{.a = a, .b = b}, knobs, stop,
      [&](int, uint32_t row, std::span<const HeavyEntry> entries) {
        std::vector<std::pair<uint32_t, uint32_t>> got;
        for (const HeavyEntry& e : entries) got.emplace_back(e.col, e.count);
        std::sort(got.begin(), got.end());
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(rows.emplace(row, std::move(got)).second) << row;
      },
      nullptr, record);
  return rows;
}

RowMap Reference(const CsrMatrix& a, const CsrMatrix& b) {
  const Matrix c = CsrProductReference(a, b.ToDense());
  RowMap rows;
  for (size_t i = 0; i < c.rows(); ++i) {
    auto& row = rows[static_cast<uint32_t>(i)];
    for (size_t j = 0; j < c.cols(); ++j) {
      const float v = c.Row(i)[j];
      if (v > 0.5f) {
        row.emplace_back(static_cast<uint32_t>(j),
                         static_cast<uint32_t>(v + 0.5f));
      }
    }
  }
  return rows;
}

TEST(HeavyProduct, MatchesReferenceInEveryModeAndThreadCount) {
  // Skewed rows so the density grid has bands worth remapping.
  Matrix ad = RandomDenseMatrix(300, 40, 0.05, 3);
  for (size_t i = 0; i < 30; ++i) {
    for (size_t k = 0; k < 40; ++k) ad.MutableRow(i)[k] = 1.0f;
  }
  const CsrMatrix a = CsrMatrix::FromDense(ad);
  const CsrMatrix b = CsrMatrix::FromDense(RandomDenseMatrix(40, 90, 0.1, 4));
  const RowMap want = Reference(a, b);
  for (HeavyPathMode mode :
       {HeavyPathMode::kAuto, HeavyPathMode::kForceDense,
        HeavyPathMode::kForceCsrDense, HeavyPathMode::kForceCsrCsr}) {
    for (PartitionMode partition :
         {PartitionMode::kOff, PartitionMode::kAuto, PartitionMode::kForce}) {
      for (int threads : {1, 2, 4, 8}) {
        HeavyKnobs knobs;
        knobs.threads = threads;
        knobs.row_block = 64;
        knobs.heavy_path = mode;
        knobs.partition = partition;
        HeavyRecord record;
        EXPECT_EQ(RunProduct(a, b, knobs, &record), want)
            << HeavyPathModeName(mode) << " " << PartitionModeName(partition)
            << " threads=" << threads;
        EXPECT_EQ(record.heavy_blocks_total, 5u);
        EXPECT_EQ(record.heavy_blocks_executed, 5u);
        EXPECT_EQ(record.kernel_counts.total(), record.block_choices.size());
        if (partition == PartitionMode::kForce) {
          EXPECT_TRUE(record.partition_used);
        }
        if (partition == PartitionMode::kOff) {
          EXPECT_EQ(record.partition_signature, "uniform");
        }
      }
    }
  }
}

TEST(HeavyProduct, StopSkipsRemainingChunksAndMatchesSkipAll) {
  const CsrMatrix a = CsrMatrix::FromDense(RandomDenseMatrix(500, 30, 0.2, 5));
  const CsrMatrix b = CsrMatrix::FromDense(RandomDenseMatrix(30, 20, 0.2, 6));
  for (int threads : {1, 4}) {
    HeavyKnobs knobs;
    knobs.threads = threads;
    knobs.row_block = 50;
    knobs.partition = PartitionMode::kOff;
    std::atomic<int> polls{0};
    HeavyRecord record;
    const RowMap got =
        RunProduct(a, b, knobs, &record, [&] { return polls.fetch_add(1) >= 3; });
    EXPECT_EQ(record.heavy_blocks_total, 10u);
    EXPECT_EQ(record.heavy_blocks_executed, 3u);
    EXPECT_EQ(record.heavy_blocks_executed + record.heavy_blocks_skipped,
              record.heavy_blocks_total);
    EXPECT_EQ(got.size(), 3u * 50u);

    HeavyRecord skipped;
    skipped.SkipAll(a.rows(), knobs.row_block);
    EXPECT_EQ(skipped.heavy_blocks_total, record.heavy_blocks_total);
    EXPECT_EQ(skipped.heavy_blocks_skipped, record.heavy_blocks_total);
  }
}

// A is 2 x n and B is n x 2, with a few set cells near both ends of the
// inner dimension. Hand-computed product:
//   row 0 = {0,5,n-1} -> (col 0: 3, col 1: 2); row 1 = {5,n-2} -> (1, 2).
void BuildWide(size_t n, CsrMatrix* a, CsrMatrix* b) {
  *a = CsrMatrix(n);
  for (uint32_t c : {0u, 5u, static_cast<uint32_t>(n - 1)}) a->PushCol(c);
  a->FinishRow();
  for (uint32_t c : {5u, static_cast<uint32_t>(n - 2)}) a->PushCol(c);
  a->FinishRow();
  *b = CsrMatrix(2);
  b->ReserveRows(n);
  for (size_t y = 0; y < n; ++y) {
    if (y == 0) b->PushCol(0);
    if (y == 5 || y == n - 1) {
      b->PushCol(0);
      b->PushCol(1);
    }
    if (y == n - 2) b->PushCol(1);
    b->FinishRow();
  }
}

const RowMap kWideProduct = {{0, {{0, 3}, {1, 2}}}, {1, {{0, 1}, {1, 2}}}};

TEST(HeavyProduct, InnerDimensionAtFloatBoundRunsCsrCsr) {
  CsrMatrix a, b;
  BuildWide(kMaxExactFloatCount, &a, &b);
  for (HeavyPathMode mode : {HeavyPathMode::kAuto, HeavyPathMode::kForceDense,
                             HeavyPathMode::kForceCsrDense}) {
    HeavyKnobs knobs;
    knobs.heavy_path = mode;
    knobs.partition = PartitionMode::kOff;
    HeavyRecord record;
    EXPECT_EQ(RunProduct(a, b, knobs, &record), kWideProduct)
        << HeavyPathModeName(mode);
    EXPECT_EQ(record.kernel_counts.csr_csr, 1u) << HeavyPathModeName(mode);
    EXPECT_EQ(record.kernel_counts.total(), 1u) << HeavyPathModeName(mode);
  }
}

TEST(HeavyProduct, InnerDimensionBelowFloatBoundStillPlansFloatKernels) {
  CsrMatrix a, b;
  BuildWide(kMaxExactFloatCount - 1, &a, &b);
  HeavyKnobs knobs;
  knobs.heavy_path = HeavyPathMode::kForceCsrDense;
  knobs.partition = PartitionMode::kOff;
  HeavyRecord record;
  EXPECT_EQ(RunProduct(a, b, knobs, &record), kWideProduct);
  EXPECT_EQ(record.kernel_counts.csr_dense, 1u);
  EXPECT_EQ(record.kernel_counts.total(), 1u);
}

}  // namespace
}  // namespace jpmm
