// Randomized property tests for the blocked matrix kernels.
//
// The blocked dense GEMM, the tiled boolean products, and the word-block
// bit transpose must agree exactly with their naive references on shapes
// that exercise every edge case: dimensions that are odd, prime, smaller
// than one register tile, and straddling cache-block boundaries. Dense
// operands use small-integer values, where float accumulation is exact in
// any order, so EXPECT_EQ compares bit-identical payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "matrix/bool_matrix.h"
#include "matrix/dense_matrix.h"
#include "matrix/matmul.h"
#include "matrix/random.h"
#include "matrix/sparse_kernels.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Not the shared 0/1 generator: multi-valued entries exercise the exact
// small-integer accumulation the kernels promise.
Matrix RandomIntMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      // Values in {0, 1, 2, 3}, biased toward 0 like an adjacency matrix.
      if (rng.NextBool(0.4)) {
        m.Set(i, j, static_cast<float>(1 + rng.NextBounded(3)));
      }
    }
  }
  return m;
}

// Shapes chosen to straddle the register tile (8 x 32), the cache blocks
// (MC = 128, KC = 512, NC = 2048), and the 64-bit word boundary.
struct Shape {
  size_t u, v, w;
};

const Shape kShapes[] = {
    {1, 1, 1},      {3, 5, 7},      {8, 32, 8},     {9, 33, 31},
    {7, 513, 65},   {64, 64, 64},   {65, 127, 63},  {129, 257, 33},
    {130, 512, 97}, {41, 1030, 29}, {256, 19, 300},
};

TEST(KernelProperty, BlockedGemmMatchesNaiveOnIrregularShapes) {
  uint64_t seed = 1;
  for (const Shape& s : kShapes) {
    Matrix a = RandomIntMatrix(s.u, s.v, seed++);
    Matrix b = RandomIntMatrix(s.v, s.w, seed++);
    const Matrix want = MultiplyNaive(a, b);
    EXPECT_EQ(Multiply(a, b, 1), want)
        << "u=" << s.u << " v=" << s.v << " w=" << s.w;
    EXPECT_EQ(MultiplyScalarReference(a, b), want)
        << "scalar reference, u=" << s.u << " v=" << s.v << " w=" << s.w;
  }
}

TEST(KernelProperty, BlockedGemmMatchesNaiveMultithreaded) {
  Matrix a = RandomIntMatrix(201, 307, 77);
  Matrix b = RandomIntMatrix(307, 143, 78);
  const Matrix want = MultiplyNaive(a, b);
  for (int threads : {2, 3, 5}) {
    EXPECT_EQ(Multiply(a, b, threads), want) << threads << " threads";
  }
}

TEST(KernelProperty, RowRangeMatchesNaiveAtEveryBlockOffset) {
  Matrix a = RandomIntMatrix(70, 143, 91);
  Matrix b = RandomIntMatrix(143, 89, 92);
  const Matrix want = MultiplyNaive(a, b);
  for (size_t block : {1u, 7u, 64u}) {
    std::vector<float> buf(block * b.cols());
    for (size_t r0 = 0; r0 < a.rows(); r0 += block) {
      const size_t r1 = std::min(a.rows(), r0 + block);
      MultiplyRowRange(a, b, r0, r1, buf);
      for (size_t i = r0; i < r1; ++i) {
        for (size_t j = 0; j < b.cols(); ++j) {
          ASSERT_EQ(buf[(i - r0) * b.cols() + j], want.At(i, j))
              << "block=" << block << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelProperty, BoolProductMatchesReferenceAcrossDensities) {
  uint64_t seed = 100;
  for (double density : {0.01, 0.1, 0.5, 0.95}) {
    for (const Shape& s : kShapes) {
      BoolMatrix a = RandomBoolMatrix(s.u, s.v, density, seed++);
      BoolMatrix bt = RandomBoolMatrix(s.w, s.v, density, seed++);
      const BoolMatrix want = BoolProductNaive(a, bt);
      const BoolMatrix got = BoolProduct(a, bt, 1);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.words_per_row(), want.words_per_row());
      for (size_t i = 0; i < got.rows(); ++i) {
        ASSERT_EQ(std::memcmp(got.RowWords(i), want.RowWords(i),
                              got.words_per_row() * sizeof(uint64_t)),
                  0)
            << "density=" << density << " u=" << s.u << " v=" << s.v
            << " w=" << s.w << " row=" << i;
      }
    }
  }
}

TEST(KernelProperty, CountProductMatchesReferenceAcrossDensities) {
  uint64_t seed = 500;
  for (double density : {0.05, 0.4}) {
    for (const Shape& s : kShapes) {
      BoolMatrix a = RandomBoolMatrix(s.u, s.v, density, seed++);
      BoolMatrix bt = RandomBoolMatrix(s.w, s.v, density, seed++);
      EXPECT_EQ(CountProduct(a, bt, 1), CountProductNaive(a, bt))
          << "density=" << density << " u=" << s.u << " v=" << s.v
          << " w=" << s.w;
    }
  }
}

TEST(KernelProperty, BlockedProductsMatchReferenceMultithreaded) {
  BoolMatrix a = RandomBoolMatrix(203, 517, 0.2, 900);
  BoolMatrix bt = RandomBoolMatrix(131, 517, 0.2, 901);
  const BoolMatrix want = BoolProductNaive(a, bt);
  for (int threads : {2, 4}) {
    const BoolMatrix got = BoolProduct(a, bt, threads);
    for (size_t i = 0; i < got.rows(); ++i) {
      ASSERT_EQ(std::memcmp(got.RowWords(i), want.RowWords(i),
                            got.words_per_row() * sizeof(uint64_t)),
                0)
          << threads << " threads, row " << i;
    }
    EXPECT_EQ(CountProduct(a, bt, threads), CountProductNaive(a, bt))
        << threads << " threads";
  }
}

TEST(KernelProperty, TransposeMatchesPerBitReferenceOnOddShapes) {
  uint64_t seed = 1000;
  for (size_t rows : {1u, 7u, 63u, 64u, 65u, 200u}) {
    for (size_t cols : {1u, 31u, 64u, 129u, 300u}) {
      const BoolMatrix m = RandomBoolMatrix(rows, cols, 0.3, seed++);
      const BoolMatrix t = m.Transposed();
      ASSERT_EQ(t.rows(), cols);
      ASSERT_EQ(t.cols(), rows);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
          ASSERT_EQ(m.Test(i, j), t.Test(j, i))
              << rows << "x" << cols << " at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

// ---- Per-ISA dispatch sweeps ---------------------------------------------
//
// Every dispatch level the host supports must produce byte-identical output
// on shapes that stress the explicit kernels' edge handling: partial
// register tiles (cols % 32 in {1, 15, 17, 31}), single-row/column
// operands, empty operands, all-zero operands, and word-tail masks
// (words_per_row % 8 != 0). Unsupported levels are skipped, not failed —
// the same test list runs on any machine.

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> v{KernelIsa::kPortable};
  if (IsaSupported(KernelIsa::kAvx2)) v.push_back(KernelIsa::kAvx2);
  if (IsaSupported(KernelIsa::kAvx512)) v.push_back(KernelIsa::kAvx512);
  return v;
}

TEST(KernelPropertyIsa, GemmMatchesNaivePerIsaOnEdgeShapes) {
  // cols tails 1/15/17/31 straddle both the AVX-512 mask boundary (16) and
  // the AVX2 half boundary (8/16); kMR-partial row tails via u % 8 != 0.
  const Shape kEdge[] = {
      {1, 1, 1},    {1, 64, 33},  {64, 1, 1},    {8, 32, 32},
      {9, 33, 31},  {5, 17, 15},  {13, 100, 17}, {7, 513, 47},
      {130, 70, 63},
  };
  uint64_t seed = 5000;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    for (const Shape& s : kEdge) {
      Matrix a = RandomIntMatrix(s.u, s.v, seed++);
      Matrix b = RandomIntMatrix(s.v, s.w, seed++);
      const Matrix want = MultiplyNaive(a, b);
      EXPECT_EQ(Multiply(a, b, 1), want)
          << KernelIsaName(isa) << " u=" << s.u << " v=" << s.v
          << " w=" << s.w;
    }
    // Empty and all-zero operands.
    Matrix empty_a(0, 5), b5(5, 3);
    EXPECT_EQ(Multiply(empty_a, b5, 1).rows(), 0u) << KernelIsaName(isa);
    Matrix za(11, 37), zb(37, 19);  // value-initialized: all zero
    const Matrix zc = Multiply(za, zb, 1);
    for (size_t i = 0; i < zc.rows(); ++i) {
      for (size_t j = 0; j < zc.cols(); ++j) {
        ASSERT_EQ(zc.At(i, j), 0.0f) << KernelIsaName(isa);
      }
    }
  }
}

TEST(KernelPropertyIsa, GemmIdenticalBytesAcrossIsaLevels) {
  // Stronger than matching the oracle: the levels must match EACH OTHER
  // bit-for-bit, so a plan calibrated under one level replays under another.
  Matrix a = RandomIntMatrix(67, 231, 6100);
  Matrix b = RandomIntMatrix(231, 93, 6101);
  std::vector<Matrix> results;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    results.push_back(Multiply(a, b, 1));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], results[0]) << "level " << i << " vs portable";
  }
}

TEST(KernelPropertyIsa, BoolProductsMatchNaivePerIsaOnWordTails) {
  // cols chosen so words_per_row hits 1, 15, 17, and 33 — the word-tail
  // masks (wn % 8) of the VPOPCNTDQ kernel, plus a multi-slice case.
  const size_t kCols[] = {1, 63, 960, 1087, 2050};
  uint64_t seed = 7000;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    for (size_t cols : kCols) {
      BoolMatrix a = RandomBoolMatrix(9, cols, 0.2, seed++);
      BoolMatrix bt = RandomBoolMatrix(7, cols, 0.2, seed++);
      const BoolMatrix want_bool = BoolProductNaive(a, bt);
      const BoolMatrix got_bool = BoolProduct(a, bt, 1);
      for (size_t i = 0; i < got_bool.rows(); ++i) {
        ASSERT_EQ(std::memcmp(got_bool.RowWords(i), want_bool.RowWords(i),
                              got_bool.words_per_row() * sizeof(uint64_t)),
                  0)
            << KernelIsaName(isa) << " cols=" << cols << " row=" << i;
      }
      EXPECT_EQ(CountProduct(a, bt, 1), CountProductNaive(a, bt))
          << KernelIsaName(isa) << " cols=" << cols;
    }
  }
}

TEST(KernelPropertyIsa, CsrCsrProductMatchesReferencePerIsa) {
  uint64_t seed = 8000;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    for (const auto& [dim, density] : std::vector<std::pair<size_t, double>>{
             {17, 0.3}, {130, 0.05}, {257, 0.01}}) {
      const Matrix ad = RandomDenseMatrix(dim, dim, density, seed++);
      const Matrix bd = RandomDenseMatrix(dim, dim, density, seed++);
      const CsrMatrix a = CsrMatrix::FromDense(ad);
      const CsrMatrix b = CsrMatrix::FromDense(bd);
      const Matrix want = CsrProductReference(a, bd);
      EXPECT_EQ(CsrCsrProduct(a, b, 1), want)
          << KernelIsaName(isa) << " dim=" << dim << " density=" << density;
    }
  }
}

TEST(KernelPropertyIsa, CsrCsrRowBlocksAreByteIdenticalAcrossIsas) {
  // Rows come out in first-touch order, so every level must produce the
  // portable level's SparseRowBlock byte for byte, order included. B rows
  // longer than one 16-lane vector block and ragged tails cover the
  // AVX-512 compress-store path.
  uint64_t seed = 8500;
  for (const auto& [dim, density] : std::vector<std::pair<size_t, double>>{
           {17, 0.3}, {130, 0.05}, {257, 0.2}, {601, 0.1}}) {
    const CsrMatrix a =
        CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, seed++));
    const CsrMatrix b =
        CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, seed++));
    for (size_t r0 = 0; r0 < dim; r0 += 64) {
      const size_t r1 = std::min(dim, r0 + 64);
      SparseRowBlock want;
      {
        ScopedIsaOverride force(KernelIsa::kPortable);
        CsrScratch scratch;
        CsrCsrRowRange(a, b, r0, r1, &scratch, &want);
      }
      for (KernelIsa isa : SupportedIsas()) {
        ScopedIsaOverride force(isa);
        CsrScratch scratch;
        SparseRowBlock got;
        CsrCsrRowRange(a, b, r0, r1, &scratch, &got);
        ASSERT_EQ(got.offsets, want.offsets)
            << KernelIsaName(isa) << " dim=" << dim << " r0=" << r0;
        ASSERT_EQ(got.entries.size(), want.entries.size());
        ASSERT_FALSE(want.entries.empty());
        ASSERT_EQ(std::memcmp(got.entries.data(), want.entries.data(),
                              want.entries.size() * sizeof(HeavyEntry)),
                  0)
            << KernelIsaName(isa) << " dim=" << dim << " r0=" << r0;
      }
    }
  }
}

TEST(KernelPropertyIsa, ExpandRowHandlesDuplicateColumns) {
  // CSR rows never repeat a column, so production inputs cannot hit the
  // conflict-lane replay of the AVX-512 expansion. The primitive's contract
  // allows duplicates, so exercise them head-on: every level must agree
  // with the portable expansion on lists dense with repeats (including
  // 16 copies of one value filling a whole vector block).
  std::vector<uint32_t> js;
  Rng rng(42);
  for (size_t i = 0; i < 200; ++i) js.push_back(rng.NextBounded(13));
  for (size_t i = 0; i < 16; ++i) js.push_back(7);
  for (KernelIsa isa : SupportedIsas()) {
    const internal::ExpandRowFn expand = internal::SelectExpandRow(isa);
    StampCounter counter(64);
    AlignedVector<uint32_t> touched;
    counter.NewEpoch();
    expand(js.data(), js.size(), &counter, &touched);

    StampCounter want_counter(64);
    AlignedVector<uint32_t> want_touched;
    want_counter.NewEpoch();
    internal::ExpandRowPortable(js.data(), js.size(), &want_counter,
                                &want_touched);

    // Order is observable output (CsrCsrRowRange emits `touched` as is):
    // compared unsorted.
    ASSERT_EQ(touched, want_touched) << KernelIsaName(isa);
    for (uint32_t j : want_touched) {
      EXPECT_EQ(counter.Get(j), want_counter.Get(j))
          << KernelIsaName(isa) << " col " << j;
    }
  }
}

// ---- Aligned allocation layer --------------------------------------------

TEST(AlignedBuffer, VmallocAndVectorAre64ByteAligned) {
  for (size_t n : {1u, 7u, 63u, 64u, 1000u, 100001u}) {
    const auto buf = vmalloc<float>(n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kDefaultSlabAlign, 0u)
        << "vmalloc n=" << n;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(buf.data()[i], 0.0f);  // value-init

    AlignedVector<float> v(n, 1.0f);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % kDefaultSlabAlign, 0u)
        << "vector n=" << n;
  }
  // Wider alignment on request.
  const auto wide = vmalloc<uint64_t, 4096>(17);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.data()) % 4096, 0u);
}

TEST(AlignedBuffer, PackToleratesUnalignedSourceRows) {
  // Odd column counts make every dense row after the first start at a
  // non-64-byte offset; the packing (and the masked load tails behind it)
  // must not care. Shapes also cross the kKC=512 panel boundary so packed
  // panels get resized and re-aligned mid-product.
  uint64_t seed = 9000;
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    for (const Shape& s : {Shape{9, 515, 35}, Shape{17, 1027, 61}}) {
      Matrix a = RandomIntMatrix(s.u, s.v, seed++);
      Matrix b = RandomIntMatrix(s.v, s.w, seed++);
      EXPECT_EQ(Multiply(a, b, 1), MultiplyNaive(a, b))
          << KernelIsaName(isa) << " u=" << s.u << " v=" << s.v
          << " w=" << s.w;
    }
  }
}

TEST(AlignedBuffer, PackedBReusableAcrossIsaLevels) {
  // A PackedB built once must serve every dispatch level: the packed layout
  // is part of the kernel contract, not per-ISA.
  Matrix a = RandomIntMatrix(33, 129, 9100);
  Matrix b = RandomIntMatrix(129, 75, 9101);
  const PackedB packed(b);
  const Matrix want = MultiplyNaive(a, b);
  std::vector<float> buf(a.rows() * b.cols());
  for (KernelIsa isa : SupportedIsas()) {
    ScopedIsaOverride force(isa);
    MultiplyRowRange(a, packed, 0, a.rows(), buf);
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < b.cols(); ++j) {
        ASSERT_EQ(buf[i * b.cols() + j], want.At(i, j))
            << KernelIsaName(isa) << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(KernelProperty, TransposeRoundTripsOnWordBoundaryStraddle) {
  const BoolMatrix m = RandomBoolMatrix(127, 193, 0.4, 2000);
  const BoolMatrix round = m.Transposed().Transposed();
  ASSERT_EQ(round.rows(), m.rows());
  ASSERT_EQ(round.cols(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    ASSERT_EQ(std::memcmp(round.RowWords(i), m.RowWords(i),
                          m.words_per_row() * sizeof(uint64_t)),
              0)
        << "row " << i;
  }
}

}  // namespace
}  // namespace jpmm
