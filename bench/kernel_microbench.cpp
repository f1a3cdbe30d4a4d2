// Kernel microbenchmark — blocked vs seed kernels, dense and boolean.
//
// Measures the matrix-layer rewrite in isolation:
//   dense : packed-panel blocked GEMM (Multiply) vs the seed ikj-saxpy
//           kernel (MultiplyScalarReference) vs the naive triple loop;
//   parallel dense : shared-packed-B-slab MultiplyParallel vs the
//           replicated-packing path (every worker re-packs B) across
//           thread counts — the pool-era parallel regression guard;
//   bool  : tiled BoolProduct / CountProduct vs the unblocked all-pairs
//           row-intersection references;
//   sparse: CSR x dense saxpy and CSR x CSR stamp kernels across a density
//           sweep {1e-4 .. 0.25} at n in {1024, 4096}, against the dense
//           blocked GEMM on the same operands; BM_SparseCrossover emits the
//           measured dense/sparse crossover density into the bench JSON;
//   transpose : 64x64 word-block bit transpose vs the seed per-bit scatter.
//   metrics overhead : the same instrumented join executed with metrics on
//           vs JPMM_METRICS=off in one process; the overhead_pct counter is
//           the observability acceptance row (CI asserts < 2%).
// Every timed kernel is verified against its reference once at setup, so a
// reported speedup can never come from computing something different.
//
// The "gflops" / "gwords" counters make the speedups comparable across
// rows; set JPMM_BENCH_JSON=<path> for machine-readable output. Run:
//   ./build/bench_kernel_microbench --benchmark_filter=Dense

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/cpu_features.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/query_engine.h"
#include "core/result_sink.h"
#include "datagen/presets.h"
#include "matrix/bool_matrix.h"
#include "matrix/calibration.h"
#include "matrix/cost_model.h"
#include "matrix/dense_matrix.h"
#include "matrix/matmul.h"
#include "matrix/random.h"
#include "matrix/sparse_matrix.h"

using namespace jpmm;

namespace {

constexpr double kDensity = 0.5;       // fig-3a operand density
constexpr double kBoolDensity = 0.3;   // dense enough that tiling governs

Matrix RandomDense(size_t dim, uint64_t seed) {
  return RandomDenseMatrix(dim, dim, kDensity, seed);
}

BoolMatrix RandomBool(size_t dim, uint64_t seed) {
  return RandomBoolMatrix(dim, dim, kBoolDensity, seed);
}

void AddGflops(benchmark::State& state, size_t dim) {
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["gflops"] = benchmark::Counter(
      2.0 * static_cast<double>(dim) * dim * dim * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

void AddGwords(benchmark::State& state, size_t dim) {
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["gwords"] = benchmark::Counter(
      BoolProductWordOps(dim, dim, dim) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}

// ---- Dense ---------------------------------------------------------------

void BM_DenseBlocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  JPMM_CHECK_MSG(Multiply(a, b, 1) == MultiplyScalarReference(a, b),
                 "blocked kernel diverged from the seed kernel");
  Matrix c;
  for (auto _ : state) {
    Multiply(a, b, &c, /*threads=*/1);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
}

void BM_DenseScalarSeed(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  for (auto _ : state) {
    Matrix c = MultiplyScalarReference(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
}

void BM_DenseNaive(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  for (auto _ : state) {
    Matrix c = MultiplyNaive(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
}

// ---- Per-ISA GEMM rows ----------------------------------------------------
//
// BM_DenseBlocked under each forced dispatch level, same operands. The
// acceptance bar: the explicit AVX-512 (or AVX2) micro-kernel meets or
// beats the auto-vectorized portable kernel at n in {1024, 2048}. Levels
// the host lacks skip with an error note instead of reporting a bogus
// portable time under a SIMD label.
void GemmIsaBody(benchmark::State& state, KernelIsa isa) {
  if (!IsaSupported(isa)) {
    state.SkipWithError("isa unsupported on this host");
    return;
  }
  ScopedIsaOverride force(isa);
  const auto dim = static_cast<size_t>(state.range(0));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  JPMM_CHECK_MSG(Multiply(a, b, 1) == MultiplyScalarReference(a, b),
                 "forced-isa kernel diverged from the seed kernel");
  Matrix c;
  for (auto _ : state) {
    Multiply(a, b, &c, /*threads=*/1);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
  state.counters["isa"] = static_cast<double>(isa);
}

void BM_GemmIsaPortable(benchmark::State& state) {
  GemmIsaBody(state, KernelIsa::kPortable);
}
void BM_GemmIsaAvx2(benchmark::State& state) {
  GemmIsaBody(state, KernelIsa::kAvx2);
}
void BM_GemmIsaAvx512(benchmark::State& state) {
  GemmIsaBody(state, KernelIsa::kAvx512);
}

// ---- Parallel dense: shared packed-B slab vs replicated packing ----------
//
// The parallel mode: both benchmarks partition output rows across the same
// persistent pool; the only difference is that the shared-slab path packs
// B's panels once (in parallel) and every worker reads the one slab, while
// the replicated path has every worker re-pack the full B for its own row
// range. The gap is the redundant packing traffic — it widens with thread
// count. Run with --benchmark_filter=Parallel.

void BM_DenseParallelSharedSlab(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  {
    Matrix got;
    MultiplyParallel(a, b, &got, threads);
    JPMM_CHECK_MSG(got == Multiply(a, b, 1),
                   "shared-slab parallel product diverged from sequential");
  }
  Matrix c;
  for (auto _ : state) {
    MultiplyParallel(a, b, &c, threads);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
  state.counters["threads"] = threads;
}

void BM_DenseParallelReplicatedPack(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Matrix a = RandomDense(dim, 1);
  Matrix b = RandomDense(dim, 2);
  {
    Matrix got;
    MultiplyReplicatedPacking(a, b, &got, threads);
    JPMM_CHECK_MSG(got == Multiply(a, b, 1),
                   "replicated-packing parallel product diverged");
  }
  Matrix c;
  for (auto _ : state) {
    MultiplyReplicatedPacking(a, b, &c, threads);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
  state.counters["threads"] = threads;
}

// ---- Boolean -------------------------------------------------------------

void BM_BoolBlocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix a = RandomBool(dim, 3);
  BoolMatrix bt = RandomBool(dim, 4);
  {
    const BoolMatrix got = BoolProduct(a, bt, 1);
    const BoolMatrix want = BoolProductNaive(a, bt);
    for (size_t i = 0; i < dim; ++i) {
      JPMM_CHECK_MSG(std::memcmp(got.RowWords(i), want.RowWords(i),
                                 got.words_per_row() * 8) == 0,
                     "blocked BoolProduct diverged from the reference");
    }
  }
  for (auto _ : state) {
    BoolMatrix c = BoolProduct(a, bt, 1);
    benchmark::DoNotOptimize(c.RowWords(0));
  }
  AddGwords(state, dim);
}

void BM_BoolUnblocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix a = RandomBool(dim, 3);
  BoolMatrix bt = RandomBool(dim, 4);
  for (auto _ : state) {
    BoolMatrix c = BoolProductNaive(a, bt);
    benchmark::DoNotOptimize(c.RowWords(0));
  }
  AddGwords(state, dim);
}

void BM_CountBlocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix a = RandomBool(dim, 5);
  BoolMatrix bt = RandomBool(dim, 6);
  JPMM_CHECK_MSG(CountProduct(a, bt, 1) == CountProductNaive(a, bt),
                 "blocked CountProduct diverged from the reference");
  for (auto _ : state) {
    std::vector<uint32_t> c = CountProduct(a, bt, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddGwords(state, dim);
}

void BM_CountUnblocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix a = RandomBool(dim, 5);
  BoolMatrix bt = RandomBool(dim, 6);
  for (auto _ : state) {
    std::vector<uint32_t> c = CountProductNaive(a, bt);
    benchmark::DoNotOptimize(c.data());
  }
  AddGwords(state, dim);
}

// ---- Sparse (CSR) kernels ------------------------------------------------
//
// Density arrives as parts-per-million in the second benchmark argument
// (google benchmark args are integers). Operands are built once per row
// via the shared generators, so the CSR and dense kernels see identical
// matrices. Verification oracle: CsrProductReference, the unblocked
// double-accumulator saxpy (itself checked against MultiplyNaive at 256 on
// first use) — full-product verification would be O(n^3) at n = 4096, so
// rows are verified up to a bounded op budget from row 0.

double PpmToDensity(int64_t ppm) { return static_cast<double>(ppm) * 1e-6; }

// Verify a prefix of rows of `got` against the reference, capped at roughly
// `max_ops` accumulate operations so high-density 4096 rows stay tractable.
void VerifySparsePrefix(const CsrMatrix& a, const Matrix& b,
                        const std::function<void(size_t, size_t,
                                                 std::span<float>)>& got_rows,
                        double max_ops = 2e9) {
  {
    // Tie the reference itself to the ground-truth naive kernel once.
    static bool reference_checked = [] {
      const Matrix ad = RandomDenseMatrix(256, 192, 0.05, 71);
      const Matrix bd = RandomDenseMatrix(192, 128, 0.05, 72);
      JPMM_CHECK_MSG(
          CsrProductReference(CsrMatrix::FromDense(ad), bd) ==
              MultiplyNaive(ad, bd),
          "CsrProductReference diverged from the naive dense kernel");
      return true;
    }();
    (void)reference_checked;
  }
  const size_t w = b.cols();
  size_t vrows = 0;
  double ops = 0.0;
  while (vrows < a.rows() && ops < max_ops) {
    ops += static_cast<double>(a.Row(vrows).size() + 1) * w;
    ++vrows;
  }
  if (vrows == 0) return;
  std::vector<float> out(vrows * w);
  got_rows(0, vrows, out);
  // Reference over the verified prefix only — a full-matrix reference at
  // dim 4096 / density 0.25 would cost the very O(nnz * w) the cap bounds.
  CsrMatrix prefix(a.cols());
  for (size_t i = 0; i < vrows; ++i) {
    for (uint32_t c : a.Row(i)) prefix.PushCol(c);
    prefix.FinishRow();
  }
  const Matrix want = CsrProductReference(prefix, b);
  for (size_t i = 0; i < vrows; ++i) {
    JPMM_CHECK_MSG(std::memcmp(out.data() + i * w, want.Row(i).data(),
                               w * sizeof(float)) == 0,
                   "sparse kernel diverged from the saxpy reference");
  }
}

void AddSparseCounters(benchmark::State& state, size_t dim, uint64_t nnz,
                       double ops) {
  state.counters["dim"] = static_cast<double>(dim);
  state.counters["nnz"] = static_cast<double>(nnz);
  state.counters["density"] =
      static_cast<double>(nnz) / (static_cast<double>(dim) * dim);
  state.counters["gnnzops"] = benchmark::Counter(
      ops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SparseCsrDense(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const double density = PpmToDensity(state.range(1));
  const Matrix b = RandomDenseMatrix(dim, dim, density, 11);
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, 12));
  VerifySparsePrefix(a, b, [&](size_t r0, size_t r1, std::span<float> out) {
    CsrDenseRowRange(a, b, r0, r1, out);
  });
  for (auto _ : state) {
    Matrix c = CsrDenseProduct(a, b, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddSparseCounters(state, dim, a.nnz(), SparseProductOps(a.nnz(), dim, dim));
}

void BM_SparseCsrCsr(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const double density = PpmToDensity(state.range(1));
  const Matrix bd = RandomDenseMatrix(dim, dim, density, 11);
  const CsrMatrix a =
      CsrMatrix::FromDense(RandomDenseMatrix(dim, dim, density, 12));
  const CsrMatrix b = CsrMatrix::FromDense(bd);
  {
    CsrScratch scratch;
    VerifySparsePrefix(a, bd,
                       [&](size_t r0, size_t r1, std::span<float> out) {
                         SparseRowBlock blk;
                         CsrCsrRowRange(a, b, r0, r1, &scratch, &blk);
                         for (size_t i = r0; i < r1; ++i) {
                           float* row = out.data() + (i - r0) * dim;
                           std::fill(row, row + dim, 0.0f);
                           for (const HeavyEntry& e : blk.Row(i - r0)) {
                             row[e.col] = static_cast<float>(e.count);
                           }
                         }
                       });
  }
  for (auto _ : state) {
    Matrix c = CsrCsrProduct(a, b, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddSparseCounters(state, dim, a.nnz(),
                    CsrCsrExpandOps(a, b, 0, a.rows()));
}

// Dense blocked GEMM on the same sparse operands — the baseline the
// acceptance criterion compares against (its runtime is density-blind).
void BM_SparseDenseGemm(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  const double density = PpmToDensity(state.range(1));
  const Matrix b = RandomDenseMatrix(dim, dim, density, 11);
  const Matrix a = RandomDenseMatrix(dim, dim, density, 12);
  for (auto _ : state) {
    Matrix c = Multiply(a, b, 1);
    benchmark::DoNotOptimize(c.data());
  }
  AddGflops(state, dim);
  state.counters["density"] = density;
}

// Measures SparseKernelRates and bisects the density where the modeled
// dense GEMM time equals the modeled CSR x dense time at this dim — the
// machine's dense/sparse crossover, emitted into the bench JSON for
// trajectory tracking.
void BM_SparseCrossover(benchmark::State& state) {
  const auto dim = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    const SparseKernelRates rates = SparseKernelRates::Measure(
        static_cast<uint32_t>(std::min<uint64_t>(dim, 1024)));
    benchmark::DoNotOptimize(&rates);
    auto csr_minus_dense = [&](double d) {
      const auto nnz =
          static_cast<uint64_t>(d * static_cast<double>(dim) * dim);
      const double dense_sec = 2.0 * static_cast<double>(dim) * dim * dim /
                               rates.dense_flops_per_sec;
      const double csr_sec = SparseProductSeconds(
          SparseProductOps(nnz, dim, dim), rates.CsrDenseRate(d));
      return csr_sec - dense_sec;
    };
    double lo = 1e-6, hi = 1.0;
    if (csr_minus_dense(hi) < 0.0) {
      state.counters["crossover_density"] = 1.0;  // CSR wins everywhere
    } else {
      for (int it = 0; it < 64; ++it) {
        const double mid = std::sqrt(lo * hi);  // bisect in log space
        (csr_minus_dense(mid) < 0.0 ? lo : hi) = mid;
      }
      state.counters["crossover_density"] = hi;
    }
    state.counters["dense_gflops"] = rates.dense_flops_per_sec * 1e-9;
  }
}

// ---- Transpose -----------------------------------------------------------

// The seed implementation: per set bit, one random write.
BoolMatrix TransposeScatter(const BoolMatrix& m) {
  BoolMatrix t(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    const uint64_t* row = m.RowWords(i);
    for (size_t wi = 0; wi < m.words_per_row(); ++wi) {
      uint64_t w = row[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        t.Set((wi << 6) + static_cast<size_t>(bit), i);
        w &= w - 1;
      }
    }
  }
  return t;
}

void BM_TransposeBlocked(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix m = RandomBool(dim, 7);
  {
    const BoolMatrix got = m.Transposed();
    const BoolMatrix want = TransposeScatter(m);
    for (size_t i = 0; i < got.rows(); ++i) {
      JPMM_CHECK_MSG(std::memcmp(got.RowWords(i), want.RowWords(i),
                                 got.words_per_row() * 8) == 0,
                     "block transpose diverged from the scatter reference");
    }
  }
  for (auto _ : state) {
    BoolMatrix t = m.Transposed();
    benchmark::DoNotOptimize(t.RowWords(0));
  }
  state.counters["dim"] = static_cast<double>(dim);
}

void BM_TransposeScatter(benchmark::State& state) {
  const auto dim = static_cast<size_t>(state.range(0));
  BoolMatrix m = RandomBool(dim, 7);
  for (auto _ : state) {
    BoolMatrix t = TransposeScatter(m);
    benchmark::DoNotOptimize(t.RowWords(0));
  }
  state.counters["dim"] = static_cast<double>(dim);
}

// ---- Instrumentation overhead --------------------------------------------

// The observability acceptance row: the same prepared two-path join
// executed with the metrics registry enabled vs disabled
// (SetMetricsEnabled, the runtime form of JPMM_METRICS=off), alternating
// within every iteration so clock drift and cache warmth cancel. Emits
//
//   overhead_pct = (time_on / time_off - 1) * 100
//
// which CI's bench smoke asserts stays under 2. Tracing stays off on both
// sides — no TraceRecorder is attached — so the row isolates the always-on
// counter/histogram cost, which is what production pays.
void BM_MetricsOverhead(benchmark::State& state) {
  static QueryEngine* engine = [] {
    auto* e = new QueryEngine();
    e->AddRelation("R", MakePreset(DatasetPreset::kJokes,
                                   0.2 * ScaleFromEnv(), 42));
    return e;
  }();
  static PreparedQuery* query = [] {
    QuerySpec spec;
    spec.kind = QueryKind::kTwoPath;
    spec.relations = {"R"};
    auto* q = new PreparedQuery();
    JPMM_CHECK(engine->Prepare(spec, q).ok());
    CountOnlySink warm;  // warm the plan cache outside the timed region
    JPMM_CHECK(engine->Execute(*q, warm, {}).ok());
    return q;
  }();
  using clock = std::chrono::steady_clock;
  double on_s = 0.0, off_s = 0.0;
  for (auto _ : state) {
    SetMetricsEnabled(true);
    auto t0 = clock::now();
    CountOnlySink a;
    JPMM_CHECK(engine->Execute(*query, a, {}).ok());
    on_s += std::chrono::duration<double>(clock::now() - t0).count();

    SetMetricsEnabled(false);
    t0 = clock::now();
    CountOnlySink b;
    JPMM_CHECK(engine->Execute(*query, b, {}).ok());
    off_s += std::chrono::duration<double>(clock::now() - t0).count();
    benchmark::DoNotOptimize(a.count() + b.count());
  }
  SetMetricsEnabled(true);  // leave the process instrumented
  state.counters["overhead_pct"] =
      off_s > 0.0 ? (on_s / off_s - 1.0) * 100.0 : 0.0;
}

// ---- Calibration feed-through --------------------------------------------

// Sanity row: the measured boolean word rate (what the cost model consumes)
// against the modeled word-op count, demonstrating the calibration ->
// cost-model path the optimizer uses.
void BM_BoolRateCalibration(benchmark::State& state) {
  for (auto _ : state) {
    BoolKernelRates rates = BoolKernelRates::Measure(512);
    benchmark::DoNotOptimize(rates);
    state.counters["bool_gwords_per_s"] = rates.bool_words_per_sec * 1e-9;
    state.counters["count_gwords_per_s"] = rates.count_words_per_sec * 1e-9;
    state.counters["est_1024_ms"] =
        BoolProductSeconds(1024, 1024, 1024, rates.count_words_per_sec) * 1e3;
  }
}

}  // namespace

BENCHMARK(BM_DenseBlocked)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(1536)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseScalarSeed)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(1536)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DenseNaive)->Arg(512)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_GemmIsaPortable)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmIsaAvx2)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GemmIsaAvx512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DenseParallelSharedSlab)
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_DenseParallelReplicatedPack)
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({2048, 4})
    ->Args({2048, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_BoolBlocked)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoolUnblocked)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountBlocked)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CountUnblocked)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Density sweep {1e-4, 1e-3, 1e-2, 0.1, 0.25} (ppm) at n in {1024, 4096}.
#define JPMM_SPARSE_SWEEP(bench)                                          \
  BENCHMARK(bench)                                                        \
      ->Args({1024, 100})                                                 \
      ->Args({1024, 1000})                                                \
      ->Args({1024, 10000})                                               \
      ->Args({1024, 100000})                                              \
      ->Args({1024, 250000})                                              \
      ->Args({4096, 100})                                                 \
      ->Args({4096, 1000})                                                \
      ->Args({4096, 10000})                                               \
      ->Args({4096, 100000})                                              \
      ->Args({4096, 250000})                                              \
      ->Unit(benchmark::kMillisecond)
JPMM_SPARSE_SWEEP(BM_SparseCsrDense);
JPMM_SPARSE_SWEEP(BM_SparseCsrCsr);
#undef JPMM_SPARSE_SWEEP
BENCHMARK(BM_SparseDenseGemm)
    ->Args({1024, 1000})
    ->Args({4096, 1000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseCrossover)->Arg(1024)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_TransposeBlocked)->Arg(4096)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TransposeScatter)->Arg(4096)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_MetricsOverhead)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0)
    ->UseRealTime();

BENCHMARK(BM_BoolRateCalibration)->Unit(benchmark::kMillisecond);

JPMM_BENCH_MAIN();
