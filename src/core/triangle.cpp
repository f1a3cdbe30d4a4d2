#include "core/triangle.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/bitset.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/cancel_token.h"
#include "core/heavy_product.h"
#include "core/trace.h"
#include "matrix/matmul.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Rows per trace product block: two MC panels of the blocked kernel (see
// core/mm_join.h). Shared by the memory-cap accounting and the heavy loop.
constexpr size_t kTraceRowBlock = 256;

}  // namespace

uint64_t CountTrianglesNodeIterator(const IndexedRelation& graph) {
  uint64_t count = 0;
  for (Value v = 0; v < graph.num_x(); ++v) {
    const auto adj = graph.YsOf(v);
    for (size_t i = 0; i < adj.size(); ++i) {
      if (adj[i] <= v) continue;  // count at the minimum-id vertex
      for (size_t j = i + 1; j < adj.size(); ++j) {
        if (adj[j] <= v) continue;
        if (graph.Contains(adj[i], adj[j])) ++count;
      }
    }
  }
  return count;
}

TriangleCountResult CountTrianglesMm(const IndexedRelation& graph,
                                     const TriangleCountOptions& options) {
  TriangleCountResult result;
  const uint64_t edges = graph.num_tuples();
  uint64_t delta = options.delta != 0
                       ? options.delta
                       : std::max<uint64_t>(
                             1, static_cast<uint64_t>(std::sqrt(
                                    static_cast<double>(edges))));

  // Heavy vertex set under the (possibly memory-degraded) threshold. The
  // CSR adjacency is the memory floor; the dense matrix + packed slab are
  // gated by the cap (a capped run keeps its delta and degrades to the
  // CSR x CSR trace instead of shrinking the heavy set).
  const int threads = std::max(1, options.threads);
  std::vector<Value> heavy;
  std::vector<Value> heavy_id;
  bool allow_dense = true;
  for (;;) {
    heavy.clear();
    heavy_id.assign(graph.num_x(), kInvalidValue);
    uint64_t nnz = 0;
    for (Value v = 0; v < graph.num_x(); ++v) {
      if (graph.DegX(v) > delta) {
        heavy_id[v] = static_cast<Value>(heavy.size());
        heavy.push_back(v);
      }
    }
    // Parallel accumulate: the per-vertex cost is the (skewed) heavy
    // degree, and this runs once per delta-doubling iteration.
    std::vector<uint64_t> nnz_partial(static_cast<size_t>(threads), 0);
    ParallelForDynamic(threads, heavy.size(), /*grain=*/64,
                       [&](size_t i0, size_t i1, int w) {
                         uint64_t local = 0;
                         for (size_t i = i0; i < i1; ++i) {
                           const Value v = heavy[i];
                           for (Value u : graph.YsOf(v)) {
                             if (u != v && heavy_id[u] != kInvalidValue) {
                               ++local;
                             }
                           }
                         }
                         nnz_partial[static_cast<size_t>(w)] += local;
                       });
    for (uint64_t c : nnz_partial) nnz += c;
    const uint64_t h = heavy.size();
    const uint64_t blocks = (h + kTraceRowBlock - 1) / kTraceRowBlock;
    const uint64_t block_workers = std::min<uint64_t>(
        static_cast<uint64_t>(threads), std::max<uint64_t>(1, blocks));
    // Per-worker float product-block buffers, paid by the dense and
    // CSR x dense kernels alike.
    const uint64_t acc = 4ull * block_workers * kTraceRowBlock * h;
    // Per worker: the CSR x CSR stamp counter and touched list (12 bytes
    // per column) and the trace probe's bitmap.
    const uint64_t csr_bytes =
        CsrBytes(h, nnz) + block_workers * (12ull * h + (h + 63) / 64 * 8);
    const uint64_t dense_bytes =
        4ull * h * h + PackedBBytes(h, h) + acc + csr_bytes;
    switch (options.heavy_path) {
      case HeavyPathMode::kForceCsrCsr:
        allow_dense = false;
        break;
      case HeavyPathMode::kAuto:
        allow_dense = dense_bytes <= options.max_matrix_bytes;
        break;
      default:
        allow_dense = true;
        break;
    }
    const uint64_t bytes = allow_dense ? dense_bytes : csr_bytes;
    if (heavy.empty() || bytes <= options.max_matrix_bytes) break;
    delta *= 2;
  }
  result.delta_used = delta;
  result.heavy_vertices = heavy.size();

  // Light part: triangles containing >= 1 light vertex, counted at their
  // minimum-id light vertex. A neighbour participates only if it is heavy
  // or has a larger id (so no other light vertex claims the triangle
  // first).
  const CancelToken* cancel = options.cancel;
  // Per-phase skip counters: a chunk/block either runs or is counted
  // skipped, never both, so executed + skipped is exact at every thread
  // count (the chunk-claim + done() audit invariant — see
  // QueryEngine.DoneMidChunkSkipsIdenticalDownstreamBlocks).
  std::atomic<uint64_t> light_executed{0};
  std::atomic<uint64_t> light_skipped{0};
  std::vector<uint64_t> light_partial(static_cast<size_t>(threads), 0);
  TraceRecorder* const trace_rec = options.trace;
  const TraceRecorder::SpanId tparent = options.trace_parent;
  const TraceRecorder::SpanId light_span =
      TraceBegin(trace_rec, "light-pass", tparent);
  // Dynamic chunks: per-vertex cost is quadratic in (skewed) degree.
  // Accumulate (+=) — a dynamic worker handles many chunks.
  ParallelForDynamic(threads, graph.num_x(), /*grain=*/512,
                     [&](size_t v0, size_t v1, int w) {
    if (cancel != nullptr && cancel->Fired()) {
      light_skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    light_executed.fetch_add(1, std::memory_order_relaxed);
    uint64_t local = 0;
    std::vector<Value> eligible;
    for (size_t v = v0; v < v1; ++v) {
      const auto vv = static_cast<Value>(v);
      if (graph.DegX(vv) == 0 || graph.DegX(vv) > delta) continue;
      eligible.clear();
      for (Value u : graph.YsOf(vv)) {
        if (u == vv) continue;  // ignore self loops
        if (graph.DegX(u) > delta || u > vv) eligible.push_back(u);
      }
      for (size_t i = 0; i < eligible.size(); ++i) {
        for (size_t j = i + 1; j < eligible.size(); ++j) {
          if (graph.Contains(eligible[i], eligible[j])) ++local;
        }
      }
    }
    light_partial[static_cast<size_t>(w)] += local;
  });
  TraceEnd(trace_rec, light_span);
  for (uint64_t c : light_partial) result.light_triangles += c;

  // Heavy part: trace(A_H^3) / 6. A_H is symmetric, so
  // trace(A^3) = sum_{i,j} (A^2)[i][j] * A[i][j]: the heavy-product
  // executor streams A^2 in row blocks (per-block kernel dispatch), and
  // each A^2 row is intersected with the matching A row by a bitmap probe:
  // mark the A row's columns in the worker's bitmap, sum the counts of the
  // A^2 entries whose bit is set, clear the marks. O(|A row| + |A^2 row|)
  // and independent of entry order (CSR x CSR rows come in first-touch
  // order, not ascending).
  if (heavy.size() >= 3) {
    TraceRecorder::Scope heavy_scope(trace_rec, "heavy", tparent);
    const size_t h = heavy.size();
    const CsrMatrix csr_a = CsrMatrix::FromRows(
        h, h, threads, [&](size_t i, std::vector<uint32_t>* out) {
          for (Value u : graph.YsOf(heavy[i])) {
            if (u == heavy[i]) continue;
            const Value id = heavy_id[u];
            if (id != kInvalidValue) out->push_back(id);
          }
        });
    result.heavy_nnz = csr_a.nnz();
    result.heavy_density = csr_a.Density();

    const uint64_t trace_blocks = (h + kTraceRowBlock - 1) / kTraceRowBlock;
    const uint64_t trace_workers = std::min<uint64_t>(
        static_cast<uint64_t>(threads), std::max<uint64_t>(1, trace_blocks));
    const bool allow_csr_dense =
        options.heavy_path != HeavyPathMode::kForceCsrCsr &&
        (allow_dense ||
         4ull * h * h + 4ull * trace_workers * kTraceRowBlock * h +
                 csr_a.SizeBytes() <=
             options.max_matrix_bytes);

    HeavyKnobs knobs;
    knobs.threads = threads;
    knobs.row_block = kTraceRowBlock;
    knobs.heavy_path = options.heavy_path;
    knobs.sparse_rates = options.sparse_rates;
    knobs.partition = PartitionMode::kOff;
    knobs.max_matrix_bytes = options.max_matrix_bytes;
    knobs.trace = trace_rec;
    knobs.trace_parent = heavy_scope.id();
    HeavyRecord record;
    std::vector<uint64_t> trace_partial(static_cast<size_t>(threads), 0);
    // Per-worker probe bitmaps over the heavy ids, all clear between rows;
    // sized on the worker's first row.
    std::vector<DynamicBitset> marks(static_cast<size_t>(threads));
    RunHeavyProduct(
        HeavyProduct{.a = csr_a,
                     .b = csr_a,
                     .allow_dense = allow_dense,
                     .allow_csr_dense = allow_csr_dense},
        knobs,
        [cancel] { return cancel != nullptr && cancel->Fired(); },
        [&](int w, uint32_t i, std::span<const HeavyEntry> a2row) {
          DynamicBitset& mark = marks[static_cast<size_t>(w)];
          if (mark.size() == 0) mark = DynamicBitset(h);
          const auto arow = csr_a.Row(i);
          for (uint32_t c : arow) mark.Set(c);
          uint64_t local = 0;
          for (const HeavyEntry& e : a2row) {
            if (mark.Test(e.col)) local += e.count;
          }
          for (uint32_t c : arow) mark.Clear(c);
          trace_partial[static_cast<size_t>(w)] += local;
        },
        nullptr, &record);
    uint64_t trace = 0;
    for (uint64_t t : trace_partial) trace += t;
    result.heavy_triangles = (trace + 3) / 6;
    result.kernel_counts = record.kernel_counts;
    result.blocks_skipped = record.heavy_blocks_skipped;
  }

  result.light_chunks_total =
      graph.num_x() == 0 ? 0 : (graph.num_x() + 511) / 512;
  result.light_chunks_executed = light_executed.load();
  result.light_chunks_skipped = light_skipped.load();
  result.cancelled =
      result.light_chunks_skipped > 0 || result.blocks_skipped > 0;
  result.triangles = result.light_triangles + result.heavy_triangles;
  return result;
}

}  // namespace jpmm
