#include "core/heavy_product.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/trace.h"
#include "matrix/dense_matrix.h"
#include "matrix/matmul.h"

namespace jpmm {
namespace {

// One column band's B operand: the caller's B itself when the plan has a
// single column band, else a slice with band-local column ids; plus the
// dense and packed forms when some block of the band runs a float kernel.
struct BandOperand {
  CsrMatrix slice;
  const CsrMatrix* csr = nullptr;
  Matrix dense;
  PackedB packed;
};

// Per-worker scratch: one kernel output per block of the current row band
// (a row's entries are gathered across them), and the gathered row.
struct Worker {
  std::vector<std::vector<float>> floats;
  std::vector<SparseRowBlock> sparse;
  CsrScratch scratch;
  std::vector<HeavyEntry> entries;
};

// Working set a density grid adds beside the caller's accounted bytes: the
// row-permuted copy of A (CSR; dense too when some block runs the GEMM)
// and the per-band B slices (CSR always; the dense + packed slices are
// bounded by the full dense forms when float kernels run).
uint64_t GridExtraBytes(const CsrMatrix& a, const CsrMatrix& b,
                        const DensityGrid& grid) {
  bool any_dense = false;
  bool any_float = false;
  for (const BlockKernelChoice& blk : grid.blocks) {
    any_dense |= blk.kernel == ProductKernel::kDenseGemm;
    any_float |= blk.kernel != ProductKernel::kCsrCsr;
  }
  uint64_t extra = CsrBytes(a.rows(), a.nnz()) + CsrBytes(b.rows(), b.nnz()) +
                   8 * static_cast<uint64_t>(grid.num_col_bands()) *
                       (b.rows() + 1);
  if (any_float) extra += 4 * b.rows() * b.cols();
  if (any_dense) {
    extra += 4 * a.rows() * a.cols() + PackedBBytes(b.rows(), b.cols());
  }
  return extra;
}

// Appends the non-zeros of one kernel output row, mapping band-local
// columns through `colmap` (null = no column remap).
void GatherFloatRow(const float* row, size_t width, const uint32_t* colmap,
                    std::vector<HeavyEntry>* out) {
  for (size_t j = 0; j < width; ++j) {
    const float v = row[j];
    if (v > 0.5f) {
      const auto col = static_cast<uint32_t>(j);
      out->push_back(HeavyEntry{colmap != nullptr ? colmap[col] : col,
                                static_cast<uint32_t>(v + 0.5f)});
    }
  }
}

void GatherSparseRow(std::span<const uint32_t> cols,
                     std::span<const uint32_t> counts, const uint32_t* colmap,
                     std::vector<HeavyEntry>* out) {
  for (size_t e = 0; e < cols.size(); ++e) {
    out->push_back(
        HeavyEntry{colmap != nullptr ? colmap[cols[e]] : cols[e], counts[e]});
  }
}

}  // namespace

void HeavyRecord::SkipAll(uint64_t rows, size_t row_block) {
  heavy_blocks_total = (rows + row_block - 1) / row_block;
  heavy_blocks_executed = 0;
  heavy_blocks_skipped = heavy_blocks_total;
}

void RecordHeavyMetrics(const HeavyRecord& record) {
  if (!MetricsEnabled()) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter& blocks_executed =
      reg.GetCounter("jpmm_join_heavy_blocks_executed_total");
  static Counter& blocks_skipped =
      reg.GetCounter("jpmm_join_heavy_blocks_skipped_total");
  static Counter& kernel_dense =
      reg.GetCounter("jpmm_join_kernel_dense_blocks_total");
  static Counter& kernel_csr_dense =
      reg.GetCounter("jpmm_join_kernel_csr_dense_blocks_total");
  static Counter& kernel_csr_csr =
      reg.GetCounter("jpmm_join_kernel_csr_csr_blocks_total");
  static Counter& partition_engaged =
      reg.GetCounter("jpmm_partition_engaged_total");
  static Counter& partition_pruned =
      reg.GetCounter("jpmm_partition_blocks_pruned_total");
  static Counter& grid_cache_hits =
      reg.GetCounter("jpmm_partition_grid_cache_hits_total");
  static Histogram& heavy_ms =
      reg.GetHistogram("jpmm_join_heavy_pass_ms", DefaultLatencyBoundsMs());
  blocks_executed.Add(record.heavy_blocks_executed);
  blocks_skipped.Add(record.heavy_blocks_skipped);
  kernel_dense.Add(record.kernel_counts.dense);
  kernel_csr_dense.Add(record.kernel_counts.csr_dense);
  kernel_csr_csr.Add(record.kernel_counts.csr_csr);
  if (record.partition_used) partition_engaged.Add();
  partition_pruned.Add(record.partition_blocks_pruned);
  if (record.partition_cache_hit) grid_cache_hits.Add();
  if (record.heavy_seconds > 0) heavy_ms.Record(record.heavy_seconds * 1e3);
}

void RunHeavyProduct(const HeavyProduct& product, const HeavyKnobs& knobs,
                     const std::function<bool()>& stop,
                     const HeavyRowFn& on_row,
                     const std::function<void(int worker)>& on_chunk_end,
                     HeavyRecord* record) {
  const WallTimer own_timer;
  const WallTimer& timer =
      product.phase_timer != nullptr ? *product.phase_timer : own_timer;
  TraceRecorder* const trace = knobs.trace;
  const TraceRecorder::SpanId parent = knobs.trace_parent;
  const int threads = std::max(1, knobs.threads);
  const size_t row_block = std::max<size_t>(1, knobs.row_block);
  const CsrMatrix& a = product.a;
  const CsrMatrix& b = product.b;
  const size_t rows = a.rows();
  const size_t num_chunks = (rows + row_block - 1) / row_block;
  record->heavy_blocks_total = num_chunks;

  // Float cells and their `v + 0.5f` read-back are exact only below 2^24,
  // and a cell's count is at most the inner dimension: past that bound the
  // plan may only use the CSR x CSR kernel (uint32 counts).
  bool allow_dense = product.allow_dense;
  bool allow_csr_dense = product.allow_csr_dense;
  HeavyPathMode mode = knobs.heavy_path;
  if (b.rows() >= kMaxExactFloatCount) {
    allow_dense = false;
    allow_csr_dense = false;
    if (mode != HeavyPathMode::kAuto) mode = HeavyPathMode::kForceCsrCsr;
  }

  // ---- Plan. The density grid (memoized across executions of one
  // prepared query) runs when engaged and its extra operands fit the cap;
  // otherwise the uniform plan: one full-width block per row_block chunk.
  std::shared_ptr<const DensityGrid> grid;
  if (knobs.partition != PartitionMode::kOff) {
    const TraceRecorder::SpanId remap_span =
        TraceBegin(trace, "degree-remap", parent);
    DensityGridCache::Key key;
    key.thresholds = product.grid_key;
    key.options.row_block = row_block;
    key.options.mode = mode;
    key.options.rates = knobs.sparse_rates;
    key.options.allow_dense = allow_dense;
    key.options.allow_csr_dense = allow_csr_dense;
    DensityGridCache* const cache = knobs.grid_cache;
    if (cache != nullptr) grid = cache->Lookup(key);
    record->partition_cache_hit = grid != nullptr;
    if (grid == nullptr) {
      grid = std::make_shared<const DensityGrid>(
          BuildDensityGrid(a, b, key.options));
      if (cache != nullptr) cache->Store(key, grid);
    }
    TraceEnd(trace, remap_span,
             record->partition_cache_hit ? "cache-hit" : "cache-miss");
    const bool engaged =
        knobs.partition == PartitionMode::kForce || grid->beneficial;
    if (!engaged || product.base_bytes + GridExtraBytes(a, b, *grid) >
                        knobs.max_matrix_bytes) {
      grid.reset();
    }
  }
  DensityGrid uniform;
  if (grid != nullptr) {
    record->partition_used = true;
    record->partition_row_bands = grid->num_row_bands();
    record->partition_col_bands = grid->num_col_bands();
    record->partition_blocks_scheduled = grid->blocks.size();
    record->partition_blocks_pruned = grid->pruned_blocks;
    record->partition_signature = grid->Signature();
    record->block_choices = grid->blocks;
  } else {
    record->partition_signature = "uniform";
    record->block_choices =
        PlanProductBlocks(a, b, row_block, mode, knobs.sparse_rates,
                          allow_dense, allow_csr_dense, nullptr);
    for (size_t r = 0; r < rows; r += row_block) {
      uniform.row_bands.push_back(static_cast<uint32_t>(r));
    }
    uniform.row_bands.push_back(static_cast<uint32_t>(rows));
    uniform.col_bands = {0, static_cast<uint32_t>(b.cols())};
  }
  const DensityGrid& g = grid != nullptr ? *grid : uniform;
  const std::vector<BlockKernelChoice>& blocks = record->block_choices;

  // Each chunk lies inside one row band (bands snap to row_block
  // multiples) and runs that band's scheduled (block, column band) pairs.
  const size_t nrb = g.num_row_bands();
  const size_t ncb = g.num_col_bands();
  std::vector<uint32_t> chunk_band(num_chunks);
  for (size_t bi = 0; bi < nrb; ++bi) {
    for (size_t ci = g.row_bands[bi] / row_block;
         ci * row_block < g.row_bands[bi + 1]; ++ci) {
      chunk_band[ci] = static_cast<uint32_t>(bi);
    }
  }
  std::vector<std::vector<std::pair<const BlockKernelChoice*, size_t>>>
      band_blocks(nrb);
  std::vector<uint8_t> band_any(ncb, 0);
  std::vector<uint8_t> band_float(ncb, 0);
  std::vector<uint8_t> band_dense(ncb, 0);
  for (const BlockKernelChoice& blk : blocks) {
    const size_t bi = static_cast<size_t>(
        std::upper_bound(g.row_bands.begin(), g.row_bands.end(),
                         blk.row_begin) - g.row_bands.begin() - 1);
    const size_t bj = static_cast<size_t>(
        std::upper_bound(g.col_bands.begin(), g.col_bands.end(),
                         blk.col_begin) - g.col_bands.begin() - 1);
    band_blocks[bi].emplace_back(&blk, bj);
    record->kernel_counts.Add(blk.kernel);
    band_any[bj] = 1;
    band_float[bj] |= blk.kernel != ProductKernel::kCsrCsr;
    band_dense[bj] |= blk.kernel == ProductKernel::kDenseGemm;
  }
  const bool any_dense = record->kernel_counts.dense > 0;

  // ---- Operands. Rows are permuted only under a non-identity row remap;
  // B is sliced only when there are several column bands (one band covers
  // every column, so its product needs no column remap). The inner
  // dimension is shared and never permuted, so every kernel runs unchanged.
  const TraceRecorder::SpanId pack_span = TraceBegin(trace, "pack", parent);
  const bool remap_rows =
      !std::is_sorted(g.row_perm.begin(), g.row_perm.end());
  const bool remap_cols = ncb > 1;
  CsrMatrix a_permuted;
  if (remap_rows) {
    a_permuted = CsrMatrix::FromRows(
        rows, a.cols(), threads, [&](size_t i, std::vector<uint32_t>* out) {
          for (uint32_t c : a.Row(g.row_perm[i])) out->push_back(c);
        });
  }
  const CsrMatrix& a_exec = remap_rows ? a_permuted : a;
  std::vector<uint32_t> inv_col;
  if (remap_cols) {
    inv_col.resize(b.cols());
    for (size_t k = 0; k < g.col_perm.size(); ++k) {
      inv_col[g.col_perm[k]] = static_cast<uint32_t>(k);
    }
  }
  std::vector<BandOperand> bands(ncb);
  for (size_t j = 0; j < ncb; ++j) {
    if (!band_any[j]) continue;
    BandOperand& band = bands[j];
    band.csr = &b;
    if (remap_cols) {
      const uint32_t cb0 = g.col_bands[j];
      const uint32_t cb1 = g.col_bands[j + 1];
      band.slice = CsrMatrix::FromRows(
          b.rows(), cb1 - cb0, threads,
          [&](size_t y, std::vector<uint32_t>* out) {
            for (uint32_t c : b.Row(y)) {
              const uint32_t k = inv_col[c];
              if (k >= cb0 && k < cb1) out->push_back(k - cb0);
            }
          });
      band.csr = &band.slice;
    }
    if (band_float[j]) band.dense = band.csr->ToDense(threads);
    if (band_dense[j]) band.packed = PackedB(band.dense, threads);
  }
  Matrix a_dense;
  if (any_dense) a_dense = a_exec.ToDense(threads);
  TraceEnd(trace, pack_span);

  // ---- Execute. Chunks are claimed dynamically: emit cost follows the
  // output skew, not just the flops. Every block of the chunk's row band
  // runs first (the block:<kernel> spans hold kernel time only); then each
  // row's entries are gathered across the blocks, mapped back to original
  // ids, and handed to on_row.
  std::vector<Worker> workers(static_cast<size_t>(threads));
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> skipped{0};
  ParallelForDynamic(
      threads, num_chunks, /*grain=*/1, [&](size_t c0, size_t c1, int w) {
        Worker& ws = workers[static_cast<size_t>(w)];
        for (size_t ci = c0; ci < c1; ++ci) {
          if (stop()) {
            skipped.fetch_add(c1 - ci, std::memory_order_relaxed);
            return;
          }
          executed.fetch_add(1, std::memory_order_relaxed);
          const size_t r0 = ci * row_block;
          const size_t r1 = std::min(rows, r0 + row_block);
          const size_t nrows = r1 - r0;
          const auto& run = band_blocks[chunk_band[ci]];
          if (ws.floats.size() < run.size()) {
            ws.floats.resize(run.size());
            ws.sparse.resize(run.size());
          }
          for (size_t k = 0; k < run.size(); ++k) {
            const BlockKernelChoice& blk = *run[k].first;
            const BandOperand& band = bands[run[k].second];
            TraceRecorder::Scope block_scope(trace, BlockSpanName(blk.kernel),
                                             parent);
            if (blk.kernel == ProductKernel::kCsrCsr) {
              CsrCsrRowRange(a_exec, *band.csr, r0, r1, &ws.scratch,
                             &ws.sparse[k]);
              continue;
            }
            const size_t width = blk.col_end - blk.col_begin;
            ws.floats[k].resize(row_block * width);
            const std::span<float> out(ws.floats[k].data(), nrows * width);
            if (blk.kernel == ProductKernel::kDenseGemm) {
              MultiplyRowRange(a_dense, band.packed, r0, r1, out);
            } else {
              CsrDenseRowRange(a_exec, band.dense, r0, r1, out);
            }
          }
          TraceRecorder::Scope emit_scope(trace, "emit-inverse-remap", parent);
          for (size_t li = 0; li < nrows; ++li) {
            ws.entries.clear();
            for (size_t k = 0; k < run.size(); ++k) {
              const BlockKernelChoice& blk = *run[k].first;
              const uint32_t* colmap =
                  remap_cols ? g.col_perm.data() + blk.col_begin : nullptr;
              if (blk.kernel == ProductKernel::kCsrCsr) {
                GatherSparseRow(ws.sparse[k].RowCols(li),
                                ws.sparse[k].RowCounts(li), colmap,
                                &ws.entries);
              } else {
                const size_t width = blk.col_end - blk.col_begin;
                GatherFloatRow(ws.floats[k].data() + li * width, width, colmap,
                               &ws.entries);
              }
            }
            const size_t row = r0 + li;
            on_row(w, remap_rows ? g.row_perm[row] : static_cast<uint32_t>(row),
                   ws.entries);
          }
          if (on_chunk_end) on_chunk_end(w);
        }
      });
  record->heavy_blocks_executed = executed.load();
  record->heavy_blocks_skipped = skipped.load();
  record->heavy_seconds = timer.Seconds();
}

}  // namespace jpmm
