// The heavy-product executor shared by every MM plan.
//
// Algorithm 1's M1 * M2, the star query's V * W^T (§3.2) and the triangle
// residue A_H^2 are one operator: a rectangular counting product of two
// CSR operands, streamed in row blocks and scanned for non-zeros (the
// DIM³ follow-up treats the mapped product the same way). RunHeavyProduct
// owns everything after the operands exist: the density-grid lookup or
// build (or the uniform row-block plan), the memory gate on the grid's
// extra operands, packing and column-band slicing, the dynamic chunk loop
// with its stop polls and executed/skipped accounting, per-block kernel
// dispatch, and the gather of each output row's (column, count) entries
// across column bands. Callers keep what belongs to their query shape:
// threshold fitting, the light passes, and what an output row means.
//
// The uniform plan is a grid with identity permutations, one row band per
// row_block chunk and one column band; it reads the operands directly and
// builds no permuted copy or slice.

#ifndef JPMM_CORE_HEAVY_PRODUCT_H_
#define JPMM_CORE_HEAVY_PRODUCT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/density_partition.h"
#include "core/heavy_dispatch.h"
#include "core/thresholds.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {

class CancelToken;
class TraceRecorder;
class WallTimer;

/// Smallest positive integer a float matrix cell (and the `v + 0.5f`
/// integer read-back) can NOT represent exactly: 2^24. A cell's count is at
/// most the inner dimension, so RunHeavyProduct plans only the CSR x CSR
/// kernel (uint32 stamp counters) once the inner dimension reaches it.
inline constexpr uint64_t kMaxExactFloatCount = uint64_t{1} << 24;

/// Knobs of one heavy product, shared by MmJoinOptions and StarJoinOptions
/// (which inherit them).
struct HeavyKnobs {
  int threads = 1;
  /// Rows per product chunk (memory = row_block * |output columns| floats
  /// per worker on the float kernels). 256 rows = two MC panels of the
  /// blocked kernel, which amortizes its B-panel packing.
  size_t row_block = 256;
  /// Heavy-part kernel selection. kAuto picks per product block between the
  /// dense blocked GEMM and the CSR kernels from the block's measured
  /// density (core/heavy_dispatch.h); the force modes pin one kernel
  /// everywhere (equivalence tests diff their outputs). A forced float
  /// kernel falls back to CSR x CSR when the inner dimension is at least
  /// kMaxExactFloatCount.
  HeavyPathMode heavy_path = HeavyPathMode::kAuto;
  /// Measured sparse-kernel rates for the dispatch; nullptr uses
  /// SparseKernelRates::Default() (measured once per process, and only when
  /// a heavy part actually exists under kAuto).
  const SparseKernelRates* sparse_rates = nullptr;
  /// Density-adaptive decomposition (core/density_partition.h):
  /// degree-remapped row/column bands with per-block kernels and pruned
  /// provably-empty blocks. kAuto engages the grid when its priced cost
  /// beats the uniform row-block plan and the band slices fit the memory
  /// cap; kForce engages it whenever a heavy product exists (fuzzer /
  /// equivalence tests); kOff always runs the uniform plan. Outputs are
  /// byte-identical either way — the remap is inverted at emit time.
  PartitionMode partition = PartitionMode::kAuto;
  /// Optional cross-execution grid memo owned by the caller's plan state
  /// (see DensityGridCache). On a key match the degree-remap rebuild is
  /// skipped; the hit is recorded in HeavyRecord::partition_cache_hit and
  /// the "degree-remap" trace span's detail. Null = always rebuild.
  DensityGridCache* grid_cache = nullptr;
  /// Hard cap on the heavy-part working set. Each query shape's threshold
  /// fit decides what its uniform plan needs and which representations
  /// (dense, CSR x dense) it may materialize; the executor additionally
  /// declines a density grid whose permuted operands and band slices would
  /// not fit beside that.
  uint64_t max_matrix_bytes = uint64_t{3} << 30;
  /// Optional cancellation token (deadline | explicit cancel), polled at
  /// light-chunk / product-chunk granularity. A fired token skips the
  /// remaining work (skips counted like sink-driven early exit) and marks
  /// the result interrupted; partial results already delivered stay valid.
  const CancelToken* cancel = nullptr;
  /// Optional per-query stage tracing (core/trace.h). Stage spans
  /// (threshold-fit, light-pass + chunks, heavy: csr-build / degree-remap /
  /// pack / block:<kernel> / emit-inverse-remap, sink-finish) are recorded
  /// under `trace_parent`. Null = zero cost. Every opened span is closed on
  /// every exit path, including cancel / sink-done early exits.
  TraceRecorder* trace = nullptr;
  int32_t trace_parent = -1;  // TraceRecorder::kNoParent
};

/// What one heavy product ran: the plan, its blocks, and what early exit
/// skipped. MmJoinResult, StarJoinResult, JoinProjectOutput and ExecStats
/// inherit it, so copying the record between them is one assignment.
struct HeavyRecord {
  HeavyKernelCounts kernel_counts;  // product blocks per kernel that ran
  /// Per-block dispatch record. Uniform plans hold one full-width block per
  /// row chunk; density grids one block per scheduled cell, with ranges in
  /// remapped coordinates.
  std::vector<BlockKernelChoice> block_choices;

  // --- density-adaptive partitioning (core/density_partition.h) ---
  bool partition_used = false;              // grid engaged on the product
  uint64_t partition_row_bands = 0;         // grid shape actually executed
  uint64_t partition_col_bands = 0;
  uint64_t partition_blocks_scheduled = 0;  // grid cells with work
  uint64_t partition_blocks_pruned = 0;     // cells with a zero nnz bound
  /// Stable fingerprint of the executed decomposition ("off", "uniform", or
  /// DensityGrid::Signature()). Identical across re-executions of one plan
  /// against an unchanged catalog, at every thread count.
  std::string partition_signature = "off";
  /// True iff the grid came from HeavyKnobs::grid_cache instead of a fresh
  /// BuildDensityGrid (identical grid either way — the cache key covers
  /// every input the build reads).
  bool partition_cache_hit = false;

  // --- early-exit instrumentation: one unit per row_block chunk of the
  // product (or per heavy chunk on the combinatorial paths), so
  // executed + skipped == total at every thread count and in every mode.
  uint64_t heavy_blocks_total = 0;
  uint64_t heavy_blocks_executed = 0;
  uint64_t heavy_blocks_skipped = 0;
  double heavy_seconds = 0.0;  // operand build + plan + multiply + emit

  /// Accounts a heavy phase that never starts (the sink was satisfied or
  /// the token fired before it): every one of the ceil(rows / row_block)
  /// chunks is skipped. This is the count RunHeavyProduct would have
  /// planned, so heavy_blocks_total is the same whether the phase ran.
  void SkipAll(uint64_t rows, size_t row_block);
};

/// Adds one record to the process-wide heavy-part metrics (block and
/// kernel counters, partition counters, the heavy-pass histogram).
void RecordHeavyMetrics(const HeavyRecord& record);

/// The operands of one product and the caller's representation gates.
struct HeavyProduct {
  const CsrMatrix& a;  // rows x inner
  const CsrMatrix& b;  // inner x cols
  /// Whether the dense GEMM (dense A + packed B) and the CSR x dense kernel
  /// (dense B) may run, from the caller's memory-cap accounting.
  bool allow_dense = true;
  bool allow_csr_dense = true;
  /// Bytes the caller already accounts for; a density grid runs only if its
  /// extra operands fit beside them under max_matrix_bytes.
  uint64_t base_bytes = 0;
  /// The grid-cache key: the adjusted thresholds the operands came from.
  Thresholds grid_key{0, 0};
  /// Timer started when the caller's heavy phase began (before it built
  /// the operands); heavy_seconds is read from it. Null = time the
  /// executor alone.
  const WallTimer* phase_timer = nullptr;
};

/// Receives one output row: the worker, the original row id, and the row's
/// non-zeros as HeavyEntry (original column id, count), each column at most
/// once. Entries from a float-kernel block (dense, CSR x dense) ascend by
/// column when the plan has one column band (always on the uniform plan);
/// entries from a CSR x CSR block come in first-touch order (see
/// SparseRowBlock) and are handed over in place, without a copy, when the
/// chunk runs that one block over one column band. Called for every row of
/// every executed chunk, also when the row has no entries.
using HeavyRowFn =
    std::function<void(int worker, uint32_t row, std::span<const HeavyEntry>)>;

/// Runs a * b under `knobs`, handing every output row to `on_row` and, when
/// set, calling `on_chunk_end(worker)` after each chunk's rows. `stop` is
/// polled before every chunk; once it returns true the remaining chunks
/// are counted skipped. Stage spans nest under knobs.trace_parent (the
/// caller's "heavy" span). Fills `record` in place.
void RunHeavyProduct(const HeavyProduct& product, const HeavyKnobs& knobs,
                     const std::function<bool()>& stop,
                     const HeavyRowFn& on_row,
                     const std::function<void(int worker)>& on_chunk_end,
                     HeavyRecord* record);

}  // namespace jpmm

#endif  // JPMM_CORE_HEAVY_PRODUCT_H_
