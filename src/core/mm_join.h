// Algorithm 1 — MMJoin: output-sensitive two-path join-project.
//
//   pi_{x,z}( R(x,y) JOIN S(z,y) )
//
// Light values (degree at or below the thresholds) are evaluated with
// worst-case-optimal index expansion; heavy values are materialized as two
// rectangular 0/1 matrices M1 (heavy-x by heavy-y) and M2 (heavy-y by
// heavy-z) whose product counts the all-heavy witnesses of every output
// pair. The product is computed in row blocks so memory stays bounded by
// the operands plus one block, and row blocks parallelize with no
// coordination (§6).
//
// The counting variant returns exact witness counts — the intersection
// sizes SSJ thresholds on and ordered SSJ sorts by — because the witness
// classes visited by the light part and the matrix product partition the
// witness set (see two_path_internal.h).
//
// Exactness bound: heavy witness counts on the dense and CSR x dense
// kernels accumulate in float matrix cells and are read back with an
// integer cast, both exact only for values below 2^24. A cell's count is at
// most the inner dimension |heavy y|, so when |heavy y| reaches 2^24 the
// heavy-product executor (core/heavy_product.h) plans only the CSR x CSR
// kernel, which counts in uint32 — the query runs instead of aborting. (In
// practice the max_matrix_bytes cap forces thresholds up long before the
// bound binds.)

#ifndef JPMM_CORE_MM_JOIN_H_
#define JPMM_CORE_MM_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/heavy_product.h"
#include "core/thresholds.h"
#include "storage/index.h"

namespace jpmm {

class ResultSink;

/// Deduplication implementation for the light part (§6 discusses both).
enum class DedupImpl {
  kStampArray,  // epoch-stamped dense array, O(1) clear between x values
  kSortLocal,   // append witnesses, sort, aggregate (wins on huge sparse z)
};

/// Heavy-product knobs (threads, row_block, heavy_path, sparse_rates,
/// partition, grid_cache, max_matrix_bytes, cancel, trace, trace_parent)
/// come from HeavyKnobs. max_matrix_bytes caps the heavy-part working set:
/// the CSR index arrays are always counted; dense M1/M2, the shared
/// packed-B slab, and the per-worker row-block float buffers (threads *
/// row_block * |heavy_z|) only when dense or CSR x dense blocks may run;
/// the per-worker stamp scratch when CSR x CSR may run. Under kAuto the
/// dense representations are *gated off* when they alone would blow the
/// cap — the query degrades to the CSR kernels — and thresholds double
/// only when even the CSR floor does not fit (recorded in
/// adjusted_thresholds).
struct MmJoinOptions : HeavyKnobs {
  Thresholds thresholds;
  /// Produce CountedPair witness counts instead of plain pairs.
  bool count_witnesses = false;
  /// Emit only pairs with >= min_count witnesses (requires counting when
  /// min_count > 1). SSJ sets this to the overlap threshold c.
  uint32_t min_count = 1;
  DedupImpl dedup = DedupImpl::kStampArray;
  /// Push-based result delivery (core/result_sink.h). When set, results
  /// stream into the sink (min_count filtering still applies first) and
  /// MmJoinResult::pairs / counted stay empty; the sink's done() signal is
  /// polled at light-chunk / product-chunk granularity and skips the
  /// remaining work (skip counts land in the result). When null, results
  /// materialize into the result vectors as before.
  ResultSink* sink = nullptr;
};

/// The heavy-product record (kernel mix, block choices, partition and
/// heavy-block early-exit counters, heavy_seconds) comes from HeavyRecord.
struct MmJoinResult : HeavyRecord {
  /// Filled when !count_witnesses. Order unspecified.
  std::vector<OutPair> pairs;
  /// Filled when count_witnesses. Order unspecified.
  std::vector<CountedPair> counted;

  // --- instrumentation ---
  Thresholds adjusted_thresholds;  // after any memory-cap adjustment
  uint64_t heavy_rows = 0;         // |heavy x|
  uint64_t heavy_inner = 0;        // |heavy y|
  uint64_t heavy_cols = 0;         // |heavy z|
  uint64_t m1_nnz = 0;             // set cells of the heavy-x adjacency
  uint64_t m2_nnz = 0;             // set cells of the heavy-z adjacency
  double heavy_density = 0.0;      // m1_nnz / (heavy_rows * heavy_inner)
  double light_seconds = 0.0;

  // --- early-exit instrumentation (sink-driven runs) ---
  uint64_t light_chunks_total = 0;     // planned light-part chunks
  uint64_t light_chunks_executed = 0;  // light-part chunks actually run
  uint64_t light_chunks_skipped = 0;   // light-part chunks skipped

  /// True iff a fired CancelToken (not sink done()) cut the run short:
  /// some planned work was skipped because the token fired. A token that
  /// fires after the last chunk completes does NOT mark the run
  /// interrupted — the output is complete.
  bool interrupted = false;

  size_t size() const { return pairs.empty() ? counted.size() : pairs.size(); }
};

/// Runs Algorithm 1 with explicit thresholds. Use the cost-based optimizer
/// (core/optimizer.h) or the JoinProject facade to choose thresholds.
MmJoinResult MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& options);

}  // namespace jpmm

#endif  // JPMM_CORE_MM_JOIN_H_
