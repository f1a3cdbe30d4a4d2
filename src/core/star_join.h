// Star join-project with matrix multiplication — Section 3.2.
//
//   Q*_k(x1..xk) = R1(x1,y), R2(x2,y), ..., Rk(xk,y)
//
// Partition per relation i:
//   R-i : tuples whose xi is light (deg <= Delta2)
//   R<>i: tuples whose y is light (deg <= Delta1) in every OTHER relation
//   R+i : the rest
// Steps:
//   (1) for each j, WCOJ-join with R-j substituted, project     (light xi)
//   (2) for each j, WCOJ-join with R<>j substituted, project    (light y)
//   (3) group x1..xk into ceil(k/2) / floor(k/2), build rectangular 0/1
//       matrices V (heavy ceil-group combos x heavy y) and W (heavy
//       floor-group combos x heavy y), compute V * W^T, emit nonzeros.
// A y value is "heavy" for step (3) iff it is heavy in at least two
// relations — any witness not of that form is covered by step (2). Rows are
// registered lazily (only observed heavy combos), which is equivalent to the
// paper's dense (N/Delta2)^ceil(k/2) indexing but exponentially cheaper in
// memory on real data.

#ifndef JPMM_CORE_STAR_JOIN_H_
#define JPMM_CORE_STAR_JOIN_H_

#include <vector>

#include "core/heavy_product.h"
#include "core/thresholds.h"
#include "join/star_wcoj.h"
#include "storage/index.h"

namespace jpmm {

class CancelToken;
class ResultSink;

/// Heavy-product knobs come from HeavyKnobs, as in MmJoinOptions:
/// per-block density-aware dispatch under kAuto, the degree-remapped grid
/// per `partition`, the cancellation token (polled between light
/// decomposition steps and per product chunk), tracing. max_matrix_bytes
/// caps the heavy-part bytes: thresholds double until the combo
/// registration fits; the dense V/W representations are additionally gated
/// off (falling back to the CSR kernels) when they alone would exceed it.
struct StarJoinOptions : HeavyKnobs {
  Thresholds thresholds;
  /// Push-based tuple delivery (core/result_sink.h, OnTuple / OnTuples).
  /// The star decomposition needs a global tuple dedup, so delivery is
  /// incremental only for sinks with may_finish_early(): new (never-seen)
  /// tuples are streamed after every light step / heavy product chunk, and
  /// done() skips the remaining steps and chunks. Other sinks get the
  /// tuples after evaluation from DedupStarTuples, in OnTuples batches:
  /// shard w receives one contiguous, ascending run of first-value ranges,
  /// so shards merged in shard order see globally sorted tuples.
  /// result.tuples is filled either way.
  ResultSink* sink = nullptr;
};

/// The heavy-product record (kernel mix, partition and heavy-block
/// early-exit counters, heavy_seconds) comes from HeavyRecord.
struct StarJoinResult : HeavyRecord {
  TupleBuffer tuples;  // sorted, duplicate-free
  Thresholds adjusted_thresholds;
  uint64_t v_rows = 0;  // heavy combos, first group
  uint64_t w_rows = 0;  // heavy combos, second group
  uint64_t heavy_y = 0; // shared inner dimension
  uint64_t v_nnz = 0;   // set cells of V (heavy combo incidences)
  uint64_t w_nnz = 0;   // set cells of W
  double heavy_density = 0.0;      // v_nnz / (v_rows * heavy_y)
  double light_seconds = 0.0;

  // --- early-exit instrumentation (sink-driven runs) ---
  uint64_t light_steps_total = 0;      // planned light decomposition steps
  uint64_t light_steps_executed = 0;   // light steps actually run
  uint64_t light_steps_skipped = 0;    // light decomposition steps skipped

  /// True iff a fired CancelToken truncated the run (see MmJoinResult).
  bool interrupted = false;

  StarJoinResult() : tuples(1) {}
};

/// MMJoin for the star query (steps 1-3 above).
StarJoinResult MmStarJoin(const std::vector<const IndexedRelation*>& rels,
                          const StarJoinOptions& options);

/// Combinatorial comparator: steps 1-2 as above, step 3 replaced by pairwise
/// sorted-intersection of the heavy combos' witness lists (the Lemma-2
/// strategy lifted to stars).
StarJoinResult NonMmStarJoin(const std::vector<const IndexedRelation*>& rels,
                             const StarJoinOptions& options);

/// The star dedup for sinks that do not stream (PartitionedTuples::
/// SortUnique on the producers' worker count): returns the sorted,
/// duplicate-free tuples and hands them to `sink`, if set (open with that
/// many shards), one contiguous, ascending run of ranges per shard(w) in
/// OnTuples batches. The token and done() are polled before every range
/// and batch; a fired token sets *interrupted and drops the rest.
TupleBuffer DedupStarTuples(PartitionedTuples* parts, ResultSink* sink,
                            const CancelToken* cancel, bool* interrupted);

/// Baseline: plain WCOJ over all tuples + dedup (Prop. 1).
TupleBuffer WcojStarJoin(const std::vector<const IndexedRelation*>& rels,
                         int threads = 1);

/// Cost-based threshold selection for the star decomposition: sweeps a
/// geometric Delta grid (Delta1 = Delta2, cf. Example 4's coupling) and
/// balances the exact light-step enumeration cost against bounds on the
/// grouped-matrix build/multiply cost. O(k * |D| * log(maxdeg)).
Thresholds ChooseStarThresholds(
    const std::vector<const IndexedRelation*>& rels);

}  // namespace jpmm

#endif  // JPMM_CORE_STAR_JOIN_H_
