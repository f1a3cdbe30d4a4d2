// ResultSink — push-based result delivery for every jpmm query family.
//
// The paper's algorithms are output-sensitive, so the API should be too:
// limit, count-only, and top-k consumers must not pay for materializing
// every output pair. A ResultSink inverts the old "return a vector"
// contract into push-based delivery:
//
//   - The executor calls Open(workers) once, then each worker w emits
//     through shard(w) — shards are single-owner, so parallel emission
//     needs no locks — and finally the executor calls Finish() once on the
//     coordinating thread.
//   - done() is a cooperative early-exit signal, polled by the emit loops
//     at bucket/block granularity: once a LimitSink has its k pairs, the
//     remaining light chunks and heavy product blocks are skipped (the
//     skip counts surface through the result structs and
//     `jpmm_cli --explain`).
//   - Delivery order is unspecified (it follows dynamic chunk claiming);
//     the pair SET at a given option set is deterministic for sinks that
//     accept everything. Executors apply min_count filtering BEFORE the
//     sink, so a sink only ever sees qualifying results.
//
// Ships six consumers: VectorSink (materialize-everything back-compat),
// CountOnlySink, LimitSink, PageSink (offset + limit pagination),
// TopKByCountSink, and OrderedBySink (ranked delivery per Deep, Hu &
// Koutris 2022). Custom sinks implement the same contract; see docs/api.md.

#ifndef JPMM_CORE_RESULT_SINK_H_
#define JPMM_CORE_RESULT_SINK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"

namespace jpmm {

/// Push-based consumer of query results. See the file header for the
/// threading contract (Open / shard(w) / Finish, plus done() from any
/// thread).
class ResultSink {
 public:
  /// Per-worker emission handle. shard(w) is touched only by worker w
  /// between Open() and Finish(), so implementations need no locking in
  /// the On* methods unless they share state across shards on purpose.
  /// Shards are cache-line aligned (and so padded to whole lines): state
  /// kept inside a shard never shares a line with another shard's, so
  /// per-result writes stay core-local. A shared atomic is only for
  /// done() and bounded reservations (LimitSink / PageSink slots).
  class alignas(64) Shard {
   public:
    virtual ~Shard() = default;
    /// One plain output pair (count_witnesses off).
    virtual void OnPair(const OutPair& p) = 0;
    /// One counted output pair (count_witnesses on). The count is the
    /// exact witness count and is already >= the query's min_count.
    virtual void OnCountedPair(const CountedPair& p) = 0;
    /// One k-ary star tuple (star queries only; duplicate-free).
    virtual void OnTuple(std::span<const Value> tuple) { (void)tuple; }
    /// Block-granular bulk delivery; default loops the scalar hooks.
    virtual void OnPairs(std::span<const OutPair> ps);
    virtual void OnCountedPairs(std::span<const CountedPair> ps);
    /// Star tuples in bulk: `flat` holds flat.size() / arity tuples back to
    /// back. The default loops OnTuple.
    virtual void OnTuples(std::span<const Value> flat, uint32_t arity);
  };

  virtual ~ResultSink() = default;

  /// Called once by the executor before any emission. num_shards is the
  /// worker count; shard(w) must be valid for w in [0, num_shards).
  /// Reopening resets the sink for a fresh execution.
  virtual void Open(int num_shards) = 0;

  /// Worker w's emission handle. Valid between Open() and Finish().
  virtual Shard& shard(int w) = 0;

  /// Cooperative early exit: when true, executors skip remaining work at
  /// the next bucket/block boundary. Must be callable from any thread.
  virtual bool done() const { return false; }

  /// True when done() can become true before the query completes (e.g.
  /// LimitSink). Executors whose emission is not naturally streaming
  /// (the star join needs global tuple dedup) only pay the incremental
  /// delivery overhead when this is set.
  virtual bool may_finish_early() const { return false; }

  /// False for sinks whose shards do not consume OnTuple (pair-only
  /// consumers like TopKByCountSink). QueryEngine rejects star queries
  /// into such a sink instead of silently delivering nothing.
  virtual bool supports_tuples() const { return true; }

  /// Called once after all parallel emission finished; merge point.
  virtual void Finish() {}
};

/// Materializes every result — the back-compat sink the old facade is a
/// wrapper over. Shard buffers merge in shard order at Finish(), matching
/// the old per-worker merge exactly.
class VectorSink : public ResultSink {
 public:
  VectorSink();
  ~VectorSink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  void Finish() override;

  std::vector<OutPair>& pairs() { return pairs_; }
  std::vector<CountedPair>& counted() { return counted_; }
  /// Star tuples, flattened with stride arity(); empty for pair queries.
  const std::vector<Value>& tuple_data() const { return tuple_data_; }
  uint32_t tuple_arity() const { return tuple_arity_; }
  size_t size() const {
    if (!pairs_.empty()) return pairs_.size();
    if (!counted_.empty()) return counted_.size();
    return tuple_arity_ == 0 ? 0 : tuple_data_.size() / tuple_arity_;
  }

 private:
  struct VectorShard;
  std::vector<std::unique_ptr<VectorShard>> shards_;
  std::vector<OutPair> pairs_;
  std::vector<CountedPair> counted_;
  std::vector<Value> tuple_data_;
  uint32_t tuple_arity_ = 0;
};

/// Counts results without storing them. Each shard counts into its own
/// cache line (the owner bumps it with a relaxed load + store, no locked
/// read-modify-write), so counting never bounces a line between cores.
class CountOnlySink : public ResultSink {
 public:
  CountOnlySink();
  ~CountOnlySink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;

  /// Sum of the shard counters. Exact after Finish(); during emission it
  /// may be read from any thread (not concurrently with Open()) and gives
  /// a monotone lower bound of the final count.
  uint64_t count() const;

 private:
  struct CountShard;
  std::vector<std::unique_ptr<CountShard>> shards_;
};

/// One result page: skips the first `offset` results to arrive, keeps the
/// next `limit`, then reports done() — the early exit fires as soon as the
/// page is full, so deep heavy blocks after the page boundary are skipped.
/// WHICH results fill the page follows the (nondeterministic) emission
/// order; the counts are deterministic:
///   size()    == min(limit, |OUT| - min(offset, |OUT|))
///   skipped() == min(offset, |OUT|)   (exact skip accounting)
/// Each delivery reserves its result slots with one atomic fetch_add — a
/// span claims all of its slots at once and keeps exactly those inside
/// [offset, end) — so the skip count and page boundary are exact across
/// any number of shards and any mix of scalar and span calls. Once the
/// page is full a relaxed load turns deliveries away before they write
/// the shared counter.
class PageSink : public ResultSink {
 public:
  PageSink(uint64_t offset, uint64_t limit);
  ~PageSink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  bool done() const override {
    return accepted_.load(std::memory_order_relaxed) >= end_;
  }
  bool may_finish_early() const override { return true; }
  void Finish() override;

  uint64_t offset() const { return offset_; }
  uint64_t limit() const { return end_ - offset_; }
  /// Results skipped to reach the page: exactly min(offset, |OUT|).
  /// Valid after Finish().
  uint64_t skipped() const {
    return std::min(accepted_.load(std::memory_order_relaxed), offset_);
  }
  const std::vector<OutPair>& pairs() const { return pairs_; }
  const std::vector<CountedPair>& counted() const { return counted_; }
  const std::vector<Value>& tuple_data() const { return tuple_data_; }
  uint32_t tuple_arity() const { return tuple_arity_; }
  size_t size() const {
    if (!pairs_.empty()) return pairs_.size();
    if (!counted_.empty()) return counted_.size();
    return tuple_arity_ == 0 ? 0 : tuple_data_.size() / tuple_arity_;
  }

 private:
  struct PageShard;
  const uint64_t offset_;
  const uint64_t end_;  // offset + limit, saturated
  std::atomic<uint64_t> accepted_{0};
  std::vector<std::unique_ptr<PageShard>> shards_;
  std::vector<OutPair> pairs_;
  std::vector<CountedPair> counted_;
  std::vector<Value> tuple_data_;
  uint32_t tuple_arity_ = 0;
};

/// Keeps the first `limit` results to arrive and then reports done(): the
/// page at offset 0. WHICH results are kept follows the (nondeterministic)
/// emission order; the kept count is deterministic: min(limit, |OUT|).
class LimitSink final : public PageSink {
 public:
  explicit LimitSink(uint64_t limit) : PageSink(0, limit) {}
};

/// The k highest-witness-count pairs, without a full sort: each shard keeps
/// a size-k min-heap; Finish() merges them. Ordering is count descending,
/// ties broken by (x, z) ascending, so the result is deterministic — equal
/// to sorting the full counted output and taking the first k. Never
/// reports done(): every pair must be seen. Intended for counted pairs;
/// plain pairs rank with implicit weight 1 (k smallest (x, z) pairs).
class TopKByCountSink : public ResultSink {
 public:
  explicit TopKByCountSink(size_t k);
  ~TopKByCountSink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  bool supports_tuples() const override { return false; }
  void Finish() override;

  size_t k() const { return k_; }
  /// Top-k pairs, count descending (ties (x, z) ascending).
  const std::vector<CountedPair>& top() const { return top_; }

 private:
  struct TopKShard;
  const size_t k_;
  std::vector<std::unique_ptr<TopKShard>> shards_;
  std::vector<CountedPair> top_;
};

/// Ranking for OrderedBySink.
enum class ResultOrder {
  kXzAscending,      // (x, z) lexicographic, the enumeration order
  kCountDescending,  // witness count desc, ties (x, z) asc (== TopK order)
};

const char* ResultOrderName(ResultOrder o);

/// Ranked streaming delivery (ranked enumeration a la Deep, Hu & Koutris
/// 2022): results arrive in an unspecified order, each shard keeps a
/// sorted-on-demand run (bounded to `limit` by a min-heap when a limit is
/// set, so memory is O(shards * limit) instead of O(|OUT|)), and Finish()
/// merges the runs with a bounded cursor-per-shard merge, delivering the
/// output in rank order — to the on_result callback as a stream, and into
/// ranked() materialized. The order is a strict total order, so the result
/// equals sorting the full output and (with a limit) truncating — the
/// full-sort oracle the tests compare against — at every thread count.
/// Never reports done() before the end: every result must be seen to rank.
/// Plain pairs rank with implicit weight 1. Pair-only (no star tuples).
class OrderedBySink : public ResultSink {
 public:
  static constexpr uint64_t kNoLimit = ~uint64_t{0};

  explicit OrderedBySink(ResultOrder order, uint64_t limit = kNoLimit);
  ~OrderedBySink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  bool supports_tuples() const override { return false; }
  void Finish() override;

  /// Streaming consumer, invoked in rank order during Finish(); set before
  /// Execute. The materialized ranked() vector is filled either way.
  void set_on_result(std::function<void(const CountedPair&)> fn) {
    on_result_ = std::move(fn);
  }

  ResultOrder order() const { return order_; }
  uint64_t limit() const { return limit_; }
  /// The ranked output (counted; plain pairs carry count 1), best first.
  const std::vector<CountedPair>& ranked() const { return ranked_; }

 private:
  struct OrderedShard;
  const ResultOrder order_;
  const uint64_t limit_;
  std::function<void(const CountedPair&)> on_result_;
  std::vector<std::unique_ptr<OrderedShard>> shards_;
  std::vector<CountedPair> ranked_;
};

/// Fans one execution's result stream out to N independent client sinks —
/// the delivery half of QueryService's multi-query batching: a batch leader
/// runs the single product pass into a FanoutSink and every coalesced
/// client's sink receives the same stream with its own done()/limit/page
/// semantics intact.
///
///   - Targets vote: each On* call forwards to every target whose done() is
///     still false (one relaxed load per target, checked per call — the
///     same granularity the executors poll at), so a LimitSink target stops
///     receiving after its k results while the others keep streaming.
///   - done() is the conjunction over targets: the shared execution
///     early-exits only when EVERY client is satisfied — a single follower
///     finishing early never cancels the leader's pass.
///   - Taps are non-voting observers (the result-cache RecordingSink):
///     they receive every result unconditionally and are ignored by done().
///
/// Add targets/taps before Open(); the pointers must outlive the execution
/// (the batcher guarantees this by holding followers until delivery ends).
class FanoutSink : public ResultSink {
 public:
  FanoutSink();
  ~FanoutSink() override;

  /// A voting client sink (one per coalesced request).
  void AddTarget(ResultSink* sink);
  /// A non-voting observer; receives everything, never blocks early exit.
  void AddTap(ResultSink* sink);

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  /// True iff ALL targets report done() (vacuously false with no targets).
  bool done() const override;
  /// The shared pass may finish early only if every target allows it.
  bool may_finish_early() const override;
  /// Tuples are deliverable only if every target AND tap consumes them.
  bool supports_tuples() const override;
  void Finish() override;

  size_t num_targets() const { return targets_.size(); }
  /// Total results delivered across all targets (bulk spans count each
  /// element once per receiving target), summed from the shards at
  /// Finish(). Feeds jpmm_batch_fanout_*.
  uint64_t results_forwarded() const { return forwarded_; }

 private:
  struct FanShard;
  std::vector<ResultSink*> targets_;
  std::vector<ResultSink*> taps_;
  std::vector<std::unique_ptr<FanShard>> shards_;
  uint64_t forwarded_ = 0;
};

/// Bounded materializer used as a FanoutSink tap: captures the complete
/// result stream of one execution so QueryService can insert it into the
/// versioned result cache. A shared byte budget (one relaxed fetch_add per
/// result) stops capture at `max_bytes` and latches overflowed() — an
/// oversized result is simply not cached, it never fails the query.
class RecordingSink : public ResultSink {
 public:
  explicit RecordingSink(uint64_t max_bytes);
  ~RecordingSink() override;

  void Open(int num_shards) override;
  Shard& shard(int w) override;
  void Finish() override;

  /// True once the stream exceeded max_bytes; the capture is incomplete
  /// and must not be cached.
  bool overflowed() const {
    return overflowed_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// Captured payload, merged in shard order. Valid after Finish();
  /// movable out by the cache-insert path.
  std::vector<OutPair>& pairs() { return pairs_; }
  std::vector<CountedPair>& counted() { return counted_; }
  std::vector<Value>& tuple_data() { return tuple_data_; }
  uint32_t tuple_arity() const { return tuple_arity_; }

 private:
  struct RecordShard;
  const uint64_t max_bytes_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<bool> overflowed_{false};
  std::vector<std::unique_ptr<RecordShard>> shards_;
  std::vector<OutPair> pairs_;
  std::vector<CountedPair> counted_;
  std::vector<Value> tuple_data_;
  uint32_t tuple_arity_ = 0;
};

}  // namespace jpmm

#endif  // JPMM_CORE_RESULT_SINK_H_
