// Worst-case optimal evaluation of star joins.
//
// For the star query Q(x1..xk) = R1(x1,y), ..., Rk(xk,y) a worst-case
// optimal plan keys every relation on the shared variable y and, per y
// value, emits the cartesian product of the adjacency lists (Prop. 1 / the
// generic-join instantiation for stars). Projection of y then needs a global
// tuple dedup: PartitionedTuples scatters the tuples by ranges of their
// first value as they are produced and sorts each range on its own.

#ifndef JPMM_JOIN_STAR_WCOJ_H_
#define JPMM_JOIN_STAR_WCOJ_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/index.h"

namespace jpmm {

/// Flat buffer of fixed-arity tuples with sort/unique dedup.
class TupleBuffer {
 public:
  explicit TupleBuffer(uint32_t arity) : arity_(arity) {}
  /// Adopts `flat` (tuples of `arity` values, back to back).
  TupleBuffer(uint32_t arity, std::vector<Value> flat)
      : arity_(arity), flat_(std::move(flat)) {}

  uint32_t arity() const { return arity_; }
  size_t size() const { return flat_.size() / arity_; }
  bool empty() const { return flat_.empty(); }

  /// Appends one tuple (must have exactly arity values).
  void Add(std::span<const Value> tuple);

  /// Tuple i as a span.
  std::span<const Value> Get(size_t i) const {
    return {flat_.data() + i * arity_, arity_};
  }

  /// Sorts tuples lexicographically and removes duplicates.
  void SortUnique();

  /// Appends every tuple of other.
  void Append(const TupleBuffer& other);

  const std::vector<Value>& flat() const { return flat_; }

 private:
  uint32_t arity_;
  std::vector<Value> flat_;
};

/// Tuples scattered by ranges of their first value, with one bucket per
/// (worker, range): parallel producers append without locks, and the dedup
/// sorts each range on its own instead of sorting everything at once. The
/// ranges ascend, so the sorted ranges concatenated in order are the
/// globally sorted result.
class PartitionedTuples {
 public:
  /// Tuples of bounds.size() values from producers [0, workers). Every
  /// value in column d must be below bounds[d], which is 64-bit so that the
  /// whole Value domain (2^32) fits; the bounds also lay out the keys the
  /// dedup packs tuples into. The ranges split the first column, 16 per
  /// worker (fewer when its domain is narrower).
  PartitionedTuples(int workers, std::vector<uint64_t> bounds);

  uint32_t arity() const { return static_cast<uint32_t>(bounds_.size()); }

  /// Appends one tuple to `worker`'s bucket for its range. A worker index
  /// must be used by one thread at a time.
  void Add(int worker, std::span<const Value> tuple) {
    JPMM_DCHECK(tuple.size() == bounds_.size());
    JPMM_DCHECK(std::equal(tuple.begin(), tuple.end(), bounds_.begin(),
                           [](Value v, uint64_t b) { return v < b; }));
    std::vector<Value>& bucket =
        buckets_[static_cast<size_t>(worker) * partitions_ +
                 (tuple[0] >> shift_)];
    bucket.insert(bucket.end(), tuple.begin(), tuple.end());
  }

  /// The same tuples as appending everything into one TupleBuffer and
  /// calling SortUnique(), in two parallel passes on the producers' worker
  /// count. First the workers claim ranges dynamically and sort and dedup
  /// each on its own; `stop`, if set, is polled (from any worker) before
  /// each non-empty range, and once it returns true the ranges not yet
  /// sorted are dropped. Then worker w copies one contiguous, ascending
  /// run of sorted ranges into the result and, if `deliver` is set, hands
  /// that run to deliver(w, flat): the runs concatenated by w are the
  /// result. Frees the buckets; call once, after every producer is done.
  TupleBuffer SortUnique(
      const std::function<bool()>& stop = nullptr,
      const std::function<void(int, std::span<const Value>)>& deliver =
          nullptr);

 private:
  size_t workers_;
  std::vector<uint64_t> bounds_;
  uint32_t shift_ = 0;
  size_t partitions_ = 1;
  std::vector<std::vector<Value>> buckets_;  // [worker * partitions_ + p]
};

/// Per-relation filter applied during enumeration: tuple (a, b) of relation
/// i participates iff filter(i, a, b). Null filter = no restriction.
using StarTupleFilter = std::function<bool(size_t rel, Value a, Value b)>;

/// Evaluates pi_{x1..xk}(R1 JOIN ... JOIN Rk) over the shared variable y.
/// The result is sorted and duplicate-free. `filter`, if set, restricts each
/// relation's tuples (used by the light/heavy decomposition steps).
/// `y_filter`, if set, restricts which y values are expanded. `threads`
/// partitions the y domain across workers (coordination-free; the tuples
/// are dedup'd one first-value range at a time at the end).
TupleBuffer StarJoinProjectWcoj(
    const std::vector<const IndexedRelation*>& rels,
    const StarTupleFilter& filter = nullptr,
    const std::function<bool(Value y)>& y_filter = nullptr, int threads = 1);

/// The PartitionedTuples bounds of star tuples over `rels`: column i holds
/// x values of rels[i].
std::vector<uint64_t> StarColumnBounds(
    const std::vector<const IndexedRelation*>& rels);

/// The enumeration half of StarJoinProjectWcoj, without the dedup: every
/// joined tuple goes into `out` (built with room for `threads` workers and
/// StarColumnBounds(rels)), possibly many times.
void StarJoinEnumerate(const std::vector<const IndexedRelation*>& rels,
                       const StarTupleFilter& filter,
                       const std::function<bool(Value y)>& y_filter,
                       int threads, PartitionedTuples* out);

/// Size of the full star join (before projection).
uint64_t FullStarJoinSize(const std::vector<const IndexedRelation*>& rels);

}  // namespace jpmm

#endif  // JPMM_JOIN_STAR_WCOJ_H_
