#include "join/star_wcoj.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace jpmm {

void TupleBuffer::Add(std::span<const Value> tuple) {
  JPMM_DCHECK(tuple.size() == arity_);
  flat_.insert(flat_.end(), tuple.begin(), tuple.end());
}

namespace {

// Tuples wider than this always take the comparison sort.
constexpr uint32_t kMaxPackedArity = 8;

// Where each column sits in a packed key: column d holds value - lo[d] in
// bits[d] bits, the first column most significant, so key order is
// lexicographic tuple order. Sized to the columns' value ranges (lo and hi
// inclusive), which is what lets a range of star tuples pack into one
// 64-bit word.
struct KeyLayout {
  uint32_t k;
  std::array<Value, kMaxPackedArity> lo{};
  std::array<uint32_t, kMaxPackedArity> bits{};
  uint32_t total_bits = std::numeric_limits<uint32_t>::max();  // unpacked

  KeyLayout(uint32_t arity, std::span<const Value> lo_in,
            std::span<const Value> hi_in)
      : k(arity) {
    if (k > kMaxPackedArity) return;
    total_bits = 0;
    for (uint32_t d = 0; d < k; ++d) {
      lo[d] = lo_in[d];
      bits[d] = static_cast<uint32_t>(std::bit_width(hi_in[d] - lo_in[d]));
      total_bits += bits[d];
    }
  }

  template <typename Key>
  Key Pack(const Value* t) const {
    Key key = 0;
    for (uint32_t d = 0; d < k; ++d) key = (key << bits[d]) | (t[d] - lo[d]);
    return key;
  }

  template <typename Key>
  void Unpack(Key key, Value* t) const {
    for (uint32_t d = k; d > 0; --d) {
      t[d - 1] = lo[d - 1] +
                 static_cast<Value>(key & ((Key{1} << bits[d - 1]) - 1));
      key >>= bits[d - 1];
    }
  }
};

// LSD radix sort of keys below 2^bits, one byte per pass.
template <typename Key>
void RadixSort(std::vector<Key>* keys, uint32_t bits) {
  std::vector<Key> tmp(keys->size());
  for (uint32_t shift = 0; shift < bits; shift += 8) {
    std::array<size_t, 256> start{};
    for (Key key : *keys) ++start[static_cast<uint8_t>(key >> shift)];
    size_t sum = 0;
    for (size_t& s : start) sum += std::exchange(s, sum);
    for (Key key : *keys) {
      tmp[start[static_cast<uint8_t>(key >> shift)]++] = key;
    }
    keys->swap(tmp);
  }
}

// Packs each tuple into one Key, sorts and dedups the keys, and unpacks
// them. Each run is freed as soon as it is packed.
template <typename Key>
std::vector<Value> SortPacked(std::span<std::vector<Value>* const> runs,
                              const KeyLayout& layout, size_t n) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (std::vector<Value>* run : runs) {
    for (size_t i = 0; i < run->size(); i += layout.k) {
      keys.push_back(layout.Pack<Key>(run->data() + i));
    }
    std::vector<Value>().swap(*run);
  }
  RadixSort(&keys, layout.total_bits);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<Value> sorted(keys.size() * layout.k);
  for (size_t i = 0; i < keys.size(); ++i) {
    layout.Unpack(keys[i], sorted.data() + i * layout.k);
  }
  return sorted;
}

// The distinct tuples of `runs` in lexicographic order, flat; frees the
// runs. Tuple buffers routinely hold tens of millions of entries, so
// tuples are packed into 64- or 128-bit keys laid out by `layout` and
// radix sorted, one pass per byte of the layout's width; the indirected
// comparison sort is reserved for tuples that do not fit 128 bits.
std::vector<Value> SortRuns(std::span<std::vector<Value>* const> runs,
                            const KeyLayout& layout) {
  const uint32_t k = layout.k;
  size_t n = 0;
  for (const std::vector<Value>* run : runs) n += run->size() / k;
  if (layout.total_bits <= 64) return SortPacked<uint64_t>(runs, layout, n);
  if (layout.total_bits <= 128) {
    return SortPacked<unsigned __int128>(runs, layout, n);
  }

  std::vector<Value> flat;
  for (std::vector<Value>* run : runs) {
    flat.insert(flat.end(), run->begin(), run->end());
    std::vector<Value>().swap(*run);
  }
  const Value* data = flat.data();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Value* ta = data + static_cast<size_t>(a) * k;
    const Value* tb = data + static_cast<size_t>(b) * k;
    return std::lexicographical_compare(ta, ta + k, tb, tb + k);
  });
  std::vector<Value> sorted;
  sorted.reserve(flat.size());
  for (uint32_t i : order) {
    const Value* t = data + static_cast<size_t>(i) * k;
    if (!sorted.empty() &&
        std::equal(t, t + k, sorted.data() + sorted.size() - k)) {
      continue;
    }
    sorted.insert(sorted.end(), t, t + k);
  }
  return sorted;
}

}  // namespace

void TupleBuffer::SortUnique() {
  if (flat_.empty()) return;
  // The keys are laid out by the columns' actual value ranges.
  std::vector<Value> lo(arity_, std::numeric_limits<Value>::max());
  std::vector<Value> hi(arity_, 0);
  for (size_t i = 0; i < flat_.size(); i += arity_) {
    for (uint32_t d = 0; d < arity_; ++d) {
      lo[d] = std::min(lo[d], flat_[i + d]);
      hi[d] = std::max(hi[d], flat_[i + d]);
    }
  }
  std::vector<Value>* run = &flat_;
  flat_ = SortRuns({&run, 1}, KeyLayout(arity_, lo, hi));
}

void TupleBuffer::Append(const TupleBuffer& other) {
  JPMM_CHECK(arity_ == other.arity_);
  flat_.insert(flat_.end(), other.flat_.begin(), other.flat_.end());
}

PartitionedTuples::PartitionedTuples(int workers, std::vector<uint64_t> bounds)
    : workers_(static_cast<size_t>(std::max(1, workers))),
      bounds_(std::move(bounds)) {
  JPMM_CHECK(!bounds_.empty());
  const uint64_t first_bound = bounds_[0];
  const int range_bits =
      first_bound <= 1 ? 0 : static_cast<int>(std::bit_width(first_bound - 1));
  const int partition_bits = static_cast<int>(
      std::countr_zero(std::bit_ceil(uint64_t{16} * workers_)));
  shift_ = static_cast<uint32_t>(std::max(0, range_bits - partition_bits));
  partitions_ = first_bound == 0
                    ? 1
                    : static_cast<size_t>((first_bound - 1) >> shift_) + 1;
  buckets_.resize(workers_ * partitions_);
}

TupleBuffer PartitionedTuples::SortUnique(
    const std::function<bool()>& stop,
    const std::function<void(int, std::span<const Value>)>& deliver) {
  const uint32_t k = arity();
  // Column bounds, inclusive; the first column's are narrowed per range.
  std::vector<Value> lo(k, 0), hi(k);
  for (uint32_t d = 0; d < k; ++d) {
    hi[d] = static_cast<Value>(std::max<uint64_t>(bounds_[d], 1) - 1);
  }

  std::vector<std::vector<Value>> sorted(partitions_);
  std::atomic<bool> stopped{false};
  ParallelForDynamic(static_cast<int>(workers_), partitions_, /*grain=*/1,
                     [&](size_t p0, size_t p1, int) {
    std::vector<std::vector<Value>*> runs(workers_);
    std::vector<Value> range_lo = lo, range_hi = hi;
    for (size_t p = p0; p < p1; ++p) {
      bool empty = true;
      for (size_t w = 0; w < workers_; ++w) {
        runs[w] = &buckets_[w * partitions_ + p];
        empty = empty && runs[w]->empty();
      }
      if (empty) continue;
      if (stopped.load(std::memory_order_relaxed) ||
          (stop != nullptr && stop())) {
        stopped.store(true, std::memory_order_relaxed);
        for (std::vector<Value>* run : runs) std::vector<Value>().swap(*run);
        continue;
      }
      range_lo[0] = static_cast<Value>(p << shift_);
      range_hi[0] = static_cast<Value>(
          std::min<uint64_t>(bounds_[0], uint64_t{p + 1} << shift_) - 1);
      sorted[p] = SortRuns(runs, KeyLayout(k, range_lo, range_hi));
    }
  });

  std::vector<size_t> offset(partitions_ + 1, 0);
  for (size_t p = 0; p < partitions_; ++p) {
    offset[p + 1] = offset[p] + sorted[p].size();
  }
  std::vector<Value> flat(offset[partitions_]);
  ParallelFor(static_cast<int>(workers_), partitions_,
              [&](size_t p0, size_t p1, int w) {
    for (size_t p = p0; p < p1; ++p) {
      std::copy(sorted[p].begin(), sorted[p].end(),
                flat.begin() + static_cast<std::ptrdiff_t>(offset[p]));
      std::vector<Value>().swap(sorted[p]);
    }
    if (deliver != nullptr && offset[p1] > offset[p0]) {
      deliver(w, {flat.data() + offset[p0], offset[p1] - offset[p0]});
    }
  });
  return TupleBuffer(k, std::move(flat));
}

namespace {

// Enumerates the per-y cartesian products for y in [y0, y1) into worker
// w's buckets of out.
void EnumerateRange(const std::vector<const IndexedRelation*>& rels,
                    const StarTupleFilter& filter,
                    const std::function<bool(Value)>& y_filter, Value y0,
                    Value y1, int w, PartitionedTuples* out) {
  const auto k = static_cast<uint32_t>(rels.size());
  std::vector<std::vector<Value>> lists(k);
  std::vector<Value> tuple(k);
  for (Value b = y0; b < y1; ++b) {
    if (y_filter != nullptr && !y_filter(b)) continue;
    bool empty = false;
    for (uint32_t i = 0; i < k; ++i) {
      lists[i].clear();
      for (Value a : rels[i]->XsOf(b)) {
        if (filter == nullptr || filter(i, a, b)) lists[i].push_back(a);
      }
      if (lists[i].empty()) {
        empty = true;
        break;
      }
    }
    if (empty) continue;

    // Odometer over the k lists: emits the cartesian product.
    std::vector<size_t> pos(k, 0);
    for (uint32_t i = 0; i < k; ++i) tuple[i] = lists[i][0];
    for (;;) {
      out->Add(w, tuple);
      uint32_t dim = k;
      bool done = false;
      while (dim > 0) {
        --dim;
        if (++pos[dim] < lists[dim].size()) {
          tuple[dim] = lists[dim][pos[dim]];
          break;
        }
        pos[dim] = 0;
        tuple[dim] = lists[dim][0];
        if (dim == 0) {
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
}

}  // namespace

std::vector<uint64_t> StarColumnBounds(
    const std::vector<const IndexedRelation*>& rels) {
  std::vector<uint64_t> bounds;
  for (const IndexedRelation* rel : rels) bounds.push_back(rel->num_x());
  return bounds;
}

void StarJoinEnumerate(const std::vector<const IndexedRelation*>& rels,
                       const StarTupleFilter& filter,
                       const std::function<bool(Value)>& y_filter,
                       int threads, PartitionedTuples* out) {
  JPMM_CHECK(!rels.empty());
  JPMM_CHECK(out->arity() == rels.size());
  Value ny = std::numeric_limits<Value>::max();
  for (const auto* rel : rels) ny = std::min(ny, rel->num_y());
  if (ny == std::numeric_limits<Value>::max()) ny = 0;
  ParallelFor(threads, ny, [&](size_t y0, size_t y1, int w) {
    EnumerateRange(rels, filter, y_filter, static_cast<Value>(y0),
                   static_cast<Value>(y1), w, out);
  });
}

TupleBuffer StarJoinProjectWcoj(
    const std::vector<const IndexedRelation*>& rels,
    const StarTupleFilter& filter,
    const std::function<bool(Value)>& y_filter, int threads) {
  JPMM_CHECK(!rels.empty());
  threads = std::max(1, threads);
  PartitionedTuples parts(threads, StarColumnBounds(rels));
  StarJoinEnumerate(rels, filter, y_filter, threads, &parts);
  return parts.SortUnique();
}

uint64_t FullStarJoinSize(const std::vector<const IndexedRelation*>& rels) {
  JPMM_CHECK(!rels.empty());
  Value ny = std::numeric_limits<Value>::max();
  for (const auto* rel : rels) ny = std::min(ny, rel->num_y());
  uint64_t total = 0;
  for (Value b = 0; b < ny; ++b) {
    uint64_t prod = 1;
    for (const auto* rel : rels) {
      prod *= rel->DegY(b);
      if (prod == 0) break;
    }
    total += prod;
  }
  return total;
}

}  // namespace jpmm
