#include "core/result_sink.h"

#include <algorithm>
#include <utility>

namespace jpmm {

void ResultSink::Shard::OnPairs(std::span<const OutPair> ps) {
  for (const OutPair& p : ps) OnPair(p);
}

void ResultSink::Shard::OnCountedPairs(std::span<const CountedPair> ps) {
  for (const CountedPair& p : ps) OnCountedPair(p);
}

void ResultSink::Shard::OnTuples(std::span<const Value> flat, uint32_t arity) {
  for (size_t i = 0; i < flat.size(); i += arity) {
    OnTuple(flat.subspan(i, arity));
  }
}

// ---- VectorSink ----------------------------------------------------------

VectorSink::VectorSink() = default;
VectorSink::~VectorSink() = default;

struct VectorSink::VectorShard : ResultSink::Shard {
  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;
  std::vector<Value> tuple_data;
  uint32_t tuple_arity = 0;

  void OnPair(const OutPair& p) override { pairs.push_back(p); }
  void OnCountedPair(const CountedPair& p) override { counted.push_back(p); }
  void OnTuple(std::span<const Value> tuple) override {
    tuple_arity = static_cast<uint32_t>(tuple.size());
    tuple_data.insert(tuple_data.end(), tuple.begin(), tuple.end());
  }
  void OnPairs(std::span<const OutPair> ps) override {
    pairs.insert(pairs.end(), ps.begin(), ps.end());
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    counted.insert(counted.end(), ps.begin(), ps.end());
  }
  void OnTuples(std::span<const Value> flat, uint32_t arity) override {
    tuple_arity = arity;
    tuple_data.insert(tuple_data.end(), flat.begin(), flat.end());
  }
};

void VectorSink::Open(int num_shards) {
  shards_.clear();
  pairs_.clear();
  counted_.clear();
  tuple_data_.clear();
  tuple_arity_ = 0;
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<VectorShard>());
  }
}

ResultSink::Shard& VectorSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void VectorSink::Finish() {
  size_t np = 0, nc = 0, nt = 0;
  for (const auto& s : shards_) {
    np += s->pairs.size();
    nc += s->counted.size();
    nt += s->tuple_data.size();
    if (s->tuple_arity != 0) tuple_arity_ = s->tuple_arity;
  }
  pairs_.reserve(pairs_.size() + np);
  counted_.reserve(counted_.size() + nc);
  tuple_data_.reserve(tuple_data_.size() + nt);
  for (auto& s : shards_) {
    pairs_.insert(pairs_.end(), s->pairs.begin(), s->pairs.end());
    counted_.insert(counted_.end(), s->counted.begin(), s->counted.end());
    tuple_data_.insert(tuple_data_.end(), s->tuple_data.begin(),
                       s->tuple_data.end());
  }
  shards_.clear();
}

// ---- CountOnlySink -------------------------------------------------------

CountOnlySink::CountOnlySink() = default;
CountOnlySink::~CountOnlySink() = default;

struct CountOnlySink::CountShard : ResultSink::Shard {
  // Written only by the owning worker, so a relaxed load + store is an
  // exact increment; the atomic just keeps count() readers race-free.
  std::atomic<uint64_t> n{0};

  void Add(uint64_t k) {
    n.store(n.load(std::memory_order_relaxed) + k, std::memory_order_relaxed);
  }
  void OnPair(const OutPair&) override { Add(1); }
  void OnCountedPair(const CountedPair&) override { Add(1); }
  void OnTuple(std::span<const Value>) override { Add(1); }
  void OnPairs(std::span<const OutPair> ps) override { Add(ps.size()); }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    Add(ps.size());
  }
  void OnTuples(std::span<const Value> flat, uint32_t arity) override {
    Add(flat.size() / arity);
  }
};

void CountOnlySink::Open(int num_shards) {
  shards_.clear();
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<CountShard>());
  }
}

ResultSink::Shard& CountOnlySink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

uint64_t CountOnlySink::count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->n.load(std::memory_order_relaxed);
  return total;
}

// ---- PageSink / LimitSink ------------------------------------------------

namespace {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a > ~uint64_t{0} - b ? ~uint64_t{0} : a + b;
}

}  // namespace

PageSink::PageSink(uint64_t offset, uint64_t limit)
    : offset_(offset), end_(SaturatingAdd(offset, limit)) {}
PageSink::~PageSink() = default;

struct PageSink::PageShard : ResultSink::Shard {
  PageShard(std::atomic<uint64_t>* accepted, uint64_t offset, uint64_t end)
      : accepted_(accepted), offset_(offset), end_(end) {}

  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;
  std::vector<Value> tuple_data;
  uint32_t tuple_arity = 0;

  // Claims the next n result slots with one fetch_add and returns the
  // part [lo, hi) of the delivery that lands in the page: slots below
  // offset are skipped, slots at or past end are dropped. A full page is
  // seen with a relaxed load, so late deliveries leave the line alone.
  std::pair<size_t, size_t> Claim(size_t n) {
    if (accepted_->load(std::memory_order_relaxed) >= end_) return {0, 0};
    const uint64_t first = accepted_->fetch_add(n, std::memory_order_relaxed);
    auto below = [&](uint64_t bound) {
      return static_cast<size_t>(
          std::min<uint64_t>(n, bound - std::min(first, bound)));
    };
    return {below(offset_), below(end_)};
  }
  // The scalar calls stay direct: the WCOJ and light-pass emit loops
  // deliver one pair at a time, and routing them through the span
  // overloads measurably slowed LIMIT/page queries.
  bool ClaimOne() {
    const auto [lo, hi] = Claim(1);
    return lo < hi;
  }

  void OnPair(const OutPair& p) override {
    if (ClaimOne()) pairs.push_back(p);
  }
  void OnCountedPair(const CountedPair& p) override {
    if (ClaimOne()) counted.push_back(p);
  }
  void OnTuple(std::span<const Value> tuple) override {
    if (ClaimOne()) {
      tuple_arity = static_cast<uint32_t>(tuple.size());
      tuple_data.insert(tuple_data.end(), tuple.begin(), tuple.end());
    }
  }
  void OnPairs(std::span<const OutPair> ps) override {
    const auto [lo, hi] = Claim(ps.size());
    pairs.insert(pairs.end(), ps.begin() + lo, ps.begin() + hi);
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    const auto [lo, hi] = Claim(ps.size());
    counted.insert(counted.end(), ps.begin() + lo, ps.begin() + hi);
  }
  void OnTuples(std::span<const Value> flat, uint32_t arity) override {
    const auto [lo, hi] = Claim(flat.size() / arity);
    if (lo == hi) return;
    tuple_arity = arity;
    tuple_data.insert(tuple_data.end(), flat.begin() + lo * arity,
                      flat.begin() + hi * arity);
  }

 private:
  std::atomic<uint64_t>* accepted_;
  const uint64_t offset_;
  const uint64_t end_;
};

void PageSink::Open(int num_shards) {
  shards_.clear();
  pairs_.clear();
  counted_.clear();
  tuple_data_.clear();
  tuple_arity_ = 0;
  accepted_.store(0, std::memory_order_relaxed);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<PageShard>(&accepted_, offset_, end_));
  }
}

ResultSink::Shard& PageSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void PageSink::Finish() {
  for (auto& s : shards_) {
    pairs_.insert(pairs_.end(), s->pairs.begin(), s->pairs.end());
    counted_.insert(counted_.end(), s->counted.begin(), s->counted.end());
    tuple_data_.insert(tuple_data_.end(), s->tuple_data.begin(),
                       s->tuple_data.end());
    if (s->tuple_arity != 0) tuple_arity_ = s->tuple_arity;
  }
  shards_.clear();
}

// ---- TopKByCountSink -----------------------------------------------------

namespace {

// Heap/order comparator: "a ranks above b" in the final output. Count
// descending, ties (x, z) ascending — a strict total order, so the top-k
// set is unique and the result deterministic at every thread count.
bool RanksAbove(const CountedPair& a, const CountedPair& b) {
  if (a.count != b.count) return a.count > b.count;
  if (a.x != b.x) return a.x < b.x;
  return a.z < b.z;
}

}  // namespace

TopKByCountSink::TopKByCountSink(size_t k) : k_(k) {}
TopKByCountSink::~TopKByCountSink() = default;

struct TopKByCountSink::TopKShard : ResultSink::Shard {
  explicit TopKShard(size_t k) : k_(k) {}

  // Min-heap on the ranking: heap[0] is the weakest kept pair.
  std::vector<CountedPair> heap;

  void OnPair(const OutPair& p) override {
    // A non-counted query gives every pair implicit weight 1; the ranking
    // degenerates to the k smallest (x, z) pairs — still deterministic,
    // and a service passing the wrong spec keeps running instead of
    // aborting (ask for count_witnesses to get a meaningful top-k).
    OnCountedPair(CountedPair{p.x, p.z, 1});
  }
  void OnCountedPair(const CountedPair& p) override {
    auto weaker = [](const CountedPair& a, const CountedPair& b) {
      return RanksAbove(a, b);  // std heap: "less" = further from the top
    };
    if (heap.size() < k_) {
      heap.push_back(p);
      std::push_heap(heap.begin(), heap.end(), weaker);
    } else if (!heap.empty() && RanksAbove(p, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), weaker);
      heap.back() = p;
      std::push_heap(heap.begin(), heap.end(), weaker);
    }
  }

 private:
  const size_t k_;
};

void TopKByCountSink::Open(int num_shards) {
  shards_.clear();
  top_.clear();
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<TopKShard>(k_));
  }
}

ResultSink::Shard& TopKByCountSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void TopKByCountSink::Finish() {
  std::vector<CountedPair> all;
  for (auto& s : shards_) {
    all.insert(all.end(), s->heap.begin(), s->heap.end());
  }
  std::sort(all.begin(), all.end(), RanksAbove);
  if (all.size() > k_) all.resize(k_);
  top_ = std::move(all);
  shards_.clear();
}

// ---- OrderedBySink -------------------------------------------------------

namespace {

// "a ranks above b" under the chosen order. Both orders are strict total
// orders over distinct (x, z) pairs, so ranked output is deterministic.
bool OrderedRanksAbove(ResultOrder order, const CountedPair& a,
                       const CountedPair& b) {
  if (order == ResultOrder::kCountDescending) return RanksAbove(a, b);
  if (a.x != b.x) return a.x < b.x;
  return a.z < b.z;
}

}  // namespace

const char* ResultOrderName(ResultOrder o) {
  switch (o) {
    case ResultOrder::kXzAscending:
      return "xz-ascending";
    case ResultOrder::kCountDescending:
      return "count-descending";
  }
  return "?";
}

OrderedBySink::OrderedBySink(ResultOrder order, uint64_t limit)
    : order_(order), limit_(limit) {}
OrderedBySink::~OrderedBySink() = default;

struct OrderedBySink::OrderedShard : ResultSink::Shard {
  OrderedShard(ResultOrder order, uint64_t limit)
      : order_(order), limit_(limit) {}

  // Unbounded: a plain run, sorted once at Finish(). Bounded: a min-heap
  // on the ranking (run[0] = weakest kept), so the shard never holds more
  // than `limit` results.
  std::vector<CountedPair> run;

  void OnPair(const OutPair& p) override {
    OnCountedPair(CountedPair{p.x, p.z, 1});
  }
  void OnCountedPair(const CountedPair& p) override {
    if (limit_ == kNoLimit) {
      run.push_back(p);
      return;
    }
    auto weaker = [this](const CountedPair& a, const CountedPair& b) {
      return OrderedRanksAbove(order_, a, b);
    };
    if (run.size() < limit_) {
      run.push_back(p);
      std::push_heap(run.begin(), run.end(), weaker);
    } else if (!run.empty() && OrderedRanksAbove(order_, p, run.front())) {
      std::pop_heap(run.begin(), run.end(), weaker);
      run.back() = p;
      std::push_heap(run.begin(), run.end(), weaker);
    }
  }

 private:
  const ResultOrder order_;
  const uint64_t limit_;
};

void OrderedBySink::Open(int num_shards) {
  shards_.clear();
  ranked_.clear();
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<OrderedShard>(order_, limit_));
  }
}

ResultSink::Shard& OrderedBySink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void OrderedBySink::Finish() {
  auto above = [this](const CountedPair& a, const CountedPair& b) {
    return OrderedRanksAbove(order_, a, b);
  };
  // Sort each shard run, then merge with one cursor per shard: the buffer
  // beyond the sorted runs themselves is O(shards), and delivery streams
  // in rank order as the merge advances.
  size_t total = 0;
  for (auto& s : shards_) {
    std::sort(s->run.begin(), s->run.end(), above);
    total += s->run.size();
  }
  std::vector<size_t> cursor(shards_.size(), 0);
  const uint64_t want = std::min<uint64_t>(total, limit_);
  ranked_.reserve(static_cast<size_t>(want));
  while (ranked_.size() < want) {
    size_t best = shards_.size();
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (cursor[i] >= shards_[i]->run.size()) continue;
      if (best == shards_.size() ||
          above(shards_[i]->run[cursor[i]], shards_[best]->run[cursor[best]])) {
        best = i;
      }
    }
    if (best == shards_.size()) break;
    const CountedPair& next = shards_[best]->run[cursor[best]++];
    ranked_.push_back(next);
    if (on_result_) on_result_(next);
  }
  shards_.clear();
}

// ---- FanoutSink ----------------------------------------------------------

FanoutSink::FanoutSink() = default;
FanoutSink::~FanoutSink() = default;

struct FanoutSink::FanShard : ResultSink::Shard {
  // (owning sink, its shard): the sink pointer is polled for done() before
  // every forward so a satisfied target (limit/page reached) stops paying
  // for delivery while the shared pass keeps running for the others.
  std::vector<std::pair<ResultSink*, ResultSink::Shard*>> targets;
  std::vector<ResultSink::Shard*> taps;
  uint64_t forwarded = 0;  // summed into FanoutSink::forwarded_ at Finish()

  // Scalar emissions are buffered and forwarded as spans. Without this,
  // a strategy that emits pair-by-pair (the mm-join emit loops do) would
  // pay one virtual dispatch per pair PER TARGET — O(targets x results),
  // which erases exactly the work-sharing the fan-out exists for. The
  // done() vote consequently moves to flush granularity, the same chunk
  // granularity at which the engine itself polls the sink.
  static constexpr size_t kFlushAt = 1024;
  std::vector<OutPair> pair_buf;
  std::vector<CountedPair> counted_buf;

  void ForwardPairs(std::span<const OutPair> ps) {
    uint64_t n = 0;
    for (const auto& [sink, sh] : targets) {
      if (!sink->done()) {
        sh->OnPairs(ps);
        n += ps.size();
      }
    }
    for (Shard* sh : taps) sh->OnPairs(ps);
    forwarded += n;
  }
  void ForwardCounted(std::span<const CountedPair> ps) {
    uint64_t n = 0;
    for (const auto& [sink, sh] : targets) {
      if (!sink->done()) {
        sh->OnCountedPairs(ps);
        n += ps.size();
      }
    }
    for (Shard* sh : taps) sh->OnCountedPairs(ps);
    forwarded += n;
  }
  void Flush() {
    if (!pair_buf.empty()) {
      ForwardPairs(pair_buf);
      pair_buf.clear();
    }
    if (!counted_buf.empty()) {
      ForwardCounted(counted_buf);
      counted_buf.clear();
    }
  }

  void OnPair(const OutPair& p) override {
    if (!counted_buf.empty()) Flush();  // preserve cross-kind order
    pair_buf.push_back(p);
    if (pair_buf.size() >= kFlushAt) Flush();
  }
  void OnCountedPair(const CountedPair& p) override {
    if (!pair_buf.empty()) Flush();
    counted_buf.push_back(p);
    if (counted_buf.size() >= kFlushAt) Flush();
  }
  void OnTuple(std::span<const Value> tuple) override {
    OnTuples(tuple, static_cast<uint32_t>(tuple.size()));
  }
  void OnTuples(std::span<const Value> flat, uint32_t arity) override {
    Flush();
    uint64_t n = 0;
    for (const auto& [sink, sh] : targets) {
      if (!sink->done()) {
        sh->OnTuples(flat, arity);
        n += flat.size() / arity;
      }
    }
    for (Shard* sh : taps) sh->OnTuples(flat, arity);
    forwarded += n;
  }
  void OnPairs(std::span<const OutPair> ps) override {
    Flush();
    ForwardPairs(ps);
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    Flush();
    ForwardCounted(ps);
  }
};

void FanoutSink::AddTarget(ResultSink* sink) { targets_.push_back(sink); }
void FanoutSink::AddTap(ResultSink* sink) { taps_.push_back(sink); }

void FanoutSink::Open(int num_shards) {
  forwarded_ = 0;
  for (ResultSink* t : targets_) t->Open(num_shards);
  for (ResultSink* t : taps_) t->Open(num_shards);
  shards_.clear();
  for (int w = 0; w < num_shards; ++w) {
    auto sh = std::make_unique<FanShard>();
    for (ResultSink* t : targets_) sh->targets.emplace_back(t, &t->shard(w));
    for (ResultSink* t : taps_) sh->taps.push_back(&t->shard(w));
    shards_.push_back(std::move(sh));
  }
}

ResultSink::Shard& FanoutSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

bool FanoutSink::done() const {
  if (targets_.empty()) return false;
  for (const ResultSink* t : targets_) {
    if (!t->done()) return false;
  }
  return true;
}

bool FanoutSink::may_finish_early() const {
  for (const ResultSink* t : targets_) {
    if (!t->may_finish_early()) return false;
  }
  return !targets_.empty();
}

bool FanoutSink::supports_tuples() const {
  for (const ResultSink* t : targets_) {
    if (!t->supports_tuples()) return false;
  }
  for (const ResultSink* t : taps_) {
    if (!t->supports_tuples()) return false;
  }
  return true;
}

void FanoutSink::Finish() {
  for (auto& sh : shards_) {
    sh->Flush();  // drain the scalar buffers first
    forwarded_ += sh->forwarded;
  }
  for (ResultSink* t : targets_) t->Finish();
  for (ResultSink* t : taps_) t->Finish();
  shards_.clear();
}

// ---- RecordingSink -------------------------------------------------------

RecordingSink::RecordingSink(uint64_t max_bytes) : max_bytes_(max_bytes) {}
RecordingSink::~RecordingSink() = default;

struct RecordingSink::RecordShard : ResultSink::Shard {
  std::vector<OutPair> pairs;
  std::vector<CountedPair> counted;
  std::vector<Value> tuple_data;
  uint32_t tuple_arity = 0;
  uint64_t max_bytes = 0;
  std::atomic<uint64_t>* bytes = nullptr;
  std::atomic<bool>* overflowed = nullptr;

  // One shared budget across shards: charge first, store only if the
  // whole charge fit. Once over, the sink is permanently overflowed and
  // further results are dropped (the capture is discarded anyway).
  bool Charge(uint64_t sz) {
    if (overflowed->load(std::memory_order_relaxed)) return false;
    if (bytes->fetch_add(sz, std::memory_order_relaxed) + sz > max_bytes) {
      overflowed->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  void OnPair(const OutPair& p) override {
    if (Charge(sizeof(OutPair))) pairs.push_back(p);
  }
  void OnCountedPair(const CountedPair& p) override {
    if (Charge(sizeof(CountedPair))) counted.push_back(p);
  }
  void OnTuple(std::span<const Value> tuple) override {
    OnTuples(tuple, static_cast<uint32_t>(tuple.size()));
  }
  void OnTuples(std::span<const Value> flat, uint32_t arity) override {
    if (Charge(flat.size() * sizeof(Value))) {
      tuple_arity = arity;
      tuple_data.insert(tuple_data.end(), flat.begin(), flat.end());
    }
  }
  void OnPairs(std::span<const OutPair> ps) override {
    if (Charge(ps.size() * sizeof(OutPair))) {
      pairs.insert(pairs.end(), ps.begin(), ps.end());
    }
  }
  void OnCountedPairs(std::span<const CountedPair> ps) override {
    if (Charge(ps.size() * sizeof(CountedPair))) {
      counted.insert(counted.end(), ps.begin(), ps.end());
    }
  }
};

void RecordingSink::Open(int num_shards) {
  shards_.clear();
  pairs_.clear();
  counted_.clear();
  tuple_data_.clear();
  tuple_arity_ = 0;
  bytes_.store(0, std::memory_order_relaxed);
  overflowed_.store(false, std::memory_order_relaxed);
  for (int i = 0; i < num_shards; ++i) {
    auto sh = std::make_unique<RecordShard>();
    sh->max_bytes = max_bytes_;
    sh->bytes = &bytes_;
    sh->overflowed = &overflowed_;
    shards_.push_back(std::move(sh));
  }
}

ResultSink::Shard& RecordingSink::shard(int w) {
  return *shards_[static_cast<size_t>(w)];
}

void RecordingSink::Finish() {
  for (auto& s : shards_) {
    pairs_.insert(pairs_.end(), s->pairs.begin(), s->pairs.end());
    counted_.insert(counted_.end(), s->counted.begin(), s->counted.end());
    tuple_data_.insert(tuple_data_.end(), s->tuple_data.begin(),
                       s->tuple_data.end());
    if (s->tuple_arity != 0) tuple_arity_ = s->tuple_arity;
  }
  shards_.clear();
}

}  // namespace jpmm
