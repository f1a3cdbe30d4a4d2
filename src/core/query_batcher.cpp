#include "core/query_batcher.h"

#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/metrics.h"

namespace jpmm {

namespace {

struct BatchMetrics {
  Counter& groups;
  Counter& leader_executions;
  Counter& follower_joins;
  Counter& detaches;
  Counter& promotions;
  Counter& fanout_results;
  Histogram& window_wait_ms;
  Histogram& group_size;

  static BatchMetrics& Get() {
    static BatchMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return BatchMetrics{
          reg.GetCounter("jpmm_batch_groups_total"),
          reg.GetCounter("jpmm_batch_leader_executions_total"),
          reg.GetCounter("jpmm_batch_follower_joins_total"),
          reg.GetCounter("jpmm_batch_detaches_total"),
          reg.GetCounter("jpmm_batch_leader_promotions_total"),
          reg.GetCounter("jpmm_batch_fanout_results_total"),
          reg.GetHistogram("jpmm_batch_window_wait_ms",
                           DefaultLatencyBoundsMs()),
          reg.GetHistogram("jpmm_batch_group_size",
                           ExponentialBounds(1.0, 2.0, 8)),
      };
    }();
    return m;
  }
};

struct CacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& insertions;
  Counter& evictions;
  Counter& invalidations;
  Gauge& bytes;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return CacheMetrics{
          reg.GetCounter("jpmm_cache_hits_total"),
          reg.GetCounter("jpmm_cache_misses_total"),
          reg.GetCounter("jpmm_cache_insertions_total"),
          reg.GetCounter("jpmm_cache_evictions_total"),
          reg.GetCounter("jpmm_cache_invalidations_total"),
          reg.GetGauge("jpmm_cache_bytes"),
      };
    }();
    return m;
  }
};

bool TokenFired(const CancelToken* token) {
  return token != nullptr && token->Fired();
}

}  // namespace

size_t BatchKeyHash::operator()(const BatchKey& k) const {
  size_t h = static_cast<size_t>(k.catalog_version);
  HashCombine(&h, k.spec_fingerprint);
  return h;
}

// ---- QueryBatcher ---------------------------------------------------------

struct QueryBatcher::Group {
  // State machine (all transitions under mu):
  //   kOpen ──window elapses──────────────▶ kRunning ──run returns──▶ kDone
  //     │                                      ▲
  //     └─leader token fires, live followers──▶ kNeedLeader ─claim──┘
  //     └─leader token fires, none live───────▶ kAbandoned
  //         (also: last live follower detaches in kNeedLeader)
  enum class State : uint8_t { kOpen, kRunning, kNeedLeader, kDone, kAbandoned };

  struct Member {
    ResultSink* sink;
    bool active;  // false once this member detached (token fired pre-close)
  };

  std::mutex mu;
  std::condition_variable cv;
  State state = State::kOpen;
  std::vector<Member> members;  // [0] is the opening leader
  // Published by whoever runs, read by every follower after kDone.
  QueryStatus status;
  ExecStats stats;          // trace_spans cleared before publish
  uint32_t group_size = 1;  // client sinks served by the shared pass
};

QueryBatcher::QueryBatcher(Options options) : options_(options) {}

QueryBatcher::Result QueryBatcher::Execute(const BatchKey& key,
                                           ResultSink* sink, ResultSink* tap,
                                           const CancelToken* token,
                                           const RunFn& run, ExecStats* stats,
                                           TraceRecorder* trace,
                                           int32_t trace_parent) {
  std::shared_ptr<Group> g;
  size_t my_index = 0;
  bool opened_group = false;
  {
    std::unique_lock<std::mutex> map_lock(mu_);
    auto it = open_.find(key);
    if (it != open_.end()) {
      // Invariant: a group reachable through open_ is still kOpen — the
      // leader erases the map entry (under mu_) before any transition
      // (under the group mutex), and a joiner holding both locks blocks
      // both steps. Checked anyway so a future reordering fails safe.
      std::lock_guard<std::mutex> gl(it->second->mu);
      if (it->second->state == Group::State::kOpen) {
        g = it->second;
        my_index = g->members.size();
        g->members.push_back({sink, true});
      }
    }
    if (g == nullptr) {
      g = std::make_shared<Group>();
      g->members.push_back({sink, true});
      open_[key] = g;
      opened_group = true;
    }
  }

  const bool metrics = MetricsEnabled();

  if (opened_group) {
    // Leader: hold the batch window so concurrent identical requests can
    // join, polling the token so a deadline never burns the whole window.
    TraceRecorder::SpanId wait_span =
        TraceBegin(trace, "batch-wait", trace_parent);
    const auto t0 = std::chrono::steady_clock::now();
    const auto close_at = t0 + std::chrono::milliseconds(options_.window_ms);
    while (!TokenFired(token)) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= close_at) break;
      const auto remaining = close_at - now;
      std::this_thread::sleep_for(
          std::min<std::chrono::steady_clock::duration>(
              remaining, std::chrono::microseconds(500)));
    }
    if (metrics) {
      BatchMetrics::Get().window_wait_ms.Record(
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }

    // Close the group: unpublish from the map first so late arrivals open
    // a fresh group instead of joining a closing one.
    {
      std::lock_guard<std::mutex> map_lock(mu_);
      auto it = open_.find(key);
      if (it != open_.end() && it->second == g) open_.erase(it);
    }

    std::vector<ResultSink*> targets;
    {
      std::unique_lock<std::mutex> gl(g->mu);
      if (TokenFired(token)) {
        // The opener's deadline fired during the window. Hand leadership
        // to a live follower rather than stranding the group.
        g->members[0].active = false;
        bool any_live = false;
        for (const Group::Member& m : g->members) any_live |= m.active;
        g->state =
            any_live ? Group::State::kNeedLeader : Group::State::kAbandoned;
        const uint32_t seen = static_cast<uint32_t>(g->members.size());
        g->cv.notify_all();
        gl.unlock();
        TraceEnd(trace, wait_span, "detached");
        if (metrics) BatchMetrics::Get().detaches.Add();
        return {Role::kDetached, QueryStatus::Ok(), seen};
      }
      g->state = Group::State::kRunning;
      for (const Group::Member& m : g->members)
        if (m.active) targets.push_back(m.sink);
      g->group_size = static_cast<uint32_t>(targets.size());
      // Wake followers so they move from the 1ms token-poll cadence to the
      // long kRunning wait (they can no longer detach anyway).
      g->cv.notify_all();
    }
    TraceEnd(trace, wait_span,
             "leader group=" + std::to_string(targets.size()));
    return RunAsLeader(g, targets, tap, run, stats);
  }

  // Follower: wait for delivery — or for a leadership handoff.
  if (metrics) BatchMetrics::Get().follower_joins.Add();
  TraceRecorder::SpanId wait_span =
      TraceBegin(trace, "batch-wait", trace_parent);
  std::unique_lock<std::mutex> gl(g->mu);
  for (;;) {
    switch (g->state) {
      case Group::State::kDone: {
        *stats = g->stats;  // trace_spans already cleared by the publisher
        stats->batched = true;
        stats->batch_leader = false;
        stats->batch_follower = true;
        stats->batch_group_size = g->group_size;
        Result r{Role::kFollower, g->status, g->group_size};
        gl.unlock();
        TraceEnd(trace, wait_span, "delivered");
        return r;
      }
      case Group::State::kAbandoned: {
        gl.unlock();
        TraceEnd(trace, wait_span, "abandoned");
        if (metrics) BatchMetrics::Get().detaches.Add();
        return {Role::kDetached, QueryStatus::Ok(), 1};
      }
      case Group::State::kNeedLeader: {
        if (TokenFired(token)) {
          g->members[my_index].active = false;
          bool any_live = false;
          for (const Group::Member& m : g->members) any_live |= m.active;
          if (!any_live) g->state = Group::State::kAbandoned;
          g->cv.notify_all();
          gl.unlock();
          TraceEnd(trace, wait_span, "detached");
          if (metrics) BatchMetrics::Get().detaches.Add();
          return {Role::kDetached, QueryStatus::Ok(), 1};
        }
        // Claim leadership: run the pass ourselves for every live member.
        std::vector<ResultSink*> targets;
        g->state = Group::State::kRunning;
        for (const Group::Member& m : g->members)
          if (m.active) targets.push_back(m.sink);
        g->group_size = static_cast<uint32_t>(targets.size());
        g->cv.notify_all();
        gl.unlock();
        TraceEnd(trace, wait_span,
                 "promoted group=" + std::to_string(targets.size()));
        if (metrics) BatchMetrics::Get().promotions.Add();
        return RunAsLeader(g, targets, tap, run, stats);
      }
      case Group::State::kOpen: {
        if (TokenFired(token)) {
          // Safe to detach only while the group is still open: the leader
          // has not snapshotted sinks yet, so ours is cleanly excluded.
          g->members[my_index].active = false;
          gl.unlock();
          TraceEnd(trace, wait_span, "detached");
          if (metrics) BatchMetrics::Get().detaches.Add();
          return {Role::kDetached, QueryStatus::Ok(), 1};
        }
        break;
      }
      case Group::State::kRunning:
        // Too late to detach (the fan-out may hold our sink); delivery of
        // the full result set makes the wait benign even if our token
        // fires — the service maps the outcome afterwards.
        break;
    }
    // Wait cadence matters on small machines: while the group is kOpen the
    // token must be live-polled (detach is still legal), but once it is
    // kRunning the ONLY useful wake-up is the leader's publish — a pack of
    // followers polling every 1ms would starve the leader's execution on a
    // one-core box. The state transitions all notify, so the long wait is a
    // backstop, not the delivery mechanism.
    g->cv.wait_for(gl, g->state == Group::State::kOpen
                           ? std::chrono::milliseconds(1)
                           : std::chrono::milliseconds(50));
  }
}

QueryBatcher::Result QueryBatcher::RunAsLeader(
    const std::shared_ptr<Group>& g, const std::vector<ResultSink*>& targets,
    ResultSink* tap, const RunFn& run, ExecStats* stats) {
  groups_run_.fetch_add(1, std::memory_order_relaxed);
  const bool metrics = MetricsEnabled();
  if (metrics) {
    BatchMetrics::Get().groups.Add();
    BatchMetrics::Get().leader_executions.Add();
    BatchMetrics::Get().group_size.Record(
        static_cast<double>(targets.size()));
  }

  const uint32_t n = static_cast<uint32_t>(targets.size());
  QueryStatus st;
  if (n == 1 && tap == nullptr) {
    // Degraded to solo: every other member detached during the window (or
    // none joined). No fan-out layer, no batch flags — indistinguishable
    // from an unbatched execution, as documented.
    st = run(*targets[0], stats);
  } else {
    FanoutSink fan;
    for (ResultSink* t : targets) fan.AddTarget(t);
    if (tap != nullptr) fan.AddTap(tap);
    st = run(fan, stats);
    if (metrics)
      BatchMetrics::Get().fanout_results.Add(fan.results_forwarded());
    if (n > 1) {
      stats->batched = true;
      stats->batch_leader = true;
      stats->batch_follower = false;
      stats->batch_group_size = n;
    }
  }

  {
    std::lock_guard<std::mutex> gl(g->mu);
    g->status = st;
    g->stats = *stats;
    g->stats.trace_spans.clear();  // follower copies must not alias the
                                   // leader's recorder-relative span tree
    g->state = Group::State::kDone;
    g->cv.notify_all();
  }
  return {Role::kLeader, st, n};
}

// ---- ResultCache ----------------------------------------------------------

ResultCache::ResultCache(Options options) : options_(options) {}

bool ResultCache::Replay(const BatchKey& key, ResultSink& sink,
                         ExecStats* stats, TraceRecorder* trace,
                         int32_t trace_parent) {
  const bool metrics = MetricsEnabled();
  std::shared_ptr<const Entry> e;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      e = it->second.entry;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
  }
  if (e == nullptr ||
      (!e->tuple_data.empty() && !sink.supports_tuples())) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (metrics) CacheMetrics::Get().misses.Add();
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (metrics) CacheMetrics::Get().hits.Add();

  const auto t0 = std::chrono::steady_clock::now();
  TraceRecorder::SpanId span = TraceBegin(trace, "fanout-emit", trace_parent);
  *stats = e->stats;  // entry stats were stored with trace_spans cleared
  stats->result_cache_hit = true;

  if (e->deliver_payload) {
    // Replay through the normal sink contract: the caller's limit/page/
    // top-k semantics apply exactly as they would against live execution,
    // including chunk-granular early exit via done().
    constexpr size_t kChunk = 4096;
    sink.Open(1);
    ResultSink::Shard& sh = sink.shard(0);
    for (size_t i = 0; i < e->pairs.size() && !sink.done(); i += kChunk) {
      const size_t n = std::min(kChunk, e->pairs.size() - i);
      sh.OnPairs(std::span<const OutPair>(e->pairs.data() + i, n));
    }
    for (size_t i = 0; i < e->counted.size() && !sink.done(); i += kChunk) {
      const size_t n = std::min(kChunk, e->counted.size() - i);
      sh.OnCountedPairs(std::span<const CountedPair>(e->counted.data() + i, n));
    }
    if (e->tuple_arity > 0) {
      const size_t span = kChunk * e->tuple_arity;
      for (size_t i = 0; i < e->tuple_data.size() && !sink.done(); i += span) {
        const size_t n = std::min(span, e->tuple_data.size() - i);
        sh.OnTuples(std::span<const Value>(e->tuple_data.data() + i, n),
                    e->tuple_arity);
      }
    }
    sink.Finish();
  }
  TraceEnd(trace, span, "cache-replay");
  stats->seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return true;
}

void ResultCache::Insert(const BatchKey& key, Entry entry) {
  entry.stats.trace_spans.clear();
  entry.bytes = entry.pairs.size() * sizeof(OutPair) +
                entry.counted.size() * sizeof(CountedPair) +
                entry.tuple_data.size() * sizeof(Value) +
                256;  // fixed overhead: stats + map/list bookkeeping
  if (entry.bytes > options_.max_entry_bytes) return;

  const bool metrics = MetricsEnabled();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ -= it->second.entry->bytes;
    lru_.erase(it->second.lru_it);
    map_.erase(it);
  }
  lru_.push_front(key);
  bytes_ += entry.bytes;
  map_[key] = Slot{std::make_shared<const Entry>(std::move(entry)),
                   lru_.begin()};
  EvictToFitLocked();
  if (metrics) {
    CacheMetrics::Get().insertions.Add();
    CacheMetrics::Get().bytes.Set(static_cast<int64_t>(bytes_));
  }
}

void ResultCache::InvalidateStale(uint64_t current_version) {
  const bool metrics = MetricsEnabled();
  std::lock_guard<std::mutex> lock(mu_);
  if (current_version == last_seen_version_) return;
  last_seen_version_ = current_version;
  uint64_t dropped = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.catalog_version != current_version) {
      bytes_ -= it->second.entry->bytes;
      lru_.erase(it->second.lru_it);
      it = map_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (metrics && dropped > 0) {
    CacheMetrics::Get().invalidations.Add(dropped);
    CacheMetrics::Get().bytes.Set(static_cast<int64_t>(bytes_));
  }
}

void ResultCache::EvictToFitLocked() {
  const bool metrics = MetricsEnabled();
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const BatchKey victim = lru_.back();
    auto it = map_.find(victim);
    bytes_ -= it->second.entry->bytes;
    lru_.pop_back();
    map_.erase(it);
    if (metrics) CacheMetrics::Get().evictions.Add();
  }
}

uint64_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace jpmm
