#include "core/mm_join.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"
#include "common/metrics.h"
#include "common/stamp_set.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cancel_token.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "core/two_path_internal.h"
#include "matrix/matmul.h"
#include "matrix/sparse_matrix.h"

namespace jpmm {
namespace {

// Per-worker scratch + output shard.
struct WorkerState {
  StampCounter counter;
  std::vector<Value> touched;
  std::vector<Value> witness_buf;          // kSortLocal scratch
  std::vector<HeavyEntry> sorted_entries;  // kSortLocal scratch
  ResultSink::Shard* shard = nullptr;      // this worker's emission handle

  void Bind(ResultSink* sink, int w, size_t num_z) {
    if (shard == nullptr) shard = &sink->shard(w);
    if (counter.universe() < num_z) counter.ResizeUniverse(num_z);
  }
};

class TwoPathRunner {
 public:
  TwoPathRunner(const internal::TwoPathContext& ctx, const MmJoinOptions& opts)
      : ctx_(ctx), opts_(opts) {}

  // Emits the output pairs of head value a: its light witnesses plus the
  // heavy product row `heavy` of (heavy-z id, count) entries, each z at
  // most once (empty for a head value with no matrix row).
  void EmitHead(Value a, std::span<const HeavyEntry> heavy,
                WorkerState* ws) const {
    const auto& hz = ctx_.part.heavy_z();
    if (opts_.dedup == DedupImpl::kStampArray) {
      ws->counter.NewEpoch();
      ws->touched.clear();
      ctx_.AccumulateLight(a, &ws->counter, &ws->touched);
      for (const HeavyEntry& e : heavy) {
        const Value z = hz[e.col];
        if (ws->counter.Add(z, e.count) == 0) ws->touched.push_back(z);
      }
      for (Value c : ws->touched) Emit(a, c, ws->counter.Get(c), ws);
      return;
    }
    ws->witness_buf.clear();
    ctx_.AccumulateLightToVector(a, &ws->witness_buf);
    std::sort(ws->witness_buf.begin(), ws->witness_buf.end());
    // The merge below needs z-ascending entries. Heavy ids ascend with
    // their values, so a float-kernel block over one column band delivers
    // them sorted; CSR x CSR rows come in first-touch order, and a density
    // grid interleaves its bands.
    auto by_col = [](const HeavyEntry& l, const HeavyEntry& r) {
      return l.col < r.col;
    };
    if (!std::is_sorted(heavy.begin(), heavy.end(), by_col)) {
      ws->sorted_entries.assign(heavy.begin(), heavy.end());
      std::sort(ws->sorted_entries.begin(), ws->sorted_entries.end(), by_col);
      heavy = ws->sorted_entries;
    }
    // Merge the sorted light-witness runs with the heavy entries, summing
    // counts per z.
    const std::vector<Value>& light = ws->witness_buf;
    size_t i = 0;
    size_t m = 0;
    while (i < light.size() || m < heavy.size()) {
      const Value c = i < light.size() && (m >= heavy.size() ||
                                           light[i] <= hz[heavy[m].col])
                          ? light[i]
                          : hz[heavy[m].col];
      uint32_t cnt = 0;
      while (i < light.size() && light[i] == c) {
        ++cnt;
        ++i;
      }
      if (m < heavy.size() && hz[heavy[m].col] == c) cnt += heavy[m++].count;
      Emit(a, c, cnt, ws);
    }
  }

 private:
  // Delivers (a, c) when it has at least min_count witnesses.
  void Emit(Value a, Value c, uint32_t cnt, WorkerState* ws) const {
    if (cnt < opts_.min_count) return;
    if (opts_.count_witnesses) {
      ws->shard->OnCountedPair(CountedPair{a, c, cnt});
    } else {
      ws->shard->OnPair(OutPair{a, c});
    }
  }

  const internal::TwoPathContext& ctx_;
  const MmJoinOptions& opts_;
};

// Exact nnz of the two heavy operands under the current partition: one
// adjacency sweep each, no materialization. Drives both the memory-cap
// accounting and the density instrumentation.
void CountHeavyNnz(const IndexedRelation& r, const IndexedRelation& s,
                   const TwoPathPartition& part, int threads, uint64_t* nnz1,
                   uint64_t* nnz2) {
  // Neighbours adj(v) of the heavy values that own a heavy id under id_of.
  auto count = [threads](const std::vector<Value>& heavy, auto adj,
                         auto id_of) {
    std::vector<uint64_t> partial(static_cast<size_t>(std::max(1, threads)),
                                  0);
    ParallelForDynamic(threads, heavy.size(), /*grain=*/64,
                       [&](size_t i0, size_t i1, int w) {
                         uint64_t local = 0;
                         for (size_t i = i0; i < i1; ++i) {
                           for (Value u : adj(heavy[i])) {
                             if (id_of(u) != kInvalidValue) ++local;
                           }
                         }
                         partial[static_cast<size_t>(w)] += local;
                       });
    uint64_t total = 0;
    for (uint64_t c : partial) total += c;
    return total;
  };
  *nnz1 = count(
      part.heavy_x(), [&](Value a) { return r.YsOf(a); },
      [&](Value b) { return part.HeavyYId(b); });
  *nnz2 = count(
      part.heavy_y(), [&](Value b) { return s.XsOf(b); },
      [&](Value c) { return part.HeavyZId(c); });
}

}  // namespace

MmJoinResult MmJoinTwoPath(const IndexedRelation& r, const IndexedRelation& s,
                           const MmJoinOptions& options) {
  MmJoinOptions opts = options;
  JPMM_CHECK(opts.min_count >= 1);
  JPMM_CHECK_MSG(opts.min_count == 1 || opts.count_witnesses,
                 "min_count > 1 requires count_witnesses");
  JPMM_CHECK(opts.row_block >= 1);

  Thresholds t = opts.thresholds;
  t.delta1 = std::max<uint64_t>(1, t.delta1);
  t.delta2 = std::max<uint64_t>(1, t.delta2);
  const int threads = std::max(1, opts.threads);

  // Build the context; double the thresholds until the heavy-part working
  // set fits the memory cap. The footprint depends on the representation
  // the heavy kernels need: the CSR operands are always built (they ARE the
  // heavy adjacency, and the per-block dispatch reads block nnz off them);
  // dense M1/M2 + the packed slab + per-worker float row-block buffers only
  // when dense-GEMM blocks may run; dense M2 + the float buffers for
  // CSR x dense; per-worker stamp scratch for CSR x CSR. Under kAuto the
  // expensive representations are gated off instead of doubling thresholds
  // — the CSR floor is what must fit (the old accounting charged sparse
  // inputs dense U*V bytes and over-forced their thresholds).
  TraceRecorder* const trace = opts.trace;
  const TraceRecorder::SpanId tparent = opts.trace_parent;
  TraceRecorder::Scope fit_scope(trace, "threshold-fit", tparent);
  std::unique_ptr<internal::TwoPathContext> ctx;
  uint64_t m1_nnz = 0;
  uint64_t m2_nnz = 0;
  bool allow_dense = true;
  bool allow_csr_dense = true;
  uint64_t heavy_bytes = 0;  // accepted uniform-plan working set
  for (;;) {
    ctx = std::make_unique<internal::TwoPathContext>(r, s, t);
    const uint64_t hx = ctx->part.heavy_x().size();
    const uint64_t hy = ctx->part.heavy_y().size();
    const uint64_t hz = ctx->part.heavy_z().size();
    if (hy == 0) break;
    CountHeavyNnz(r, s, ctx->part, threads, &m1_nnz, &m2_nnz);
    const uint64_t blocks = (hx + opts.row_block - 1) / opts.row_block;
    const uint64_t block_workers =
        std::min<uint64_t>(static_cast<uint64_t>(threads),
                           std::max<uint64_t>(1, blocks));
    const uint64_t csr = CsrBytes(hx, m1_nnz) + CsrBytes(hy, m2_nnz);
    // StampCounter (8 B/slot) + touched list (4 B/slot) per block worker.
    const uint64_t stamp = 12 * block_workers * hz;
    const uint64_t acc = 4 * block_workers * opts.row_block * hz;
    const uint64_t m2_dense = 4 * hy * hz;
    const uint64_t dense_full =
        4 * hx * hy + m2_dense + PackedBBytes(hy, hz) + acc;
    uint64_t bytes = 0;
    switch (opts.heavy_path) {
      case HeavyPathMode::kForceDense:
        bytes = csr + dense_full;
        allow_dense = true;
        allow_csr_dense = true;
        break;
      case HeavyPathMode::kForceCsrDense:
        bytes = csr + m2_dense + acc;
        allow_dense = false;
        allow_csr_dense = true;
        break;
      case HeavyPathMode::kForceCsrCsr:
        bytes = csr + stamp;
        allow_dense = false;
        allow_csr_dense = false;
        break;
      case HeavyPathMode::kAuto:
        allow_dense = csr + dense_full + stamp <= opts.max_matrix_bytes;
        allow_csr_dense =
            csr + m2_dense + acc + stamp <= opts.max_matrix_bytes;
        bytes = allow_dense ? csr + dense_full + stamp
                : allow_csr_dense ? csr + m2_dense + acc + stamp
                                  : csr + stamp;
        break;
    }
    heavy_bytes = bytes;
    if (bytes <= opts.max_matrix_bytes) break;
    t.delta1 *= 2;
    t.delta2 *= 2;
  }
  fit_scope.Close();

  MmJoinResult result;
  result.adjusted_thresholds = t;
  const auto& part = ctx->part;
  const auto& hxs = part.heavy_x();
  const auto& hys = part.heavy_y();
  const auto& hzs = part.heavy_z();
  result.heavy_rows = hxs.size();
  result.heavy_inner = hys.size();
  result.heavy_cols = hzs.size();
  const bool use_matrix = !hxs.empty() && !hys.empty() && !hzs.empty();
  if (use_matrix) {
    result.m1_nnz = m1_nnz;
    result.m2_nnz = m2_nnz;
    result.heavy_density = static_cast<double>(m1_nnz) /
                           (static_cast<double>(hxs.size()) *
                            static_cast<double>(hys.size()));
  }

  std::vector<WorkerState> workers(static_cast<size_t>(threads));
  const size_t num_z = s.num_x();
  const TwoPathRunner runner(*ctx, opts);

  // When the caller provides no sink, stream into a local VectorSink and
  // move its vectors into the result afterwards — one emission path either
  // way, and the shard-order merge matches the old per-worker merge.
  VectorSink fallback;
  ResultSink* sink = opts.sink != nullptr ? opts.sink : &fallback;
  sink->Open(threads);
  std::atomic<uint64_t> light_executed{0};
  std::atomic<uint64_t> light_skipped{0};
  // Latched only when a poll actually skips work: a token that fires after
  // the last chunk completed must not mark a complete run interrupted.
  std::atomic<bool> interrupted{false};
  const CancelToken* cancel = opts.cancel;
  auto stop = [&]() -> bool {
    if (sink->done()) return true;
    if (cancel != nullptr && cancel->Fired()) {
      interrupted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  // ---- Pass A: head values with no matrix row (light part only).
  // Dynamic chunking: zipf-skewed x degrees make contiguous static chunks
  // wildly unbalanced (one worker can own all the hubs).
  WallTimer light_timer;
  constexpr size_t kHeadGrain = 256;
  const TraceRecorder::SpanId light_span = TraceBegin(trace, "light-pass", tparent);
  ParallelForDynamic(threads, r.num_x(), kHeadGrain,
                     [&](size_t a0, size_t a1, int w) {
                       WorkerState& ws = workers[static_cast<size_t>(w)];
                       if (stop()) {
                         light_skipped.fetch_add(1, std::memory_order_relaxed);
                         return;
                       }
                       TraceRecorder::Scope chunk_scope(trace, "light-chunk",
                                                        light_span);
                       light_executed.fetch_add(1, std::memory_order_relaxed);
                       ws.Bind(sink, w, num_z);
                       for (size_t a = a0; a < a1; ++a) {
                         const auto av = static_cast<Value>(a);
                         if (r.DegX(av) == 0) continue;
                         if (use_matrix && part.HeavyXId(av) != kInvalidValue) {
                           continue;
                         }
                         runner.EmitHead(av, {}, &ws);
                       }
                     });
  TraceEnd(trace, light_span);
  result.light_seconds = light_timer.Seconds();

  // ---- Pass B: heavy rows through the heavy-product executor. If the sink
  // was satisfied by the light pass alone, skip the whole heavy phase —
  // operand build and planning included — and account every would-be
  // chunk as skipped.
  if (use_matrix && stop()) {
    result.SkipAll(hxs.size(), opts.row_block);
  } else if (use_matrix) {
    WallTimer heavy_timer;
    TraceRecorder::Scope heavy_scope(trace, "heavy", tparent);
    // CSR operands straight from the heavy adjacency lists — no dense
    // materialization pass. Column ids ascend within each row because the
    // index's adjacency lists are sorted and heavy ids are assigned in
    // ascending value order.
    const TraceRecorder::SpanId csr_span =
        TraceBegin(trace, "csr-build", heavy_scope.id());
    const CsrMatrix csr1 = CsrMatrix::FromRows(
        hxs.size(), hys.size(), threads,
        [&](size_t i, std::vector<uint32_t>* out) {
          for (Value b : r.YsOf(hxs[i])) {
            const Value id = part.HeavyYId(b);
            if (id != kInvalidValue) out->push_back(id);
          }
        });
    const CsrMatrix csr2 = CsrMatrix::FromRows(
        hys.size(), hzs.size(), threads,
        [&](size_t i, std::vector<uint32_t>* out) {
          for (Value c : s.XsOf(hys[i])) {
            const Value id = part.HeavyZId(c);
            if (id != kInvalidValue) out->push_back(id);
          }
        });
    TraceEnd(trace, csr_span);

    HeavyKnobs knobs = opts;
    knobs.trace_parent = heavy_scope.id();
    const HeavyProduct product{.a = csr1,
                               .b = csr2,
                               .allow_dense = allow_dense,
                               .allow_csr_dense = allow_csr_dense,
                               .base_bytes = heavy_bytes,
                               .grid_key = t,
                               .phase_timer = &heavy_timer};
    RunHeavyProduct(
        product, knobs, stop,
        [&](int w, uint32_t row, std::span<const HeavyEntry> entries) {
          WorkerState& ws = workers[static_cast<size_t>(w)];
          ws.Bind(sink, w, num_z);
          runner.EmitHead(hxs[row], entries, &ws);
        },
        nullptr, &result);
  }

  // ---- Merge point. Dynamic chunk claiming makes the pair ORDER
  // run-dependent (the header documents it as unspecified); the pair SET is
  // deterministic at every thread count. With a caller sink the results
  // already live there; otherwise move the fallback's merged vectors out.
  {
    TraceRecorder::Scope finish_scope(trace, "sink-finish", tparent);
    sink->Finish();
  }
  if (opts.sink == nullptr) {
    result.pairs = std::move(fallback.pairs());
    result.counted = std::move(fallback.counted());
  }
  result.light_chunks_total =
      r.num_x() == 0 ? 0 : (r.num_x() + kHeadGrain - 1) / kHeadGrain;
  result.light_chunks_executed = light_executed.load();
  result.light_chunks_skipped = light_skipped.load();
  result.interrupted = interrupted.load();

  if (MetricsEnabled()) {
    static Counter& operand_bytes = MetricsRegistry::Global().GetCounter(
        "jpmm_join_heavy_operand_bytes_total");
    operand_bytes.Add(heavy_bytes);
  }
  internal::RecordTwoPathMetrics(result);
  return result;
}

}  // namespace jpmm
