#include "layers.h"

#include <algorithm>
#include <utility>

namespace perfbench {
namespace {

constexpr const char* kBlockSpans[3] = {"block:dense", "block:csr-dense",
                                        "block:csr-csr"};
constexpr const char* kKernelSuffix[3] = {"dense", "csr-dense", "csr-csr"};

double Mean(double sum, uint64_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Frac(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

SpanTotals Aggregate(const std::vector<jpmm::TraceSpan>& spans,
                     std::string_view name) {
  std::vector<std::pair<double, double>> iv;
  for (const jpmm::TraceSpan& s : spans) {
    if (s.end_s >= 0 && name == s.name) iv.emplace_back(s.begin_s, s.end_s);
  }
  SpanTotals t;
  std::sort(iv.begin(), iv.end());
  t.spans = iv.size();
  double cover_end = -1.0;
  for (const auto& [b, e] : iv) {
    t.sum_ms += (e - b) * 1e3;
    const double from = std::max(b, cover_end);
    if (e > from) t.wall_ms += (e - from) * 1e3;
    cover_end = std::max(cover_end, e);
  }
  return t;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

void LayerStats::AddAddRelation(double ms) {
  add_relation_ms_ += ms;
  ++add_relations_;
}

void LayerStats::AddPrepare(double ms) {
  prepare_ms_ += ms;
  ++prepares_;
}

void LayerStats::AddFirstExecution(const std::vector<jpmm::TraceSpan>& spans) {
  first_plan_ms_ += Aggregate(spans, "plan").wall_ms;
  first_degree_remap_ms_ += Aggregate(spans, "degree-remap").wall_ms;
  ++firsts_;
}

void LayerStats::AddExecution(const std::vector<jpmm::TraceSpan>& spans,
                              const jpmm::ExecStats& st, int threads,
                              uint64_t rows) {
  ++n_;
  if (st.plan_cache_hit) ++plan_cache_hits_;
  threshold_fit_ms_ += Aggregate(spans, "threshold-fit").wall_ms;
  light_wall_ms_ += Aggregate(spans, "light-pass").wall_ms;
  wcoj_ms_ += Aggregate(spans, "wcoj-full").wall_ms;
  const double heavy_ms = Aggregate(spans, "heavy").wall_ms;
  heavy_wall_ms_ += heavy_ms;
  csr_build_ms_ += Aggregate(spans, "csr-build").wall_ms;
  pack_ms_ += Aggregate(spans, "pack").wall_ms;
  double worker_ms = 0;
  for (int k = 0; k < 3; ++k) {
    const double cpu = Aggregate(spans, kBlockSpans[k]).sum_ms;
    kernel_cpu_ms_[k] += cpu;
    worker_ms += cpu;
  }
  kernel_blocks_[0] += st.kernel_counts.dense;
  kernel_blocks_[1] += st.kernel_counts.csr_dense;
  kernel_blocks_[2] += st.kernel_counts.csr_csr;
  const double emit = Aggregate(spans, "emit-inverse-remap").sum_ms;
  emit_cpu_ms_ += emit;
  worker_ms += emit;
  if (heavy_ms > 0) {
    parallel_eff_ += worker_ms / (heavy_ms * std::max(1, threads));
    ++heavy_queries_;
  }
  sink_finish_ms_ += Aggregate(spans, "sink-finish").wall_ms;
  rows_ += rows;
  blocks_pruned_ += st.partition_blocks_pruned;
  blocks_planned_ += st.partition_blocks_pruned + st.partition_blocks_scheduled;
  const SpanTotals wait = Aggregate(spans, "queue-wait");
  if (wait.spans > 0) queue_wait_ms_.push_back(wait.wall_ms);
}

void LayerStats::AddEarlyExit(const jpmm::ExecStats& st) {
  early_skipped_ += st.light_chunks_skipped + st.heavy_blocks_skipped;
  early_total_ += st.light_chunks_total + st.heavy_blocks_total;
}

void LayerStats::AddCancel(const jpmm::ExecStats& st) {
  cancel_skipped_ += st.light_chunks_skipped + st.heavy_blocks_skipped;
  cancel_total_ += st.light_chunks_total + st.heavy_blocks_total;
}

void LayerStats::Merge(const LayerStats& o) {
  add_relation_ms_ += o.add_relation_ms_;
  add_relations_ += o.add_relations_;
  prepare_ms_ += o.prepare_ms_;
  prepares_ += o.prepares_;
  writes_ += o.writes_;
  first_plan_ms_ += o.first_plan_ms_;
  first_degree_remap_ms_ += o.first_degree_remap_ms_;
  firsts_ += o.firsts_;
  n_ += o.n_;
  plan_cache_hits_ += o.plan_cache_hits_;
  threshold_fit_ms_ += o.threshold_fit_ms_;
  light_wall_ms_ += o.light_wall_ms_;
  wcoj_ms_ += o.wcoj_ms_;
  heavy_wall_ms_ += o.heavy_wall_ms_;
  csr_build_ms_ += o.csr_build_ms_;
  pack_ms_ += o.pack_ms_;
  for (int k = 0; k < 3; ++k) {
    kernel_cpu_ms_[k] += o.kernel_cpu_ms_[k];
    kernel_blocks_[k] += o.kernel_blocks_[k];
  }
  emit_cpu_ms_ += o.emit_cpu_ms_;
  sink_finish_ms_ += o.sink_finish_ms_;
  rows_ += o.rows_;
  parallel_eff_ += o.parallel_eff_;
  heavy_queries_ += o.heavy_queries_;
  blocks_pruned_ += o.blocks_pruned_;
  blocks_planned_ += o.blocks_planned_;
  queue_wait_ms_.insert(queue_wait_ms_.end(), o.queue_wait_ms_.begin(),
                        o.queue_wait_ms_.end());
  early_skipped_ += o.early_skipped_;
  early_total_ += o.early_total_;
  cancel_skipped_ += o.cancel_skipped_;
  cancel_total_ += o.cancel_total_;
}

void LayerStats::Emit(double datagen_s, double operand_bytes_per_query,
                      std::vector<Metric>* out) const {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  add("datagen.generate_s", datagen_s, "s");
  add("storage.add_relation_ms", Mean(add_relation_ms_, add_relations_), "ms");
  add("storage.prepare_ms", Mean(prepare_ms_, prepares_), "ms");
  add("storage.writes", static_cast<double>(writes_), "count");
  add("plan.first_ms", Mean(first_plan_ms_, firsts_), "ms");
  add("plan.threshold_fit_ms", Mean(threshold_fit_ms_, n_), "ms");
  add("plan.cache_hit_frac", Frac(plan_cache_hits_, n_), "ratio");
  add("light.wall_ms", Mean(light_wall_ms_, n_), "ms");
  add("light.wcoj_ms", Mean(wcoj_ms_, n_), "ms");
  add("heavy.wall_ms", Mean(heavy_wall_ms_, n_), "ms");
  add("heavy.csr_build_ms", Mean(csr_build_ms_, n_), "ms");
  add("heavy.degree_remap_ms", Mean(first_degree_remap_ms_, firsts_), "ms");
  add("heavy.pack_ms", Mean(pack_ms_, n_), "ms");
  for (int k = 0; k < 3; ++k) {
    add(std::string("heavy.kernel_cpu_ms.") + kKernelSuffix[k],
        Mean(kernel_cpu_ms_[k], n_), "ms");
  }
  for (int k = 0; k < 3; ++k) {
    add(std::string("heavy.kernel_blocks.") + kKernelSuffix[k],
        Mean(static_cast<double>(kernel_blocks_[k]), n_), "count");
  }
  add("heavy.emit_cpu_ms", Mean(emit_cpu_ms_, n_), "ms");
  add("heavy.parallel_eff", Mean(parallel_eff_, heavy_queries_), "ratio");
  add("heavy.blocks_pruned_frac", Frac(blocks_pruned_, blocks_planned_),
      "ratio");
  add("heavy.operand_bytes", operand_bytes_per_query, "bytes");
  add("sink.finish_ms", Mean(sink_finish_ms_, n_), "ms");
  add("sink.rows", Mean(static_cast<double>(rows_), n_), "count");
  std::vector<double> wait = queue_wait_ms_;
  add("service.queue_wait_ms", Quantile(&wait, 0.9), "ms");
  add("service.early_exit_frac", Frac(early_skipped_, early_total_), "ratio");
  add("cancel.skipped_frac", Frac(cancel_skipped_, cancel_total_), "ratio");
}

}  // namespace perfbench
