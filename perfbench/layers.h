// Per-layer accounting for the traced run, measured from outside the
// library: the benchmark times its own calls into public functions and
// reads public records (ExecStats, the spans a TraceRecorder returns).
//
// Parallel stages open one span per worker task, so a stage has two
// numbers: its wall extent (the union of its spans' intervals, "_ms") and
// its summed worker time ("_cpu_ms"). Summing the spans of a parallel
// stage and dividing by the query's wall time gives shares above 100%,
// which is why neither TraceRecorder::Render's percentages nor plain sums
// stand in for wall time here.

#ifndef JPMM_PERFBENCH_LAYERS_H_
#define JPMM_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/query_engine.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct SpanTotals {
  double wall_ms = 0.0;  // union of the spans' intervals
  double sum_ms = 0.0;   // summed span durations (worker time)
  uint64_t spans = 0;
};

/// Totals over the closed spans named `name`.
SpanTotals Aggregate(const std::vector<jpmm::TraceSpan>& spans,
                     std::string_view name);

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place).
double Quantile(std::vector<double>* v, double q);

/// Accumulates the per-layer metrics; each "_ms" metric is a per-query
/// mean, so shares of a run add up (a median over a mix of query shapes
/// hides every layer that runs on fewer than half of them).
class LayerStats {
 public:
  void AddAddRelation(double ms);
  void AddPrepare(double ms);
  void AddWrite() { ++writes_; }
  /// A traced first execution of a freshly prepared query: what planning
  /// and the density-grid build cost before their results are cached.
  void AddFirstExecution(const std::vector<jpmm::TraceSpan>& spans);
  /// A traced measured execution that delivered `rows` results.
  void AddExecution(const std::vector<jpmm::TraceSpan>& spans,
                    const jpmm::ExecStats& st, int threads, uint64_t rows);
  /// Work skipped by sink early exit (Limit/Page sinks).
  void AddEarlyExit(const jpmm::ExecStats& st);
  /// Work skipped by cancel polling (deadline queries).
  void AddCancel(const jpmm::ExecStats& st);
  void Merge(const LayerStats& o);

  /// Appends every per-layer metric except the service.* outcome counts
  /// and trace.overhead_frac, which the caller measures.
  void Emit(double datagen_s, double operand_bytes_per_query,
            std::vector<Metric>* out) const;

 private:
  double add_relation_ms_ = 0;
  uint64_t add_relations_ = 0;
  double prepare_ms_ = 0;
  uint64_t prepares_ = 0;
  uint64_t writes_ = 0;

  double first_plan_ms_ = 0;
  double first_degree_remap_ms_ = 0;
  uint64_t firsts_ = 0;

  uint64_t n_ = 0;
  uint64_t plan_cache_hits_ = 0;
  double threshold_fit_ms_ = 0;
  double light_wall_ms_ = 0;
  double wcoj_ms_ = 0;
  double heavy_wall_ms_ = 0;
  double csr_build_ms_ = 0;
  double pack_ms_ = 0;
  double kernel_cpu_ms_[3] = {0, 0, 0};  // dense, csr-dense, csr-csr
  uint64_t kernel_blocks_[3] = {0, 0, 0};
  double emit_cpu_ms_ = 0;
  double sink_finish_ms_ = 0;
  uint64_t rows_ = 0;
  double parallel_eff_ = 0;
  uint64_t heavy_queries_ = 0;
  uint64_t blocks_pruned_ = 0;
  uint64_t blocks_planned_ = 0;
  std::vector<double> queue_wait_ms_;

  uint64_t early_skipped_ = 0;
  uint64_t early_total_ = 0;
  uint64_t cancel_skipped_ = 0;
  uint64_t cancel_total_ = 0;
};

}  // namespace perfbench

#endif  // JPMM_PERFBENCH_LAYERS_H_
