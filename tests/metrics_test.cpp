// Unit tests for common/metrics: counters, gauges, sharded histograms,
// the process-wide registry, and its Prometheus/JSON exports.
//
// The load-bearing properties:
//   - shard-merge determinism: the same multiset of recorded values yields
//     byte-identical snapshots regardless of how many threads recorded it;
//   - registry concurrency: Get* + Add from many threads races cleanly
//     (this file is in CI's TSAN matrix) and never loses an increment;
//   - the enabled gate: registry-owned instruments no-op when metrics are
//     off, standalone instances (bench tallies) always record.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/star_join.h"
#include "storage/index.h"

namespace jpmm {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().ResetForTest();
  }
};

TEST_F(MetricsTest, CounterAddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, GaugeUpDown) {
  Gauge g;
  g.Add(5);
  g.Sub(2);
  EXPECT_EQ(g.value(), 3);
  g.Set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST_F(MetricsTest, RegistryReturnsSameInstrumentForSameName) {
  Counter& a = MetricsRegistry::Global().GetCounter("test_counter_total");
  Counter& b = MetricsRegistry::Global().GetCounter("test_counter_total");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);

  Histogram& h1 =
      MetricsRegistry::Global().GetHistogram("test_h_ms", {1.0, 2.0});
  // Second caller's bounds are ignored; the first registration wins.
  Histogram& h2 =
      MetricsRegistry::Global().GetHistogram("test_h_ms", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST_F(MetricsTest, HistogramBucketSemantics) {
  // Prometheus `le`: a value lands in the first bucket with v <= bound.
  Histogram h({1.0, 10.0, 100.0});
  h.Record(0.5);    // le 1
  h.Record(1.0);    // le 1 (inclusive upper bound)
  h.Record(5.0);    // le 10
  h.Record(100.0);  // le 100
  h.Record(1e6);    // overflow
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST_F(MetricsTest, PercentileInterpolation) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 100; ++i) h.Record(5.0);  // all in [0, 10]
  const HistogramSnapshot s = h.Snapshot();
  // Uniform-in-bucket assumption: p50 of 100 samples in [0,10] = 5.
  EXPECT_NEAR(s.Percentile(50.0), 5.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100.0), 10.0, 1e-9);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(50.0), 0.0);

  Histogram h2({10.0, 20.0});
  h2.Record(1e9);  // overflow only
  // Overflow-bucket percentiles report the largest finite bound.
  EXPECT_DOUBLE_EQ(h2.Snapshot().Percentile(99.0), 20.0);
}

// The same multiset of values, recorded by 1 / 4 / 16 threads, must merge
// to identical snapshots: bucket sums commute, so shard layout is
// unobservable.
TEST_F(MetricsTest, ShardMergeDeterministicAcrossThreadCounts) {
  const std::vector<double>& bounds = DefaultLatencyBoundsMs();
  constexpr int kValues = 4096;
  auto value_at = [](int i) {
    return 0.01 * static_cast<double>((i * 2654435761u) % 100000);
  };

  HistogramSnapshot base;
  std::vector<uint64_t> base_counts;
  bool first = true;
  for (int threads : {1, 4, 16}) {
    Histogram h(bounds);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = t; i < kValues; i += threads) h.Record(value_at(i));
      });
    }
    for (auto& w : workers) w.join();
    const HistogramSnapshot s = h.Snapshot();
    EXPECT_EQ(s.count, static_cast<uint64_t>(kValues));
    if (first) {
      base = s;
      first = false;
    } else {
      EXPECT_EQ(s.counts, base.counts) << "thread count " << threads;
      // Sums are added in shard order, not record order; with a fixed
      // multiset they still agree to floating-point tolerance.
      EXPECT_NEAR(s.sum, base.sum, 1e-6 * std::abs(base.sum));
    }
  }
}

// Races Get* lookups against hot-path Adds on the same names; run under
// TSAN in CI. Every increment must survive.
TEST_F(MetricsTest, RegistryConcurrentGetAndAdd) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      for (int i = 0; i < kPerThread; ++i) {
        reg.GetCounter("race_counter_total").Add();
        reg.GetGauge("race_gauge").Add(1);
        reg.GetHistogram("race_hist_ms", DefaultLatencyBoundsMs())
            .Record(static_cast<double>(i % 50));
        if (i % 256 == 0) (void)reg.Snapshot();  // reader vs writer race
      }
    });
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot s = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(s.counters.at("race_counter_total"),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.gauges.at("race_gauge"),
            static_cast<int64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.histograms.at("race_hist_ms").count,
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(MetricsTest, EnabledGateStopsRegistryInstrumentsOnly) {
  Counter& gated = MetricsRegistry::Global().GetCounter("gated_total");
  Histogram& gated_h =
      MetricsRegistry::Global().GetHistogram("gated_ms", {1.0});
  Counter standalone;  // bench-tally style: never gated

  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  gated.Add();
  gated_h.Record(0.5);
  standalone.Add();
  EXPECT_EQ(gated.value(), 0u);
  EXPECT_EQ(gated_h.Snapshot().count, 0u);
  EXPECT_EQ(standalone.value(), 1u);

  SetMetricsEnabled(true);
  gated.Add();
  EXPECT_EQ(gated.value(), 1u);
}

TEST_F(MetricsTest, ExponentialBoundsShape) {
  const std::vector<double> b = ExponentialBounds(0.5, 2.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[3], 4.0);
  const std::vector<double>& lat = DefaultLatencyBoundsMs();
  ASSERT_FALSE(lat.empty());
  for (size_t i = 1; i < lat.size(); ++i) EXPECT_GT(lat[i], lat[i - 1]);
}

TEST_F(MetricsTest, PrometheusTextExport) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("exp_requests_total").Add(3);
  reg.GetGauge("exp_inflight").Set(2);
  Histogram& h = reg.GetHistogram("exp_latency_ms", {1.0, 10.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Record(50.0);

  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE exp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("exp_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_latency_ms histogram"),
            std::string::npos);
  // `le` buckets are cumulative; +Inf equals _count.
  EXPECT_NE(text.find("exp_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency_ms_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("exp_latency_ms_count 3"), std::string::npos);
}

TEST_F(MetricsTest, JsonTextExport) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("j_total").Add(7);
  reg.GetHistogram("j_ms", {1.0}).Record(0.5);
  const std::string json = reg.JsonText();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"j_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"j_ms\""), std::string::npos);
}

TEST_F(MetricsTest, SnapshotAndResetForTest) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter& c = reg.GetCounter("reset_me_total");
  c.Add(9);
  EXPECT_EQ(reg.Snapshot().counters.at("reset_me_total"), 9u);
  reg.ResetForTest();
  // References stay valid; values are zeroed in place.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.Snapshot().counters.at("reset_me_total"), 0u);
}

// Both star executors record the star metrics; Non-MM used to record none.
TEST_F(MetricsTest, NonMmStarRecordsStarMetrics) {
  BinaryRelation r;  // one dense block: every x and y heavy at delta 2
  for (Value a = 0; a < 8; ++a) {
    for (Value b = 0; b < 8; ++b) r.Add(a, b);
  }
  r.Finalize();
  IndexedRelation ri(r);
  StarJoinOptions opts;
  opts.thresholds = {2, 2};
  const StarJoinResult res = NonMmStarJoin({&ri, &ri, &ri}, opts);
  ASSERT_GT(res.light_steps_executed, 0u);
  ASSERT_GT(res.heavy_blocks_executed, 0u);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("jpmm_star_light_steps_executed_total"),
            res.light_steps_executed);
  EXPECT_EQ(snap.counters.at("jpmm_star_light_steps_skipped_total"), 0u);
  EXPECT_EQ(snap.counters.at("jpmm_join_heavy_blocks_executed_total"),
            res.heavy_blocks_executed);
  EXPECT_EQ(snap.counters.at("jpmm_join_heavy_blocks_skipped_total"), 0u);
  EXPECT_EQ(snap.histograms.at("jpmm_join_light_pass_ms").count, 1u);
  EXPECT_EQ(snap.histograms.at("jpmm_join_heavy_pass_ms").count, 1u);
}

}  // namespace
}  // namespace jpmm
