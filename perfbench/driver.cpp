// perfbench_driver — runs one workload of the repository's benchmark in
// one process and prints its metrics (perfbench/run.py is the entry point;
// it builds this binary and combines several runs).
//
//   perfbench_driver --workload twopath-dense --seed 7 --seconds 25
//                    [--trace] [--setup-only] [--smoke] [--corrupt-oracle]
//                    [--record FILE]
//
// Each run generates its workload's inputs from the seed, loads them
// through the public QueryEngine / QueryService API (timed: setup_s),
// computes an oracle per query (oracle.h), and then runs a closed loop:
// every client sends its next query only after the previous one returned
// and was checked against the oracle. Without --trace the loop runs
// untraced for --seconds and the end-to-end metrics are printed; with
// --trace it runs half the time untraced and half with a fresh
// TraceRecorder per query, and prints the per-layer metrics. The last
// stdout line is one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/metrics.h"
#include "core/cancel_token.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/result_sink.h"
#include "core/trace.h"
#include "datagen/presets.h"
#include "layers.h"
#include "oracle.h"
#include "storage/index.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using jpmm::BinaryRelation;
using jpmm::DatasetPreset;
using jpmm::ExecOptions;
using jpmm::ExecStats;
using jpmm::PreparedQuery;
using jpmm::QueryEngine;
using jpmm::QuerySpec;
using jpmm::QueryStatus;
using jpmm::ResultSink;
using jpmm::StatusCode;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool smoke = false;
  bool corrupt_oracle = false;
  std::string record;
};

/// Stable per-input seed: each generated relation gets its own stream.
uint64_t InputSeed(uint64_t seed, uint64_t input) {
  return seed * 1000003 + input;
}

/// One query's plan, as recorded in the run record: plans differ from
/// process to process, so a bimodal run must be traceable to its plan.
std::string PlanSignature(const ExecStats& st) {
  std::ostringstream os;
  os << "{\"strategy\": \"" << jpmm::StrategyName(st.executed) << "\"";
  if (st.plan.thresholds.delta1 != 0 || st.plan.use_full_wcoj) {
    os << ", \"d1\": " << st.plan.thresholds.delta1
       << ", \"d2\": " << st.plan.thresholds.delta2
       << ", \"full_wcoj\": " << (st.plan.use_full_wcoj ? "true" : "false");
  }
  os << ", \"kernels\": {\"dense\": " << st.kernel_counts.dense
     << ", \"csr-dense\": " << st.kernel_counts.csr_dense
     << ", \"csr-csr\": " << st.kernel_counts.csr_csr
     << "}, \"partition\": \"" << st.partition_signature << "\"}";
  return os.str();
}

/// One client's tally of a measured phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // unexpected status, shed, or wrong output
  uint64_t wrong = 0;   // output differed from the oracle
  std::vector<double> latency_ms;    // queries that carry no deadline
  std::vector<double> overshoot_ms;  // return time minus deadline
  std::vector<std::string> problems;
  LayerStats layers;

  void Merge(Tally&& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    overshoot_ms.insert(overshoot_ms.end(), o.overshoot_ms.begin(),
                        o.overshoot_ms.end());
    for (std::string& p : o.problems) {
      if (problems.size() < 5) problems.push_back(std::move(p));
    }
    layers.Merge(o.layers);
  }
};

/// One timed execution and its trace (empty when untraced).
struct Outcome {
  QueryStatus status;
  ExecStats stats;
  std::vector<jpmm::TraceSpan> spans;
  Clock::time_point start;
  Clock::time_point end;
};

/// Executes through the engine, or through `service` when non-null, with a
/// fresh TraceRecorder when `traced`. The timer covers the call alone.
Outcome Execute(QueryEngine* engine, jpmm::QueryService* service,
                PreparedQuery& q, ResultSink& sink, ExecOptions opts,
                bool traced) {
  Outcome o;
  std::unique_ptr<jpmm::TraceRecorder> rec;
  if (traced) {
    rec = std::make_unique<jpmm::TraceRecorder>();
    opts.trace = rec.get();
  }
  o.start = Clock::now();
  if (service != nullptr) {
    jpmm::ServiceRequest req;
    req.exec = opts;
    o.status = service->Execute(q, sink, req, &o.stats);
  } else {
    o.status = engine->Execute(q, sink, opts, &o.stats);
  }
  o.end = Clock::now();
  if (rec) o.spans = rec->spans();
  return o;
}

/// Books one measured execution. `deadline` is null for queries without
/// one; `problem` is the oracle check's verdict ("" = correct); a status
/// other than Ok (or kDeadlineExceeded on a deadline query) is a failure.
void Account(const Outcome& o, const Clock::time_point* deadline,
             const std::string& problem, Tally* t) {
  ++t->attempted;
  const bool status_ok =
      o.status.ok() || (deadline != nullptr &&
                        o.status.code() == StatusCode::kDeadlineExceeded);
  if (!status_ok || !problem.empty()) {
    ++t->failed;
    if (!problem.empty()) ++t->wrong;
    if (t->problems.size() < 5) {
      t->problems.push_back(status_ok ? problem : o.status.message());
    }
  }
  if (deadline == nullptr) {
    t->latency_ms.push_back(MsBetween(o.start, o.end));
  } else {
    t->overshoot_ms.push_back(MsBetween(*deadline, o.end));
    t->layers.AddCancel(o.stats);
  }
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// The deadline a query's deadline runs carry: half the median of its
/// latest complete latencies. Set-up seeds it with a few untimed runs; the
/// loop keeps feeding it, so the deadline stays mid-query when the host
/// speeds up or slows down during a run.
class HalfMedianDeadline {
 public:
  template <typename Run>
  void Seed(Run run) {
    for (int i = 0; i < 3; ++i) {
      const Outcome o = run();
      Add(MsBetween(o.start, o.end));
    }
  }
  void Add(double ms) {
    recent_[next_++ % kWindow] = ms;
    filled_ = std::min(filled_ + 1, kWindow);
  }
  double ms() const {
    return Median(std::vector<double>(recent_, recent_ + filled_)) / 2;
  }

 private:
  static constexpr size_t kWindow = 9;
  double recent_[kWindow] = {};
  size_t next_ = 0;
  size_t filled_ = 0;
};

/// A deadline `ms` from now, as a time point and an armed token.
Clock::time_point ArmDeadline(double ms, jpmm::CancelToken* token) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
  token->SetDeadline(deadline);
  return deadline;
}

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;

  /// Generates every input from the seed (not part of setup_s).
  virtual void Generate() = 0;
  /// Engine construction to ready: AddRelation of every input, Prepare of
  /// every query, one warm-up Execute of each prepared query (so lazy
  /// kernel calibration and first planning land here). Timed as setup_s.
  virtual void Setup() = 0;
  /// Oracles from the reference evaluators; then seeds each deadline
  /// query's HalfMedianDeadline with a few untimed runs.
  virtual void BuildOracles() = 0;
  virtual int clients() const { return 1; }
  /// One pass of a client over the workload's whole query mix; the clock
  /// is checked between rounds.
  virtual void Round(int client, uint64_t round, bool traced, Tally* t) = 0;
  /// service.* outcome counts of the traced phase (zero without a service).
  virtual jpmm::ServiceStats ServiceCounts() const { return {}; }
  /// Scales, thread counts and one plan signature per prepared query.
  const std::string& record() const { return record_; }
  const LayerStats& setup_layers() const { return setup_layers_; }

 protected:
  double Scale(double full) const { return args_.smoke ? full * 0.1 : full; }
  static int DefaultThreads() {
    return static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  }
  /// Timed AddRelation / Prepare, booked as storage.* set-up samples.
  static void AddTimed(QueryEngine& e, const std::string& name,
                       BinaryRelation rel, LayerStats* layers) {
    const auto t0 = Clock::now();
    e.AddRelation(name, std::move(rel));
    layers->AddAddRelation(MsBetween(t0, Clock::now()));
  }
  static void PrepareTimed(QueryEngine& e, const QuerySpec& spec,
                           PreparedQuery* q, LayerStats* layers) {
    const auto t0 = Clock::now();
    const QueryStatus st = e.Prepare(spec, q);
    layers->AddPrepare(MsBetween(t0, Clock::now()));
    if (!st.ok()) {
      std::cerr << "Prepare failed: " << st.message() << "\n";
      std::exit(3);
    }
  }
  /// Books a warm-up (first) execution: its plan into the run record, its
  /// trace into the set-up layer stats.
  void BookFirst(const std::string& query, const Outcome& o) {
    if (!o.status.ok()) {
      std::cerr << "warm-up of " << query << " failed: " << o.status.message()
                << "\n";
      std::exit(3);
    }
    if (!plans_.empty()) plans_ += ", ";
    plans_ += "\"" + query + "\": " + PlanSignature(o.stats);
    if (!o.spans.empty()) setup_layers_.AddFirstExecution(o.spans);
  }
  void SetRecord(const std::string& scales, int threads) {
    std::ostringstream os;
    os << "\"scales\": {" << scales << "}, \"threads\": " << threads
       << ", \"clients\": " << clients() << ", \"plans\": {" << plans_ << "}";
    record_ = os.str();
  }

  const Args& args_;
  LayerStats setup_layers_;

 private:
  std::string plans_;
  std::string record_;
};

// ---- twopath-dense -------------------------------------------------------
//
// One client at min(4, nproc) threads. Self two-path joins over the dense
// presets; the heavy (matrix) product does nearly all the work. Each
// round runs every query into a CountOnlySink, into a top-100
// OrderedBySink, and into a CountOnlySink with a deadline at half its
// median latency. Words runs twice: once as planned (dense and csr-dense
// blocks) and once, as its own prepared query, with the heavy kernel
// pinned to csr-csr, which no plan of these inputs picks reliably.
class TwoPathDense : public Workload {
 public:
  using Workload::Workload;

  void Generate() override {
    const struct {
      const char* name;
      DatasetPreset preset;
      double scale;
    } inputs[] = {{"jokes", DatasetPreset::kJokes, 1.0},
                  {"protein", DatasetPreset::kProtein, 1.0},
                  {"image", DatasetPreset::kImage, 1.0},
                  {"words", DatasetPreset::kWords, 0.3}};
    uint64_t i = 0;
    for (const auto& in : inputs) {
      Input r;
      r.name = in.name;
      r.scale = Scale(in.scale);
      r.rel = jpmm::MakePreset(in.preset, r.scale, InputSeed(args_.seed, i++));
      inputs_.push_back(std::move(r));
      queries_.push_back({in.name, in.name});
    }
    queries_.push_back(
        {"words-csr-csr", "words", jpmm::HeavyPathMode::kForceCsrCsr});
  }

  void Setup() override {
    engine_ = std::make_unique<QueryEngine>();
    for (Input& r : inputs_) {
      AddTimed(*engine_, r.name, std::move(r.rel), &setup_layers_);
    }
    for (Query& q : queries_) {
      QuerySpec spec;
      spec.kind = jpmm::QueryKind::kTwoPath;
      spec.relations = {q.relation};
      spec.count_witnesses = true;
      PrepareTimed(*engine_, spec, &q.prepared, &setup_layers_);
    }
    for (Query& q : queries_) {
      jpmm::CountOnlySink sink;
      BookFirst(q.name, Execute(engine_.get(), nullptr, q.prepared, sink,
                                Opts(q), args_.trace));
    }
    std::string scales;
    for (const Input& r : inputs_) {
      if (!scales.empty()) scales += ", ";
      scales += "\"" + r.name + "\": " + std::to_string(r.scale);
    }
    SetRecord(scales, threads_);
  }

  void BuildOracles() override {
    for (Input& r : inputs_) {
      r.oracle = TwoPathOracle(*engine_->catalog().IndexSnapshot(r.name),
                               /*keep_keys=*/false, threads_);
      if (args_.corrupt_oracle) Corrupt(&r.oracle);
    }
    for (Query& q : queries_) {
      for (const Input& r : inputs_) {
        if (r.name == q.relation) q.oracle = &r.oracle;
      }
      q.deadline.Seed([&] {
        jpmm::CountOnlySink sink;
        return Execute(engine_.get(), nullptr, q.prepared, sink, Opts(q),
                       false);
      });
    }
  }

  void Round(int, uint64_t, bool traced, Tally* t) override {
    for (Query& q : queries_) {
      jpmm::CountOnlySink count;
      Outcome o =
          Execute(engine_.get(), nullptr, q.prepared, count, Opts(q), traced);
      Account(o, nullptr, CheckCount(*q.oracle, count.count(), false), t);
      q.deadline.Add(MsBetween(o.start, o.end));
      if (traced) {
        t->layers.AddExecution(o.spans, o.stats, threads_, count.count());
      }

      jpmm::OrderedBySink top(jpmm::ResultOrder::kCountDescending, kTopK);
      o = Execute(engine_.get(), nullptr, q.prepared, top, Opts(q), traced);
      Account(o, nullptr, CheckTop(*q.oracle, top.ranked()), t);
      if (traced) {
        t->layers.AddExecution(o.spans, o.stats, threads_, top.ranked().size());
      }

      jpmm::CancelToken token;
      const Clock::time_point deadline = ArmDeadline(q.deadline.ms(), &token);
      ExecOptions opts = Opts(q);
      opts.cancel = &token;
      jpmm::CountOnlySink partial;
      o = Execute(engine_.get(), nullptr, q.prepared, partial, opts, traced);
      Account(o, &deadline,
              CheckCount(*q.oracle, partial.count(), o.stats.interrupted), t);
    }
  }

 private:
  struct Input {
    std::string name;
    double scale = 1;
    BinaryRelation rel;
    Digest oracle;
  };

  struct Query {
    std::string name;
    std::string relation;
    jpmm::HeavyPathMode heavy_path = jpmm::HeavyPathMode::kAuto;
    PreparedQuery prepared;
    const Digest* oracle = nullptr;  // the relation's, in inputs_
    HalfMedianDeadline deadline;
  };

  ExecOptions Opts(const Query& q) const {
    ExecOptions o;
    o.threads = threads_;
    o.heavy_path = q.heavy_path;
    return o;
  }

  const int threads_ = DefaultThreads();
  std::vector<Input> inputs_;
  std::vector<Query> queries_;
  std::unique_ptr<QueryEngine> engine_;
};

// ---- star-dedup ----------------------------------------------------------
//
// One client at min(4, nproc) threads. The k=3 self star over kInstances
// Jokes instances (one input seed each, so a run averages over inputs)
// into a CountOnlySink: the light pass and the global tuple sort/dedup in
// sink-finish do most of the work. A round runs each instance once, and
// after every third query one instance (round-robin) with a deadline at
// half its median latency, so every fourth query exercises star
// cancellation.
class StarDedup : public Workload {
 public:
  using Workload::Workload;

  void Generate() override {
    for (int i = 0; i < kInstances; ++i) {
      Instance& in = instances_[i];
      in.name = "jokes" + std::to_string(i);
      in.rel = jpmm::MakePreset(DatasetPreset::kJokes, Scale(kScale),
                                InputSeed(args_.seed, i));
    }
  }

  void Setup() override {
    engine_ = std::make_unique<QueryEngine>();
    for (Instance& in : instances_) {
      AddTimed(*engine_, in.name, std::move(in.rel), &setup_layers_);
    }
    for (Instance& in : instances_) {
      QuerySpec spec;
      spec.kind = jpmm::QueryKind::kStar;
      spec.relations = {in.name, in.name, in.name};
      PrepareTimed(*engine_, spec, &in.prepared, &setup_layers_);
    }
    for (Instance& in : instances_) {
      jpmm::CountOnlySink sink;
      BookFirst(in.name + "-star3", Execute(engine_.get(), nullptr,
                                            in.prepared, sink, Opts(),
                                            args_.trace));
    }
    SetRecord("\"jokes\": " + std::to_string(Scale(kScale)), threads_);
  }

  void BuildOracles() override {
    for (Instance& in : instances_) {
      in.oracle = Star3Oracle(*engine_->catalog().IndexSnapshot(in.name));
      if (args_.corrupt_oracle) Corrupt(&in.oracle);
      in.deadline.Seed([&] {
        jpmm::CountOnlySink sink;
        return Execute(engine_.get(), nullptr, in.prepared, sink, Opts(),
                       false);
      });
    }
  }

  void Round(int, uint64_t, bool traced, Tally* t) override {
    for (int i = 0; i < kInstances; ++i) {
      Instance& in = instances_[i];
      jpmm::CountOnlySink sink;
      const Outcome o =
          Execute(engine_.get(), nullptr, in.prepared, sink, Opts(), traced);
      Account(o, nullptr, CheckCount(in.oracle, sink.count(), false), t);
      in.deadline.Add(MsBetween(o.start, o.end));
      if (traced) {
        t->layers.AddExecution(o.spans, o.stats, threads_, sink.count());
      }
      if (i % 3 == 2) RunDeadline(traced, t);
    }
  }

 private:
  static constexpr double kScale = 0.1;
  static constexpr int kInstances = 6;

  struct Instance {
    std::string name;
    BinaryRelation rel;
    PreparedQuery prepared;
    Digest oracle;
    HalfMedianDeadline deadline;
  };

  void RunDeadline(bool traced, Tally* t) {
    Instance& in = instances_[next_deadline_++ % kInstances];
    jpmm::CancelToken token;
    const Clock::time_point deadline = ArmDeadline(in.deadline.ms(), &token);
    ExecOptions opts = Opts();
    opts.cancel = &token;
    jpmm::CountOnlySink sink;
    const Outcome o =
        Execute(engine_.get(), nullptr, in.prepared, sink, opts, traced);
    Account(o, &deadline,
            CheckCount(in.oracle, sink.count(), o.stats.interrupted), t);
  }

  ExecOptions Opts() const {
    ExecOptions o;
    o.threads = threads_;
    return o;
  }

  const int threads_ = DefaultThreads();
  Instance instances_[kInstances];
  uint64_t next_deadline_ = 0;
  std::unique_ptr<QueryEngine> engine_;
};

// ---- service-mixed -------------------------------------------------------
//
// min(4, nproc) clients through one QueryService with default options,
// each request at threads = 1. On these sparse presets the optimizer picks
// the WCOJ plan, so admission, catalog copy-on-write writes, Prepare, the
// plan cache and limit early exit do the work. A round is one cycle per
// DBLP shard: RoadNet fully materialized, the shard's LIMIT 1000, its page
// 2 (offset 1000, limit 1000), and RoadNet with a deadline at half its
// median latency. Client 0 also replaces `roadnet` once a round,
// alternating two variants, and every client re-Prepares when the catalog
// version moves.
//
// DBLP comes as kShards shards at a tenth of the preset's scale: a LIMIT
// 1000 query reads only the first 256-row chunk of its relation, so with
// one relation its latency would be a property of the seed's first rows.
class ServiceMixed : public Workload {
 public:
  using Workload::Workload;

  int clients() const override { return DefaultThreads(); }

  void Generate() override {
    for (int v = 0; v < 2; ++v) {
      roadnet_[v] = jpmm::MakePreset(DatasetPreset::kRoadNet, Scale(1.0),
                                     InputSeed(args_.seed, 10 + v));
    }
    for (int i = 0; i < kShards; ++i) {
      dblp_[i].name = "dblp" + std::to_string(i);
      dblp_[i].rel = jpmm::MakePreset(DatasetPreset::kDblp, Scale(kDblpScale),
                                      InputSeed(args_.seed, 20 + i));
    }
  }

  void Setup() override {
    BinaryRelation roadnet = roadnet_[0];  // variants stay for the writer
    engine_ = std::make_unique<QueryEngine>();
    service_ = std::make_unique<jpmm::QueryService>(engine_.get());
    for (Shard& d : dblp_) {
      AddTimed(*engine_, d.name, std::move(d.rel), &setup_layers_);
    }
    AddTimed(*engine_, "roadnet", std::move(roadnet), &setup_layers_);
    base_version_ = engine_->catalog().version();
    clients_.resize(static_cast<size_t>(clients()));
    for (size_t c = 0; c < clients_.size(); ++c) {
      Client& cl = clients_[c];
      Reprepare(&cl, &setup_layers_);
      jpmm::VectorSink all;
      Warm(c, "roadnet", Execute(engine_.get(), service_.get(), cl.roadnet,
                                 all, Opts(), args_.trace));
      cl.roadnet_first = false;
      for (int i = 0; i < kShards; ++i) {
        jpmm::LimitSink limit(kPage);
        Warm(c, dblp_[i].name,
             Execute(engine_.get(), service_.get(), cl.dblp[i], limit, Opts(),
                     args_.trace));
        cl.dblp_first[i] = false;
      }
    }
    SetRecord("\"roadnet\": " + std::to_string(Scale(1.0)) + ", \"dblp" +
                  std::to_string(kShards) + "x\": " +
                  std::to_string(Scale(kDblpScale)),
              1);
  }

  // The engine answers these queries with WCOJ, so the oracle is the
  // stamp-array evaluator, not the library's WcojFullJoinProject.
  void BuildOracles() override {
    for (int v = 0; v < 2; ++v) {
      roadnet_oracle_[v] =
          TwoPathStampOracle(jpmm::IndexedRelation(roadnet_[v]), true);
      if (args_.corrupt_oracle) Corrupt(&roadnet_oracle_[v]);
    }
    for (Shard& d : dblp_) {
      d.oracle =
          TwoPathStampOracle(*engine_->catalog().IndexSnapshot(d.name), true);
      if (args_.corrupt_oracle) Corrupt(&d.oracle);
    }
    for (Client& cl : clients_) {
      cl.deadline.Seed([&] {
        jpmm::VectorSink sink;
        return Execute(engine_.get(), nullptr, cl.roadnet, sink, Opts(),
                       false);
      });
    }
  }

  void Round(int client, uint64_t, bool traced, Tally* t) override {
    Client& cl = clients_[static_cast<size_t>(client)];
    if (client == 0) {
      const uint64_t w = ++writes_;
      BinaryRelation next = roadnet_[w % 2];
      const auto t0 = Clock::now();
      engine_->AddRelation("roadnet", std::move(next));
      t->layers.AddAddRelation(MsBetween(t0, Clock::now()));
      t->layers.AddWrite();
    }
    for (int shard = 0; shard < kShards; ++shard) {
      for (int op = 0; op < 4; ++op) RunOp(&cl, op, shard, traced, t);
    }
  }

  jpmm::ServiceStats ServiceCounts() const override {
    return service_->stats();
  }

 private:
  static constexpr uint64_t kPage = 1000;
  static constexpr int kShards = 10;
  static constexpr double kDblpScale = 0.1;

  struct Shard {
    std::string name;
    BinaryRelation rel;
    Digest oracle;
  };

  struct Client {
    PreparedQuery roadnet;
    PreparedQuery dblp[kShards];
    uint64_t version = 0;
    bool roadnet_first = true;
    bool dblp_first[kShards] = {};
    HalfMedianDeadline deadline;  // of the RoadNet deadline runs
  };

  void RunOp(Client* c, int op, int shard, bool traced, Tally* t) {
    Client& cl = *c;
    if (engine_->catalog().version() != cl.version) Reprepare(&cl, &t->layers);
    // Only the writer replaces relations and each Put bumps the version by
    // one, so the version parity names the variant a snapshot holds.
    const Digest& roadnet =
        roadnet_oracle_[(cl.roadnet.prepared_version() - base_version_) % 2];
    const Digest& dblp = dblp_[shard].oracle;

    switch (op) {
      case 0: {
        jpmm::VectorSink sink;
        const Outcome o = Execute(engine_.get(), service_.get(), cl.roadnet,
                                  sink, Opts(), traced);
        Account(o, nullptr, CheckPairs(roadnet, sink.pairs(), true), t);
        cl.deadline.Add(MsBetween(o.start, o.end));
        Book(o, traced, sink.size(), &cl.roadnet_first, t);
        break;
      }
      case 1: {
        jpmm::LimitSink sink(kPage);
        const Outcome o = Execute(engine_.get(), service_.get(),
                                  cl.dblp[shard], sink, Opts(), traced);
        Account(o, nullptr, CheckPage(dblp, sink.pairs(), 0, kPage, 0), t);
        Book(o, traced, sink.size(), &cl.dblp_first[shard], t);
        if (traced) t->layers.AddEarlyExit(o.stats);
        break;
      }
      case 2: {
        jpmm::PageSink sink(kPage, kPage);
        const Outcome o = Execute(engine_.get(), service_.get(),
                                  cl.dblp[shard], sink, Opts(), traced);
        Account(o, nullptr,
                CheckPage(dblp, sink.pairs(), kPage, kPage, sink.skipped()),
                t);
        Book(o, traced, sink.size(), &cl.dblp_first[shard], t);
        if (traced) t->layers.AddEarlyExit(o.stats);
        break;
      }
      default: {
        jpmm::CancelToken token;
        const Clock::time_point deadline =
            ArmDeadline(cl.deadline.ms(), &token);
        ExecOptions opts = Opts();
        opts.cancel = &token;
        jpmm::VectorSink sink;
        const Outcome o = Execute(engine_.get(), service_.get(), cl.roadnet,
                                  sink, opts, traced);
        const bool complete = o.status.ok() && !o.stats.interrupted;
        Account(o, &deadline, CheckPairs(roadnet, sink.pairs(), complete), t);
        cl.roadnet_first = false;
        break;
      }
    }
  }

  ExecOptions Opts() const { return ExecOptions{}; }

  void Reprepare(Client* cl, LayerStats* layers) {
    QuerySpec spec;
    spec.kind = jpmm::QueryKind::kTwoPath;
    spec.relations = {"roadnet"};
    PrepareTimed(*engine_, spec, &cl->roadnet, layers);
    cl->roadnet_first = true;
    for (int i = 0; i < kShards; ++i) {
      spec.relations = {dblp_[i].name};
      PrepareTimed(*engine_, spec, &cl->dblp[i], layers);
      cl->dblp_first[i] = true;
    }
    cl->version = cl->roadnet.prepared_version();
  }

  /// Books a warm-up: client 0's plans go into the run record, every
  /// client's traces into the set-up layer stats.
  void Warm(size_t client, const std::string& query, const Outcome& o) {
    if (client == 0) {
      BookFirst(query, o);
    } else if (!o.spans.empty()) {
      setup_layers_.AddFirstExecution(o.spans);
    }
  }

  /// Books a measured execution's trace; the first one after a Prepare
  /// also counts as a first execution (plan.first_ms).
  void Book(const Outcome& o, bool traced, uint64_t rows, bool* first,
            Tally* t) {
    if (traced) {
      t->layers.AddExecution(o.spans, o.stats, 1, rows);
      if (*first) t->layers.AddFirstExecution(o.spans);
    }
    *first = false;
  }

  BinaryRelation roadnet_[2];
  Digest roadnet_oracle_[2];
  Shard dblp_[kShards];
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<jpmm::QueryService> service_;
  uint64_t base_version_ = 0;
  std::vector<Client> clients_;
  uint64_t writes_ = 0;  // client 0 only
};

// ---- the run -------------------------------------------------------------

struct Phase {
  Tally tally;
  /// Verified queries of all clients over the phase's wall time.
  double qps = 0;
};

/// Runs every client's closed loop until `seconds` have passed (a round
/// that started in time completes).
Phase RunPhase(Workload& w, double seconds, bool traced) {
  const int n = w.clients();
  std::vector<Tally> tallies(static_cast<size_t>(n));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto body = [&](int c) {
    Tally& t = tallies[static_cast<size_t>(c)];
    for (uint64_t r = 0; r == 0 || Clock::now() < stop; ++r) {
      w.Round(c, r, traced, &t);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < n; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();
  const double wall_ms = MsBetween(start, Clock::now());
  Phase p;
  for (Tally& t : tallies) p.tally.Merge(std::move(t));
  p.qps = static_cast<double>(p.tally.attempted - p.tally.failed) * 1e3 /
          wall_ms;
  return p;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "twopath-dense") return std::make_unique<TwoPathDense>(a);
  if (a.workload == "star-dedup") return std::make_unique<StarDedup>(a);
  if (a.workload == "service-mixed") return std::make_unique<ServiceMixed>(a);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const bool has_value = i + 1 < argc;
    if (f == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (f == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (f == "--seconds" && has_value) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (f == "--record" && has_value) {
      a->record = argv[++i];
    } else if (f == "--trace") {
      a->trace = true;
    } else if (f == "--setup-only") {
      a->setup_only = true;
    } else if (f == "--smoke") {
      a->smoke = true;
    } else if (f == "--corrupt-oracle") {
      a->corrupt_oracle = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_driver --workload "
                 "twopath-dense|star-dedup|service-mixed --seed N --seconds S "
                 "[--trace] [--setup-only] [--smoke] [--corrupt-oracle] "
                 "[--record FILE]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (!w) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }

  Clock::time_point t0 = Clock::now();
  w->Generate();
  const double datagen_s = MsBetween(t0, Clock::now()) / 1e3;
  t0 = Clock::now();
  w->Setup();
  const double setup_s = MsBetween(t0, Clock::now()) / 1e3;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.9f}\n", setup_s);
    return 0;
  }
  w->BuildOracles();

  std::vector<Metric> metrics;
  Phase measured;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  std::vector<std::string> problems;
  auto count = [&](const Phase& p) {
    attempted += p.tally.attempted;
    failed += p.tally.failed;
    wrong += p.tally.wrong;
    problems.insert(problems.end(), p.tally.problems.begin(),
                    p.tally.problems.end());
  };
  if (!args.trace) {
    measured = RunPhase(*w, args.seconds, false);
    count(measured);
    const Tally& t = measured.tally;
    std::vector<double> lat = t.latency_ms;
    std::vector<double> over = t.overshoot_ms;
    const double failed_frac =
        static_cast<double>(t.failed) / static_cast<double>(t.attempted);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"qps", measured.qps, "1/s"},
        {"latency_p50_ms", Quantile(&lat, 0.5), "ms"},
        {"latency_p90_ms", Quantile(&lat, 0.9), "ms"},
        {"ok_frac", 1.0 - failed_frac, "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"cancel_overshoot_p50_ms", Quantile(&over, 0.5), "ms"},
    };
    std::printf("# latency samples: %zu, deadline samples: %zu, "
                "failed_frac: %.6f\n",
                lat.size(), over.size(), failed_frac);
  } else {
    jpmm::Counter& operand_bytes = jpmm::MetricsRegistry::Global().GetCounter(
        "jpmm_join_heavy_operand_bytes_total");
    const Phase untraced = RunPhase(*w, args.seconds / 2, false);
    count(untraced);
    const uint64_t bytes0 = operand_bytes.value();
    const jpmm::ServiceStats svc0 = w->ServiceCounts();
    measured = RunPhase(*w, args.seconds / 2, true);
    count(measured);
    const jpmm::ServiceStats svc1 = w->ServiceCounts();
    LayerStats layers = w->setup_layers();
    layers.Merge(measured.tally.layers);
    layers.Emit(datagen_s,
                static_cast<double>(operand_bytes.value() - bytes0) /
                    static_cast<double>(measured.tally.attempted),
                &metrics);
    metrics.push_back({"service.shed", double(svc1.shed - svc0.shed), "count"});
    metrics.push_back(
        {"service.degraded", double(svc1.degraded - svc0.degraded), "count"});
    metrics.push_back({"service.deadline_exceeded",
                       double(svc1.deadline_exceeded - svc0.deadline_exceeded),
                       "count"});
    metrics.push_back(
        {"trace.overhead_frac", 1.0 - measured.qps / untraced.qps, "ratio"});
  }

  for (const Metric& m : metrics) {
    std::printf("# %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("# FAILED: %s\n", p.c_str());
  }

  std::ostringstream rec;
  rec << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"smoke\": "
      << (args.smoke ? "true" : "false") << ", \"isa\": \""
      << jpmm::KernelIsaName(jpmm::ActiveIsa()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", " << w->record()
      << ", \"latency_samples\": " << measured.tally.latency_ms.size()
      << ", \"deadline_samples\": " << measured.tally.overshoot_ms.size()
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << MetricsJson(metrics) << "}";
  std::printf("# record: %s\n", rec.str().c_str());
  if (!args.record.empty()) std::ofstream(args.record) << rec.str() << "\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
