// Place-and-serve benchmark: one workload in one process.
//
//   perfbench_workload --workload=<name> --seed=<n> --seconds=<s>
//                      [--trace=0|1] [--spans=<path>]
//
// Generates the deployment's corpus and a January/February trace pair
// drawn from the seed, builds the index (set-up), then repeats the
// workload's pass — plans, healthy replays, closed-loop query chunks,
// fault replays, a churned service replay and an event-simulator rung —
// until the time budget is spent; the first pass also runs the whole
// event-simulator ladder and a 1-thread replay. Every operation checks its outputs; a failed check or an
// exception counts as a failed operation. The last stdout line is one
// JSON object with every end-to-end metric (and, with --trace=1, every
// per-layer metric); the human summary goes to stderr.
//
// --trace=1 runs exactly one pass with the metrics registry on and the
// benchmark's spans recorded, plus stand-alone calls that split the
// optimizer constructor and the lprr strategy into their stages. Those
// stand-alone calls run with the registry off, so registry counts cover
// the pass itself. Spans are written to --spans at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/component_solver.hpp"
#include "core/correlation.hpp"
#include "core/hypergraph.hpp"
#include "core/migration.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placement_map.hpp"
#include "core/rounding.hpp"
#include "harness.hpp"
#include "lp/basis.hpp"
#include "search/block_postings.hpp"
#include "search/inverted_index.hpp"
#include "search/query_engine.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "sim/faults.hpp"
#include "sim/placement_service.hpp"
#include "sim/pool_map.hpp"
#include "sim/replay.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

using namespace cca;
using perfbench::kEndToEnd;
using perfbench::kPerLayer;
using perfbench::MetricDef;
using perfbench::Tracer;
using Span = perfbench::Tracer::Span;

namespace {

// Shape shared by every workload.
constexpr std::size_t kVocabulary = 20000;
constexpr std::size_t kDocuments = 30000;
constexpr double kWordsPerDoc = 80.0;
constexpr std::size_t kQueries = 400000;  // per month
constexpr std::size_t kTopics = 1000;
constexpr int kNodes = 16;
constexpr std::size_t kScope = 4000;
constexpr int kSetups = 3;  // before the first pass; later passes add one
// The corpus, the topic model and the optimizer's seed are one fixed
// deployment; --seed draws its traffic (the January/February samples and
// the arrival streams), so runs on different seeds compare like with like.
constexpr std::uint64_t kWorldSeed = 1;
// The closed loop runs February in chunks of this many queries, so latency
// samples spread over the whole run.
constexpr std::size_t kChunkQueries = 50000;
// Serving clocks: fault and service replays arrive at this open-loop rate,
// so the February trace spans 400 s of arrival time.
constexpr double kArrivalQps = 1000.0;
// Event simulator over all of February: doubling ladder, NIC speed, the
// knee's p99 limit, and the rate whose p99 (and wall-clock processing
// rate) is reported. Near a knee p99 swings with the traffic sample (5 to
// 8 ms at 16000 qps across lprr seeds), so the reported rate is the
// lightest rung.
constexpr double kLadder[] = {2000, 4000, 8000, 16000, 32000, 64000};
constexpr double kReportedRateQps = 2000.0;
constexpr double kNicMbps = 40.0;
constexpr double kLatencyLimitMs = 10.0;

struct Spec {
  const char* name;
  const char* strategy;
  double mean_query_length;
  /// true: churn rebuilds re-optimize through IncrementalOptimizer with a
  /// shared LP warm cache; false: hash-tail rebalance keeping the plan's
  /// pins (no LP solve anywhere in the workload).
  bool incremental_rebuild;
  // Operations per pass, interleaved.
  int plans;
  int replays;
  int closed_chunks;
  int fault_replays;
  int churn_events;  // scripted events in the pass's service replay
};

constexpr Spec kSpecs[] = {
    {"short-lprr", "lprr", 2.54, true, 3, 1, 1, 1, 2},
    {"long-hypergraph", "hypergraph", 6.0, false, 1, 2, 3, 1, 16},
    {"serve-churn", "lprr", 2.54, true, 2, 3, 4, 2, 2},
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_stats(const sim::ReplayStats& a, const sim::ReplayStats& b) {
  return a.queries == b.queries &&
         a.multi_keyword_queries == b.multi_keyword_queries &&
         a.local_queries == b.local_queries && a.total_bytes == b.total_bytes &&
         a.total_messages == b.total_messages &&
         a.mean_bytes_per_query == b.mean_bytes_per_query &&
         a.p99_bytes_per_query == b.p99_bytes_per_query &&
         a.mean_latency_ms == b.mean_latency_ms &&
         a.p99_latency_ms == b.p99_latency_ms &&
         a.max_storage_factor == b.max_storage_factor &&
         a.storage_imbalance == b.storage_imbalance;
}

/// Every keyword resolves to a node in [0, nodes).
bool nodes_in_range(const core::PlacementMap& map, int nodes) {
  if (map.num_nodes() != nodes) return false;
  for (trace::KeywordId k = 0; k < map.vocabulary_size(); ++k) {
    const int node = map.primary(k);
    if (node < 0 || node >= nodes) return false;
  }
  return true;
}

std::int64_t counter(const char* name) {
  return common::MetricsRegistry::global().counter(name).total();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Workload {
 public:
  Workload(const Spec& spec, std::uint64_t seed, bool traced)
      : spec_(spec), seed_(seed), tracer_(traced) {}

  void run(double seconds) {
    generate();
    for (int i = 0; i < kSetups; ++i) setup();
    const auto start = std::chrono::steady_clock::now();
    for (int pass = 0;; ++pass) {
      const double next_pass = run_pass(pass);
      if (tracer_.on() || seconds_since(start) + next_pass > seconds) break;
    }
  }

  /// The result line: every end-to-end metric (plus every per-layer
  /// metric when traced) with its unit and sample count.
  void print_result(std::ostream& out) {
    if (tracer_.on()) derive_per_layer();

    out << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << seed_
        << ", \"traced\": " << (tracer_.on() ? "true" : "false")
        << ", \"correct\": " << (failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const MetricDef& def) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", value_of(def.name));
      out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
          << value << ", \"unit\": \"" << def.unit
          << "\", \"samples\": " << samples_of(def.name) << "}";
      first = false;
    };
    for (const MetricDef& def : kEndToEnd) emit(def);
    if (tracer_.on())
      for (const MetricDef& def : kPerLayer) emit(def);
    out << "}}\n";
  }

  /// Peak resident set of this process, read after the first pass (later
  /// passes only repeat its work, so the run length cannot move it).
  void record_peak_rss() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    set("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  }

  void print_summary(std::ostream& err) {
    err << "workload " << spec_.name << " seed " << seed_
        << (tracer_.on() ? " (traced)" : "") << ": " << attempted_
        << " operations, " << failed_ << " failed\n";
    err << "  event-sim p99 ms by rate:" << ladder_note_.str()
        << "\n";
    for (const MetricDef& def : kEndToEnd) {
      err << "  " << def.name << " = " << value_of(def.name) << " "
          << def.unit << "  (n=" << samples_of(def.name);
      if (samples_of(def.name) > 1) {
        const auto [lo, hi] = std::minmax_element(samples_[def.name].begin(),
                                                  samples_[def.name].end());
        err << ", range " << *lo << " .. " << *hi;
      }
      err << ")\n";
    }
  }

  /// The traced run's dump: every span, plus the registry as it stood at
  /// the end of the pass.
  void write_spans(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << "{\"spans\": ";
    tracer_.write_json(out, spec_.name);
    out << ",\n\"registry\": ";
    common::MetricsRegistry::global().write_json(out);
    out << "}\n";
  }

 private:
  // --- result bookkeeping -------------------------------------------------

  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  void set(const std::string& name, double v) { samples_[name] = {v}; }
  double value_of(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : perfbench::median(it->second);
  }
  std::size_t samples_of(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }

  /// Runs one operation; false from `fn` (a failed output check) or an
  /// exception counts it as failed.
  template <typename Fn>
  void op(const char* what, Fn&& fn) {
    ++attempted_;
    try {
      if (!fn()) {
        ++failed_;
        std::cerr << "check failed: " << what << "\n";
      }
    } catch (const std::exception& e) {
      ++failed_;
      std::cerr << what << " threw: " << e.what() << "\n";
    }
  }

  // --- inputs and set-up --------------------------------------------------

  void generate() {
    Span span(tracer_, "trace.generate");
    trace::WorkloadConfig wc;
    wc.vocabulary_size = kVocabulary;
    wc.num_topics = kTopics;
    wc.topic_size = 8;
    wc.topic_coherence = 0.9;
    wc.mean_query_length = spec_.mean_query_length;
    wc.seed = kWorldSeed;
    const trace::WorkloadModel model(wc);
    january_ = model.generate(kQueries, seed_ * 7919 + 1);
    february_ = model.generate(kQueries, seed_ * 104729 + 2);
    trace::CorpusConfig cc;
    cc.num_documents = kDocuments;
    cc.vocabulary_size = kVocabulary;
    cc.mean_distinct_words = kWordsPerDoc;
    cc.seed = kWorldSeed;
    corpus_ = trace::Corpus::generate(cc);
    set("trace.generate_s", span.stop());
    for (const trace::Query& q : february_.queries())
      max_width_ = std::max(max_width_, q.size());
  }

  /// Set-up: the inverted index plus the query engine's block encode.
  void setup() {
    op("setup", [&] {
      Span span(tracer_, "search.setup");
      {
        Span build(tracer_, "search.index_build");
        index_ = search::InvertedIndex::build(corpus_);
      }
      {
        Span encode(tracer_, "search.engine_build");
        engine_ = std::make_unique<search::QueryEngine>(*index_);
      }
      add("setup_s", span.stop());
      sizes_ = index_->index_sizes();
      total_bytes_ = static_cast<double>(index_->total_bytes());
      return index_->vocabulary_size() == kVocabulary && total_bytes_ > 0.0;
    });
  }

  core::PartialOptimizerConfig optimizer_config(int nodes) const {
    core::PartialOptimizerConfig cfg;
    cfg.num_nodes = nodes;
    cfg.scope = kScope;
    cfg.seed = kWorldSeed;
    cfg.capacity_slack = 2.0;
    cfg.rounding.trials = 16;
    return cfg;
  }

  core::PlacementMapConfig map_config(int nodes, std::uint64_t epoch) const {
    core::PlacementMapConfig cfg;
    cfg.num_nodes = nodes;
    cfg.epoch = epoch;
    return cfg;
  }

  double capacity(int nodes) const { return 2.0 * total_bytes_ / nodes; }

  // --- the pass -----------------------------------------------------------

  /// One pass; returns its seconds less the first pass's extra work, the
  /// estimate of what the next pass takes.
  double run_pass(int pass) {
    const auto start = std::chrono::steady_clock::now();
    double first_only = 0.0;
    if (pass > 0) setup();
    plan();
    if (!map_) return seconds_since(start);  // failures already counted
    if (pass == 0) {
      replay();
      const auto extra = std::chrono::steady_clock::now();
      replay_single_thread();
      ladder();
      first_only = seconds_since(extra);
    }
    const int rounds = std::max({spec_.plans, spec_.replays,
                                 spec_.closed_chunks, spec_.fault_replays});
    for (int i = 0; i < rounds; ++i) {
      if (i > 0 && i < spec_.plans) plan();
      if (i < spec_.replays && (pass > 0 || i > 0)) replay();
      if (i < spec_.closed_chunks) {
        const std::size_t begin = (next_chunk_++ * kChunkQueries) % kQueries;
        closed_loop(begin, begin + kChunkQueries);
      }
      if (i < spec_.fault_replays) fault_replay();
    }
    churn();
    if (pass > 0) reported_rung();
    if (pass == 0) {
      record_peak_rss();
      if (tracer_.on()) decompose();
    }
    return seconds_since(start) - first_only;
  }

  /// January trace to published epoch, with a fresh optimizer (its LP
  /// warm cache would otherwise turn repeats into warm hits).
  void plan() {
    op("plan", [&] {
      if (!service_)
        service_ = std::make_unique<sim::PlacementService>(
            std::make_shared<const core::PlacementMap>(
                core::PlacementMap::hashed(kVocabulary,
                                           map_config(kNodes, 0))));
      Span span(tracer_, "core.plan");
      std::unique_ptr<core::PartialOptimizer> optimizer;
      {
        Span ctor(tracer_, "core.optimizer_ctor");
        optimizer = std::make_unique<core::PartialOptimizer>(
            january_, sizes_, optimizer_config(kNodes));
      }
      core::PlacementPlan result;
      {
        Span strategy(tracer_,
                      std::string("core.strategy.") + spec_.strategy);
        result = optimizer->run(spec_.strategy);
      }
      std::shared_ptr<const core::PlacementMap> map;
      {
        Span build(tracer_, "core.map_build");
        map = std::make_shared<const core::PlacementMap>(
            core::PlacementMap::build(
                result.keyword_to_node,
                map_config(kNodes, service_->epoch() + 1)));
      }
      {
        Span publish(tracer_, "sim.publish");
        service_->publish(map);
      }
      add("plan_s", span.stop());

      bool ok = nodes_in_range(*map, kNodes) &&
                result.keyword_to_node.size() == kVocabulary;
      for (trace::KeywordId k = 0; ok && k < kVocabulary; ++k)
        ok = map->primary(k) == result.keyword_to_node[k];
      if (!map_) {
        plan_ = std::move(result);
        map_ = map;
        optimizer_ = std::move(optimizer);
        set("max_load_factor", plan_.max_load_factor);
        set("lambda_per_query",
            core::trace_lambda_cost(february_, plan_.keyword_to_node));
      } else {
        ok = ok && result.keyword_to_node == plan_.keyword_to_node;
      }
      return ok;
    });
  }

  sim::ReplayStats replay_once(sim::ReplayCapture* capture = nullptr) {
    sim::Cluster cluster(kNodes, capacity(kNodes));
    cluster.install_placement(map_, sizes_);
    return sim::replay_trace(cluster, *index_, february_,
                             sim::OperationKind::kIntersection, {}, {},
                             capture);
  }

  /// Healthy replay of February on the pool (4 threads).
  void replay() {
    op("replay", [&] {
      Span span(tracer_, "sim.replay");
      const sim::ReplayStats stats = replay_once();
      add("replay_qps", static_cast<double>(stats.queries) / span.stop());
      if (!reference_) {
        reference_ = stats;
        set("bytes_per_query", stats.mean_bytes_per_query);
      }
      return stats.queries == kQueries && same_stats(stats, *reference_);
    });
  }

  /// The same replay on one thread: statistics must be identical.
  void replay_single_thread() {
    op("replay 1 vs 4 threads", [&] {
      common::set_global_threads(1);
      const struct Restore {
        int threads;
        ~Restore() { common::set_global_threads(threads); }
      } restore{threads_};
      sim::ReplayCapture capture;
      Span span(tracer_, "sim.replay_1t");
      const sim::ReplayStats stats = replay_once(&capture);
      set("sim.replay_qps_1t", static_cast<double>(stats.queries) / span.stop());
      // Prefix sums of per-query bytes: the closed loop's reference.
      prefix_bytes_.assign(1, 0);
      for (const double b : capture.per_query_bytes)
        prefix_bytes_.push_back(prefix_bytes_.back() +
                                static_cast<std::uint64_t>(b));
      return reference_ && same_stats(stats, *reference_) &&
             prefix_bytes_.back() == reference_->total_bytes;
    });
  }

  /// Closed loop, one client: February queries [begin, end) run one at a
  /// time through QueryEngine::execute_intersection, resolving via the
  /// installed map, with the client's own scratch. Their bytes must match
  /// the replay's per-query bytes over the same range (whose total over
  /// February is replay_trace's total_bytes).
  void closed_loop(std::size_t begin, std::size_t end) {
    op("closed loop", [&] {
      search::QueryScratch scratch;
      scratch.reserve(max_width_, engine_->max_postings());
      scratch.begin_epoch(map_->cache_token());
      const core::PlacementMap& map = *map_;
      const auto placement = [&map](trace::KeywordId k) {
        return map.resolve(k);
      };
      const std::vector<trace::Query>& queries = february_.queries();
      std::vector<double> latency_us;
      latency_us.reserve(end - begin);
      std::uint64_t bytes = 0;
      const std::int64_t fetched = counter("search.postings.fetched");
      {
        Span span(tracer_, "search.closed_loop");
        for (std::size_t q = begin; q < end; ++q) {
          const auto start = std::chrono::steady_clock::now();
          const search::QueryCost cost = engine_->execute_intersection(
              queries[q], placement, {}, &scratch);
          latency_us.push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count());
          bytes += cost.bytes_transferred;
        }
      }
      const double n = static_cast<double>(latency_us.size());
      add("query_p50_us", common::percentile(latency_us, 50.0));
      add("query_p99_us", common::percentile(latency_us, 99.0));
      if (samples_of("search.closed_loop.samples") == 0) {
        const search::DecodedBlockCache& cache = scratch.cache();
        set("search.closed_loop.samples", n);
        set("search.block_cache.hit_ratio",
            ratio(static_cast<double>(cache.hits()),
                  static_cast<double>(cache.hits() + cache.misses())));
        set("search.postings_per_query",
            static_cast<double>(counter("search.postings.fetched") -
                                fetched) /
                n);
      }
      return perfbench::highest_supported_percentile(latency_us.size()) >=
                 990000 &&
             prefix_bytes_.size() == kQueries + 1 &&
             bytes == prefix_bytes_[end] - prefix_bytes_[begin];
    });
  }

  /// Degree-2 rack-spread replicas on a 4-rack topology; rack 1 is down
  /// for the second quarter of the arrival window.
  void fault_replay() {
    op("fault replay", [&] {
      if (!fault_map_) {
        pool_ = sim::PoolMap::grid(1, 4, kNodes / 4);
        core::PlacementMapConfig cfg = map_config(kNodes, 0);
        cfg.degree = 2;
        cfg.spread = core::ReplicaSpread::kRack;
        cfg.node_rack = pool_.node_rack();
        cfg.rack_row = pool_.rack_row();
        cfg.pool_version = pool_.version();
        fault_map_ = std::make_shared<const core::PlacementMap>(
            core::PlacementMap::build(plan_.keyword_to_node, cfg));
        const double window_ms = 1000.0 * kQueries / kArrivalQps;
        schedule_ = sim::FaultSchedule::from_domain_events(
            pool_, {{0.25 * window_ms, sim::FaultDomain::kRack, 1,
                     sim::FaultEventKind::kCrash},
                    {0.5 * window_ms, sim::FaultDomain::kRack, 1,
                     sim::FaultEventKind::kRecover}});
      }
      sim::Cluster cluster(kNodes, capacity(kNodes));
      cluster.install_placement(fault_map_, sizes_);
      sim::FaultReplayConfig cfg;
      cfg.faults = &schedule_;
      cfg.retry.seed = seed_;
      cfg.arrival_rate_qps = kArrivalQps;
      cfg.arrival_seed = seed_;
      Span span(tracer_, "sim.fault_replay");
      const sim::FaultReplayStats stats = sim::replay_trace_with_faults(
          cluster, *index_, february_, cfg);
      add("degraded_replay_qps",
          static_cast<double>(stats.base.queries) / span.stop());
      if (samples_of("availability") == 0) {
        set("availability", stats.availability);
        set("sim.fault_replay.retries", static_cast<double>(stats.retries));
        set("sim.fault_replay.p99_ms", stats.base.p99_latency_ms);
      }
      return stats.base.queries == kQueries &&
             stats.fully_served + stats.degraded + stats.failed ==
                 stats.base.queries &&
             stats.availability == value_of("availability");
    });
  }

  /// The optimizer the incremental lane re-optimizes against at `nodes`;
  /// built once per size, outside the timed swaps.
  const core::PartialOptimizer& optimizer_for(int nodes) {
    if (nodes == kNodes) return *optimizer_;
    auto& opt = churn_optimizers_[nodes];
    if (!opt) {
      Span span(tracer_, "core.optimizer_ctor");
      opt = std::make_unique<core::PartialOptimizer>(
          january_, sizes_, optimizer_config(nodes));
    }
    return *opt;
  }

  /// One successor epoch for a churn event — the write path.
  std::shared_ptr<const core::PlacementMap> rebuild(
      const core::PlacementMap& current, const sim::ChurnEvent& event) {
    const int next = event.kind == sim::ChurnEvent::Kind::kAdd
                         ? current.num_nodes() + 1
                         : current.num_nodes() - 1;
    const core::PartialOptimizer* optimizer =
        spec_.incremental_rebuild ? &optimizer_for(next) : nullptr;
    Span span(tracer_, "sim.rebuild");
    std::shared_ptr<const core::PlacementMap> out;
    if (optimizer) {
      // As bench_churn: start from the serving placement, evacuating
      // scope keywords stranded on a retiring node to their tail node.
      core::Placement current_scope(plan_.scope.size());
      for (std::size_t pos = 0; pos < plan_.scope.size(); ++pos) {
        int node = current.primary(plan_.scope[pos]);
        if (node >= next)
          node = core::tail_node(current.hash_tail(), plan_.scope[pos], next);
        current_scope[pos] = node;
      }
      core::IncrementalConfig inc;
      inc.migration_budget_fraction = 0.25;
      inc.rounding.trials = 16;
      inc.seed = kWorldSeed;
      inc.warm_cache = &rebuild_cache_;
      core::IncrementalResult res;
      {
        Span reopt(tracer_, "core.reoptimize");
        res = core::IncrementalOptimizer(inc).reoptimize(
            optimizer->scoped_instance(), current_scope);
      }
      std::vector<int> keyword_to_node(kVocabulary);
      for (trace::KeywordId k = 0; k < kVocabulary; ++k)
        keyword_to_node[k] = core::tail_node(current.hash_tail(), k, next);
      for (std::size_t pos = 0; pos < plan_.scope.size(); ++pos)
        keyword_to_node[plan_.scope[pos]] = res.placement[pos];
      core::PlacementMapConfig cfg = map_config(next, current.epoch() + 1);
      cfg.hash_tail = current.hash_tail();
      Span build(tracer_, "core.map_build");
      out = std::make_shared<const core::PlacementMap>(
          core::PlacementMap::build(keyword_to_node, cfg));
    } else {
      Span build(tracer_, "core.map_build");
      out = std::make_shared<const core::PlacementMap>(
          current.rebalanced(next));
    }
    add("epoch_swap_ms", 1000.0 * span.stop());
    return out;
  }

  /// February through the placement service while a script alternately
  /// adds and removes node 16.
  void churn() {
    op("service replay", [&] {
      std::vector<sim::ChurnEvent> events;
      const double window_ms = 1000.0 * kQueries / kArrivalQps;
      for (int i = 0; i < spec_.churn_events; ++i)
        events.push_back({i % 2 == 0 ? sim::ChurnEvent::Kind::kAdd
                                     : sim::ChurnEvent::Kind::kRemove,
                          window_ms * (i + 1) / (spec_.churn_events + 1),
                          kNodes});
      if (spec_.incremental_rebuild) optimizer_for(kNodes + 1);
      sim::PlacementService service(map_);
      sim::ServiceReplayConfig cfg;
      cfg.arrival_rate_qps = kArrivalQps;
      cfg.arrival_seed = seed_;
      cfg.rebuild = [this](const core::PlacementMap& current,
                           const sim::ChurnEvent& event) {
        return rebuild(current, event);
      };
      sim::ServiceReplayStats stats;
      {
        Span span(tracer_, "sim.service_replay");
        stats = sim::replay_trace_with_service(service, *index_, february_,
                                               events, cfg);
      }
      if (samples_of("moved_bytes_frac") == 0) {
        double moved = 0.0;
        for (const sim::EpochTransition& t : stats.transitions)
          moved += static_cast<double>(t.moved_bytes);
        set("moved_bytes_frac",
            ratio(moved / std::max<std::size_t>(1, stats.transitions.size()),
                  total_bytes_));
      }
      return stats.base.queries == kQueries &&
             stats.transitions.size() == events.size() &&
             nodes_in_range(*service.acquire(), stats.final_num_nodes);
    });
  }

  /// One event-simulator rung, one arrival per February query; a rung at
  /// the reported rate also samples sim_wall_qps.
  perfbench::Rung rung(double rate) {
    sim::Cluster cluster(kNodes, capacity(kNodes));
    cluster.install_placement(map_, sizes_);
    sim::EventSimConfig cfg;
    cfg.arrival_rate_qps = rate;
    cfg.nic_mbps = kNicMbps;
    cfg.num_queries = kQueries;
    cfg.seed = seed_;
    Span span(tracer_, "sim.eventsim");
    const sim::EventSimStats stats =
        sim::simulate_load(cluster, *index_, february_, cfg);
    const double secs = span.stop();
    if (rate == kReportedRateQps)
      add("sim_wall_qps", static_cast<double>(kQueries) / secs);
    if (stats.completed != kQueries)
      throw std::runtime_error("event sim lost arrivals");
    return {rate, kQueries, stats.p99_latency_ms, stats.makespan_ms};
  }

  /// The ladder, once per run: p99 at the reported rate, and the knee.
  /// Rungs past the first miss cannot move the knee, so it stops there.
  void ladder() {
    op("event-sim ladder", [&] {
      std::vector<perfbench::Rung> rungs;
      for (const double rate : kLadder) {
        rungs.push_back(rung(rate));
        ladder_note_ << " " << rate << ":" << rungs.back().p99_ms;
        if (rate == kReportedRateQps) set("sim_p99_ms", rungs.back().p99_ms);
        if (perfbench::find_knee(rungs, kLatencyLimitMs).rungs < rungs.size())
          break;
      }
      const perfbench::Knee knee = perfbench::find_knee(rungs, kLatencyLimitMs);
      set("sim.knee_qps", knee.rate_qps);
      ladder_note_ << " (knee " << knee.rate_qps << " qps)";
      bool ok = knee.rungs > 0 && samples_of("sim_p99_ms") == 1;
      for (std::size_t i = 0; i < knee.rungs; ++i)
        ok = ok && perfbench::backlog_bounded(rungs[i], kLatencyLimitMs);
      return ok;
    });
  }

  /// The reported rate's rung again: the same p99, a new wall-clock sample.
  void reported_rung() {
    op("event-sim rung", [&] {
      return rung(kReportedRateQps).p99_ms == value_of("sim_p99_ms");
    });
  }

  // --- traced-only stage split -------------------------------------------

  /// Stand-alone calls into the stages the optimizer constructor and the
  /// lprr strategy run internally, plus the decode and resolve kernels.
  /// The registry is off meanwhile, so its counts stay the pass's own.
  void decompose() {
    op("stage split", [&] {
      auto& registry = common::MetricsRegistry::global();
      registry.set_enabled(false);
      struct Reenable {
        ~Reenable() { common::MetricsRegistry::global().set_enabled(true); }
      } reenable;

      const core::PartialOptimizerConfig& cfg = optimizer_->config();
      std::vector<core::KeywordPairWeight> pairs;
      {
        Span span(tracer_, "core.mine");
        pairs = core::mine_pair_weights(january_, sizes_,
                                        cfg.operation_model, cfg.miner);
      }
      {
        Span span(tracer_, "core.rank");
        core::importance_ranking(pairs, sizes_);
      }
      std::size_t hyperedges = 0;
      {
        Span span(tracer_, "core.hyperedges");
        hyperedges = core::build_hyperedges(january_).size();
      }
      set("core.pairs", static_cast<double>(pairs.size()));
      set("core.hyperedges", static_cast<double>(hyperedges));

      if (std::string(spec_.strategy) == "lprr") {
        // lprr's two stages on a cold cache, as a fresh plan runs them.
        lp::WarmStartCache cold;
        core::ComponentSolverOptions options{cfg.seed, cfg.component_fill};
        options.warm_cache = &cold;
        std::optional<core::FractionalPlacement> fractional;
        {
          Span span(tracer_, "core.component_lp");
          fractional.emplace(core::ComponentLpSolver(options).solve(
              optimizer_->scoped_instance()));
        }
        Span span(tracer_, "core.rounding");
        common::Rng rng(cfg.seed ^ 0xC0FFEE1234ULL);
        core::round_best_of(*fractional, optimizer_->scoped_instance(),
                            cfg.rounding, rng);
      }

      decode_rates();
      resolve_rate();
      return true;
    });
  }

  /// Whole-vocabulary decode, MB/s of decoded postings, median of sweeps.
  double decode_mbps(search::PostingCodec codec) {
    const search::CompressedIndex compressed(*index_, codec);
    std::uint64_t decoded = 0;
    for (trace::KeywordId k = 0; k < kVocabulary; ++k)
      decoded += 8 * compressed.postings_count(k);
    std::vector<std::uint64_t> out;
    out.reserve(compressed.max_postings());
    std::vector<double> rates;
    std::uint64_t sink = 0;
    Span span(tracer_, std::string("search.decode.") +
                           search::posting_codec_name(codec));
    for (int sweep = 0; sweep < 7; ++sweep) {
      const auto start = std::chrono::steady_clock::now();
      for (trace::KeywordId k = 0; k < kVocabulary; ++k) {
        compressed.decode(k, out);
        if (!out.empty()) sink += out.back();
      }
      rates.push_back(static_cast<double>(decoded) / seconds_since(start) /
                      1e6);
    }
    if (sink == 0) std::cerr << "";  // keeps the decode loop observable
    return perfbench::median(rates);
  }

  void decode_rates() {
    const double block = decode_mbps(search::PostingCodec::kBlock);
    const double varint = decode_mbps(search::PostingCodec::kVarint);
    set("search.decode_mbps", block);
    set("search.decode.block_vs_varint", ratio(block, varint));
  }

  /// PlacementMap::resolve per keyword, over the whole vocabulary.
  void resolve_rate() {
    const core::PlacementMap& map = *map_;
    constexpr int kSweeps = 50;
    std::int64_t sink = 0;
    Span span(tracer_, "core.resolve");
    for (int sweep = 0; sweep < kSweeps; ++sweep)
      for (trace::KeywordId k = 0; k < kVocabulary; ++k)
        sink += map.resolve(k).primary;
    set("core.resolve_ns", 1e9 * span.stop() / (kSweeps * kVocabulary));
    if (sink < 0) std::cerr << "";
  }

  /// Per-layer values from the spans and the registry, after the pass.
  void derive_per_layer() {
    const auto med = [&](const char* name) {
      return perfbench::median(tracer_.durations(name));
    };
    set("search.index_build_s", med("search.index_build"));
    const double mine = med("core.mine");
    const double rank = med("core.rank");
    const double edges = med("core.hyperedges");
    set("core.mine_s", mine);
    set("core.rank_s", rank);
    set("core.hyperedges_s", edges);
    set("core.instance_s", med("core.optimizer_ctor") - mine - rank - edges);
    set("core.strategy.lprr_s", med("core.strategy.lprr"));
    set("core.rounding_s", med("core.rounding"));
    set("core.strategy.hypergraph_s", med("core.strategy.hypergraph"));
    set("core.map_build_s", med("core.map_build"));
    set("sim.publish_s", med("sim.publish"));
    set("core.reoptimize_s", med("core.reoptimize"));
    set("sim.replay_s", med("sim.replay"));
    set("sim.replay.speedup",
        ratio(value_of("replay_qps"), value_of("sim.replay_qps_1t")));
    set("sim.fault_replay_s", med("sim.fault_replay"));
    set("sim.service_replay_s",
        perfbench::median(tracer_.self_durations("sim.service_replay")));
    set("sim.eventsim_s", med("sim.eventsim"));

    auto& reg = common::MetricsRegistry::global();
    set("core.rounding.feasible_ratio",
        ratio(static_cast<double>(counter("core.rounding.trials.feasible")),
              static_cast<double>(counter("core.rounding.trials"))));
    const common::Histogram& levels = reg.histogram("core.hypergraph.levels");
    set("core.hypergraph.levels", ratio(static_cast<double>(levels.sum()),
                                        static_cast<double>(levels.count())));
    set("lp.solve_s", 1e-9 * static_cast<double>(
                                 reg.timer("lp.solve").total_ns()));
    set("lp.iterations",
        static_cast<double>(counter("lp.iterations.phase1") +
                            counter("lp.iterations.phase2") +
                            counter("lp.iterations.dual")));
    const double hits = static_cast<double>(counter("lp.warm_start.hits"));
    set("lp.warm_start.hit_ratio",
        ratio(hits, hits + static_cast<double>(
                               counter("lp.warm_start.misses"))));
    set("lp.presolve.removed",
        static_cast<double>(counter("lp.presolve.rows_removed") +
                            counter("lp.presolve.cols_removed")));
    set("sim.eventsim.events",
        static_cast<double>(counter("sim.eventsim.events")));
  }

  const Spec& spec_;
  const std::uint64_t seed_;
  const int threads_ = common::configured_threads();
  Tracer tracer_;
  int attempted_ = 0;
  int failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  std::ostringstream ladder_note_;

  trace::QueryTrace january_;
  trace::QueryTrace february_;
  trace::Corpus corpus_;
  std::size_t max_width_ = 0;
  std::optional<search::InvertedIndex> index_;
  std::unique_ptr<search::QueryEngine> engine_;
  std::vector<std::uint64_t> sizes_;
  double total_bytes_ = 0.0;

  std::unique_ptr<sim::PlacementService> service_;
  std::unique_ptr<core::PartialOptimizer> optimizer_;
  core::PlacementPlan plan_;
  std::shared_ptr<const core::PlacementMap> map_;
  std::optional<sim::ReplayStats> reference_;
  std::vector<std::uint64_t> prefix_bytes_;  // per-query replay bytes, summed
  std::size_t next_chunk_ = 0;

  sim::PoolMap pool_;
  std::shared_ptr<const core::PlacementMap> fault_map_;
  sim::FaultSchedule schedule_;

  std::map<int, std::unique_ptr<core::PartialOptimizer>> churn_optimizers_;
  lp::WarmStartCache rebuild_cache_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::CliArgs args(argc, argv);
    const std::string name = args.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const double seconds = args.get_double("seconds", 10.0);
    const bool traced = args.get_int("trace", 0) != 0;
    const std::string spans = args.get_string("spans", "");
    args.reject_unused();

    const Spec* spec = nullptr;
    for (const Spec& s : kSpecs)
      if (name == s.name) spec = &s;
    if (!spec) {
      std::cerr << "unknown --workload '" << name
                << "' (short-lprr, long-hypergraph, serve-churn)\n";
      return 2;
    }
    common::set_global_threads(
        static_cast<int>(std::min(4u, std::max(1u,
            std::thread::hardware_concurrency()))));
    if (traced) common::MetricsRegistry::global().set_enabled(true);

    Workload workload(*spec, seed, traced);
    workload.run(seconds);
    workload.print_summary(std::cerr);
    if (traced && !spans.empty()) workload.write_spans(spans);
    workload.print_result(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_workload: " << e.what() << "\n";
    return 1;
  }
}
