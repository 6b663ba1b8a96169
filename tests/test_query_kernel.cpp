// The shared query kernel behind replay, fault replay and the event
// simulator: the event simulator's statistics are bit-identical for any
// thread count (healthy and under correlated rack faults, pinned to
// golden constants), and the per-shard liveness cursor answers exactly
// what FaultSchedule::alive() answers. Runs under the `sanitize` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/placement_map.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "sim/event_sim.hpp"
#include "sim/faults.hpp"
#include "sim/pool_map.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca::sim {
namespace {

struct ThreadsGuard {
  ~ThreadsGuard() { common::set_global_threads(0); }
};

/// Every field, compared bitwise (EXPECT_EQ on doubles is exact).
void expect_same(const EventSimStats& a, const EventSimStats& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
  EXPECT_EQ(a.p50_latency_ms, b.p50_latency_ms);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.max_nic_utilization, b.max_nic_utilization);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.fully_served, b.fully_served);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.mean_coverage, b.mean_coverage);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.failovers, b.failovers);
}

TEST(EventSim, BitIdenticalAcrossThreadCounts) {
  ThreadsGuard guard;
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 300;
  wcfg.num_topics = 30;
  wcfg.topic_size = 6;
  wcfg.seed = 17;
  // 3000 trace queries, 7000 arrivals: the healthy path extracts three
  // shards of chains and cycles them, the fault path resolves seven.
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(3000, 23);
  trace::CorpusConfig ccfg;
  ccfg.num_documents = 400;
  ccfg.vocabulary_size = 300;
  ccfg.mean_distinct_words = 40.0;
  ccfg.seed = 17;
  const search::InvertedIndex index =
      search::InvertedIndex::build(trace::Corpus::generate(ccfg));

  // Three racks of two nodes; degree-1 rack-spread replicas.
  const PoolMap pool = PoolMap::grid(1, 3, 2);
  std::vector<int> keyword_to_node(300);
  for (std::size_t k = 0; k < keyword_to_node.size(); ++k)
    keyword_to_node[k] = static_cast<int>(k % 6);
  core::PlacementMapConfig map_cfg;
  map_cfg.num_nodes = 6;
  map_cfg.degree = 1;
  map_cfg.spread = core::ReplicaSpread::kRack;
  map_cfg.node_rack = pool.node_rack();
  map_cfg.rack_row = pool.rack_row();
  map_cfg.pool_version = pool.version();
  Cluster cluster(6, 1e9);
  cluster.install_placement(
      std::make_shared<const core::PlacementMap>(
          core::PlacementMap::build(keyword_to_node, map_cfg)),
      index.index_sizes());

  FaultScheduleConfig fcfg;
  fcfg.mttf_ms = 3000.0;
  fcfg.mttr_ms = 300.0;
  fcfg.horizon_ms = 4000.0;
  fcfg.rack_mttf_ms = 1500.0;
  fcfg.rack_mttr_ms = 400.0;
  fcfg.seed = 5;
  const FaultSchedule schedule =
      FaultSchedule::generate_hierarchical(pool, fcfg);
  ASSERT_GT(schedule.crash_count(), 3u);

  EventSimConfig healthy;
  healthy.arrival_rate_qps = 2000.0;
  healthy.nic_mbps = 8.0;  // contended: the queueing order matters
  healthy.num_queries = 7000;
  healthy.seed = 9;
  EventSimConfig faulty = healthy;
  faulty.faults = &schedule;
  faulty.retry.seed = 9;

  for (const EventSimConfig* cfg : {&healthy, &faulty}) {
    std::vector<EventSimStats> runs;
    for (int threads : {1, 2, 3, 4, 8}) {
      common::set_global_threads(threads);
      runs.push_back(simulate_load(cluster, index, trace, *cfg));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) expect_same(runs[i], runs[0]);
  }

  // Golden constants from the sequential extraction the kernel replaced.
  common::set_global_threads(4);
  const EventSimStats h = simulate_load(cluster, index, trace, healthy);
  EXPECT_EQ(h.completed, 7000u);
  EXPECT_EQ(h.mean_latency_ms, 0x1.891f9d513664ep-2);
  EXPECT_EQ(h.p50_latency_ms, 0.0);
  EXPECT_EQ(h.p99_latency_ms, 0x1.52f1a9fbe77p+1);
  EXPECT_EQ(h.max_nic_utilization, 0x1.0ddfe18cfd503p-4);
  EXPECT_EQ(h.makespan_ms, 0x1.bbae7de8124a2p+11);
  const EventSimStats f = simulate_load(cluster, index, trace, faulty);
  EXPECT_EQ(f.completed, 7000u);
  EXPECT_EQ(f.mean_latency_ms, 0x1.4881639340a62p+2);
  EXPECT_EQ(f.p50_latency_ms, 0x1.3f7ced916872p+0);
  EXPECT_EQ(f.p99_latency_ms, 0x1.fa885a5311457p+4);
  EXPECT_EQ(f.max_nic_utilization, 0x1.5125ece56550cp-4);
  EXPECT_EQ(f.makespan_ms, 0x1.bf088012459a3p+11);
  EXPECT_EQ(f.fully_served, 6031u);
  EXPECT_EQ(f.degraded, 676u);
  EXPECT_EQ(f.failed, 293u);
  EXPECT_EQ(f.availability, 0x1.b91fe3e9c3bafp-1);
  EXPECT_EQ(f.mean_coverage, 0x1.d5f360ac88988p-1);
  EXPECT_EQ(f.retries, 5208u);
  EXPECT_EQ(f.failovers, 2884u);
  EXPECT_LT(f.availability, 1.0);  // the faults genuinely bit
  EXPECT_GT(f.failovers, 0u);
}

/// Walks `times` (sorted) in shards of `shard` instants, a fresh cursor
/// per shard as the kernel does, checking every step against alive().
void expect_cursor_matches_alive(const FaultSchedule& schedule,
                                 const std::vector<double>& times,
                                 std::size_t shard) {
  for (std::size_t start = 0; start < times.size(); start += shard) {
    LivenessCursor cursor(schedule);
    for (std::size_t i = start; i < std::min(times.size(), start + shard);
         ++i) {
      cursor.advance(times[i]);
      const std::vector<bool> mask = schedule.alive_mask(times[i]);
      int alive = 0;
      for (int n = 0; n < schedule.num_nodes(); ++n) {
        ASSERT_EQ(cursor.alive()[static_cast<std::size_t>(n)] != 0,
                  mask[static_cast<std::size_t>(n)])
            << "node " << n << " at " << times[i] << "ms, shard from "
            << times[start] << "ms";
        alive += mask[static_cast<std::size_t>(n)] ? 1 : 0;
      }
      ASSERT_EQ(cursor.alive_count(), alive) << "at " << times[i] << "ms";
    }
  }
}

/// Every event instant (where [crash, recover) edges bite) plus random
/// instants, sorted.
std::vector<double> probe_times(const FaultSchedule& schedule,
                                double horizon_ms, std::uint64_t seed) {
  std::vector<double> times;
  for (const FaultEvent& ev : schedule.events()) {
    times.push_back(ev.time_ms);
    times.push_back(std::nextafter(ev.time_ms, 0.0));
  }
  common::Rng rng(seed);
  for (int i = 0; i < 2000; ++i)
    times.push_back(rng.next_double() * horizon_ms);
  std::sort(times.begin(), times.end());
  return times;
}

TEST(LivenessCursor, MatchesAliveOnRandomHierarchicalSchedules) {
  const PoolMap pool = PoolMap::grid(2, 3, 3);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    FaultScheduleConfig cfg;
    cfg.mttf_ms = 400.0;
    cfg.mttr_ms = 120.0;
    cfg.horizon_ms = 5000.0;
    cfg.rack_mttf_ms = 900.0;
    cfg.rack_mttr_ms = 200.0;
    cfg.row_mttf_ms = 2500.0;
    cfg.row_mttr_ms = 300.0;
    cfg.seed = seed;
    const FaultSchedule schedule =
        FaultSchedule::generate_hierarchical(pool, cfg);
    ASSERT_GT(schedule.crash_count(), 50u);
    // Shards of 1 start every cursor cold; longer ones start mid-interval.
    for (std::size_t shard : {1, 7, 64, 100000})
      expect_cursor_matches_alive(schedule, probe_times(schedule, 6000.0, seed),
                                  shard);
  }
}

TEST(LivenessCursor, MatchesAliveAtSameInstantEdges) {
  // Node 1 crashes and recovers at one instant (never dead); node 2
  // recovers and crashes again at 200 (dead throughout [100, 300)); rack 1
  // (nodes 2 and 3) goes down at the instant node 0 recovers.
  const PoolMap pool = PoolMap::build({0, 0, 1, 1}, {0, 0});
  const FaultSchedule schedule = FaultSchedule::from_domain_events(
      pool, {{50.0, FaultDomain::kNode, 0, FaultEventKind::kCrash},
             {100.0, FaultDomain::kNode, 1, FaultEventKind::kCrash},
             {100.0, FaultDomain::kNode, 1, FaultEventKind::kRecover},
             {100.0, FaultDomain::kNode, 2, FaultEventKind::kCrash},
             {200.0, FaultDomain::kNode, 2, FaultEventKind::kRecover},
             {200.0, FaultDomain::kNode, 2, FaultEventKind::kCrash},
             {300.0, FaultDomain::kNode, 2, FaultEventKind::kRecover},
             {300.0, FaultDomain::kNode, 0, FaultEventKind::kRecover},
             {300.0, FaultDomain::kRack, 1, FaultEventKind::kCrash},
             {400.0, FaultDomain::kRack, 1, FaultEventKind::kRecover}});
  EXPECT_TRUE(schedule.alive(1, 100.0));
  EXPECT_FALSE(schedule.alive(2, 200.0));
  const std::vector<double> times = probe_times(schedule, 500.0, 3);
  for (std::size_t shard : {1, 2, 3, 5, 100000})
    expect_cursor_matches_alive(schedule, times, shard);
}

TEST(LivenessCursor, RejectsMovingBackInTime) {
  const FaultSchedule schedule = FaultSchedule::from_events(
      2, {{10.0, 0, FaultEventKind::kCrash}});
  LivenessCursor cursor(schedule);
  cursor.advance(20.0);
  EXPECT_EQ(cursor.alive_count(), 1);
  EXPECT_THROW(cursor.advance(5.0), common::Error);
}

}  // namespace
}  // namespace cca::sim
