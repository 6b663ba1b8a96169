// Hypergraph partitioner: lambda-1 quality vs brute force, pin/capacity
// invariants, degenerate hyperedges, the pairwise fallback, and
// determinism across seeds and thread counts. Lives in the sanitize-
// labelled binary: the thread-count determinism claims are what TSan
// should scrutinise.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/hypergraph.hpp"
#include "core/instance.hpp"
#include "core/partial_optimizer.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

/// Exhaustive minimum of the lambda-1 objective over all feasible
/// placements (honours pins and capacities). Only for tiny instances.
double brute_force_lambda(const CcaInstance& inst) {
  const int n = inst.num_objects(), N = inst.num_nodes();
  Placement p(static_cast<std::size_t>(n), 0);
  double best = std::numeric_limits<double>::infinity();
  while (true) {
    if (inst.is_feasible(p)) best = std::min(best, inst.connectivity_cost(p));
    int i = 0;
    for (; i < n; ++i) {
      if (++p[i] < N) break;
      p[i] = 0;
    }
    if (i == n) break;
  }
  return best;
}

TEST(Hypergraph, PlacesWholeQueriesTogether) {
  // Two disjoint query triples; capacity fits one triple per node. A
  // pairwise view would see only edges, the hyperedge view sees the whole
  // operation — either way both triples must land unsplit (cost 0).
  CcaInstance inst(std::vector<double>(6, 1.0), {3.0, 3.0}, {});
  inst.set_hyperedges({{{0, 1, 2}, 5.0}, {{3, 4, 5}, 4.0}});
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_DOUBLE_EQ(inst.connectivity_cost(p), 0.0);
  EXPECT_EQ(p[1], p[0]);
  EXPECT_EQ(p[2], p[0]);
  EXPECT_EQ(p[4], p[3]);
  EXPECT_EQ(p[5], p[3]);
  EXPECT_NE(p[0], p[3]);  // capacity forces the split between triples
}

TEST(Hypergraph, NearBruteForceOnTinyInstances) {
  // Within 1.5x of the exhaustive lambda-1 optimum (plus slack for the
  // heuristic) across several small random hypergraphs.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed * 97);
    std::vector<double> sizes(8);
    for (double& s : sizes) s = 1.0 + rng.next_double();
    double total = 0.0;
    for (double s : sizes) total += s;
    CcaInstance inst(sizes, std::vector<double>(3, 2.0 * total / 3), {});

    std::vector<Hyperedge> edges;
    for (int e = 0; e < 8; ++e) {
      Hyperedge edge;
      const int k = 2 + static_cast<int>(rng.next_below(3));  // 2..4 pins
      for (int t = 0; t < k; ++t)
        edge.pins.push_back(static_cast<int>(rng.next_below(8)));
      edge.weight = 0.2 + rng.next_double();
      edges.push_back(std::move(edge));
    }
    inst.set_hyperedges(std::move(edges));
    if (!inst.has_hyperedges()) continue;  // all edges degenerated

    const double exact = brute_force_lambda(inst);
    HypergraphOptions options;
    options.seed = seed;
    const Placement p = hypergraph_placement(inst, options);
    EXPECT_TRUE(inst.is_feasible(p)) << "seed " << seed;
    EXPECT_LE(inst.connectivity_cost(p),
              1.5 * exact + 0.15 * inst.total_connectivity_cost())
        << "seed " << seed;
  }
}

TEST(Hypergraph, HonoursPinsAndCapacity) {
  CcaInstance inst({1, 1, 1, 1}, {2.0, 2.0}, {});
  inst.set_hyperedges({{{0, 1, 2, 3}, 3.0}});
  inst.pin(0, 1);
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(p[0], 1);
  // One 4-pin edge over 2 nodes of capacity 2: lambda is necessarily 2.
  EXPECT_DOUBLE_EQ(inst.connectivity_cost(p), 3.0);
}

TEST(Hypergraph, DegenerateHyperedgesAreCanonicalized) {
  CcaInstance inst(std::vector<double>(4, 1.0), {4.0, 4.0}, {});
  // k=1 edges and duplicate pins that collapse to k=1 are dropped;
  // duplicate pins inside a bigger edge dedup; identical pin sets merge.
  inst.set_hyperedges({{{2}, 9.0},
                       {{3, 3}, 9.0},
                       {{0, 1, 1}, 1.0},
                       {{1, 0}, 0.5},
                       {{0, 1}, 0.25, }});
  ASSERT_TRUE(inst.has_hyperedges());
  ASSERT_EQ(inst.hyperedges().size(), 1u);
  const Hyperedge& e = inst.hyperedges()[0];
  EXPECT_EQ(e.pins, (std::vector<ObjectId>{0, 1}));
  EXPECT_DOUBLE_EQ(e.weight, 1.75);
  EXPECT_DOUBLE_EQ(inst.total_connectivity_cost(), 1.75);

  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(p[0], p[1]);  // capacity allows keeping the only edge whole
}

TEST(Hypergraph, OnlyDegenerateEdgesFallsBackGracefully) {
  // Every edge degenerates away: the instance has no hyperedges and no
  // pairs, so the partitioner must still return a feasible placement.
  CcaInstance inst(std::vector<double>(6, 1.0), {3.0, 3.0}, {});
  inst.set_hyperedges({{{0}, 1.0}, {{1, 1}, 2.0}});
  EXPECT_FALSE(inst.has_hyperedges());
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
}

TEST(Hypergraph, PairwiseFallbackActsAsGraphPartitioner) {
  // No hyperedges: the pair view is lifted to 2-pin nets, where
  // lambda - 1 is the cut indicator — the multilevel two-clique check.
  std::vector<PairWeight> pairs;
  for (int base : {0, 4})
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        pairs.push_back({base + a, base + b, 0.5, 8.0});
  pairs.push_back({3, 4, 0.05, 1.0});
  const CcaInstance inst(std::vector<double>(8, 1.0), {4.0, 4.0}, pairs);
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_DOUBLE_EQ(inst.communication_cost(p), 0.05);  // only the bridge
}

TEST(Hypergraph, DeterministicPerSeed) {
  common::Rng rng(5);
  std::vector<double> sizes(40, 1.0);
  CcaInstance inst(sizes, {30, 30, 30}, {});
  std::vector<Hyperedge> edges;
  for (int e = 0; e < 50; ++e) {
    Hyperedge edge;
    const int k = 2 + static_cast<int>(rng.next_below(4));
    for (int t = 0; t < k; ++t)
      edge.pins.push_back(static_cast<int>(rng.next_below(40)));
    edge.weight = rng.next_double();
    edges.push_back(std::move(edge));
  }
  inst.set_hyperedges(std::move(edges));
  HypergraphOptions options;
  options.seed = 21;
  EXPECT_EQ(hypergraph_placement(inst, options),
            hypergraph_placement(inst, options));
  HypergraphOptions other = options;
  other.seed = 22;
  EXPECT_TRUE(inst.is_feasible(hypergraph_placement(inst, other)));
}

// ---------- overflow drain ----------

TEST(Hypergraph, RepairDrainsDeepOverloadsCompletely) {
  // Two percent capacity slack over mixed object sizes: coarse vertices
  // cannot bin-pack, so levels end overloaded and the drain both evicts
  // (cheapest lambda increase first) and spills. The result must still
  // come out feasible, and the spill count is pinned so any change in
  // which objects the drain picks shows up here.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  common::Rng rng(12);
  const int n = 48;
  std::vector<double> sizes(n);
  double total = 0.0;
  for (double& s : sizes) {
    s = 1.0 + static_cast<double>(rng.next_below(3));
    total += s;
  }
  CcaInstance inst(sizes, std::vector<double>(4, 1.02 * total / 4), {});
  std::vector<Hyperedge> edges;
  for (int e = 0; e < 160; ++e) {
    Hyperedge edge;
    const int k = 3 + static_cast<int>(rng.next_below(4));  // 3..6 pins
    for (int t = 0; t < k; ++t)
      edge.pins.push_back(static_cast<int>(rng.next_below(n)));
    edge.weight = 1.0 + 3.0 * rng.next_double();
    edges.push_back(std::move(edge));
  }
  inst.set_hyperedges(std::move(edges));
  HypergraphOptions options;
  options.coarsen_to = 4;
  options.seed = 12;
  const Placement p = hypergraph_placement(inst, options);
  reg.set_enabled(false);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(violations.total(), 15);
}

TEST(Hypergraph, UnavoidablePinOverloadIsCountedNotLooped) {
  // Pins overload node 0 beyond repair: the drain must terminate, place
  // every object, and surface the violation through the metric instead of
  // spinning or silently succeeding.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  CcaInstance inst({3, 3, 1, 1}, {4.0, 4.0}, {});
  inst.set_hyperedges({{{0, 2}, 2.0}, {{1, 3}, 2.0}, {{0, 1, 2, 3}, 1.0}});
  inst.pin(0, 0);
  inst.pin(1, 0);  // pinned load 6 > capacity 4
  const Placement p = hypergraph_placement(inst);
  reg.set_enabled(false);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], 0);
  for (NodeId k : p) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 2);
  }
  // Four objects never coarsen: one counted give-up per restart.
  EXPECT_EQ(violations.total(), HypergraphOptions{}.restarts);
}

TEST(Hypergraph, OversubscribedInstanceTerminatesWithSpills) {
  // Total size exceeds total capacity: feasibility is impossible, but the
  // partitioner must terminate with a complete placement and count spills.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  CcaInstance inst(std::vector<double>(10, 1.0), {2.0, 2.0}, {});
  inst.set_hyperedges({{{0, 1, 2, 3, 4}, 1.0},
                       {{5, 6, 7, 8, 9}, 1.0},
                       {{0, 9}, 0.5}});
  const Placement p = hypergraph_placement(inst);
  reg.set_enabled(false);
  ASSERT_EQ(p.size(), 10u);
  for (NodeId k : p) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 2);
  }
  // Draining node 0 spills onto node 1, whose drain spills it all back:
  // nine counted spills per restart, and the drain still ends.
  EXPECT_EQ(violations.total(), 36);
}

TEST(Hypergraph, TraceLambdaCostHandComputed) {
  trace::QueryTrace trace(5);
  trace.add_query({0, 1});        // same node below: lambda 1 -> 0
  trace.add_query({0, 1, 2});     // two nodes: lambda 2 -> 1
  trace.add_query({2, 3, 4});     // all three keywords apart: lambda 3 -> 2
  trace.add_query({4});           // singleton: lambda 1 -> 0
  const std::vector<NodeId> placement{0, 0, 1, 2, 0};
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace, placement), (0 + 1 + 2 + 0) / 4.0);
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace::QueryTrace(5), placement), 0.0);
}

// ---------- end-to-end through the optimizer pipeline ----------

PartialOptimizer make_optimizer(double mean_query_length,
                                std::uint64_t seed) {
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 200;
  wcfg.num_topics = 16;
  wcfg.topic_size = 8;
  wcfg.mean_query_length = mean_query_length;
  wcfg.seed = 11;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(3000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k;
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 4;
  cfg.scope = 80;
  cfg.seed = seed;
  return PartialOptimizer(trace, sizes, cfg);
}

/// FNV-1a over a placement's node ids, four little-endian bytes each.
std::uint64_t fnv1a(const Placement& placement) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const NodeId k : placement)
    for (int b = 0; b < 4; ++b) {
      hash ^= (static_cast<std::uint32_t>(k) >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  return hash;
}

TEST(Hypergraph, GoldenPlacementHash) {
  // Pins the partitioner's exact output on a mean-length-6 pipeline
  // instance, through both the hyperedge path and the pairwise fallback.
  // Data-layout and speed work must leave every move unchanged; a
  // deliberate behaviour change updates these constants and says why.
  const PartialOptimizer opt = make_optimizer(6.0, 5);
  const CcaInstance& scoped = opt.hyperedge_instance();
  std::size_t pins = 0;
  for (const Hyperedge& e : scoped.hyperedges()) pins += e.pins.size();
  ASSERT_GE(pins, 2000u);

  HypergraphOptions options;
  options.seed = 5;
  EXPECT_EQ(fnv1a(hypergraph_placement(scoped, options)),
            0x56adf77bd660a5a5ULL);
  CcaInstance pairwise = scoped;
  pairwise.set_hyperedges({});
  EXPECT_EQ(fnv1a(hypergraph_placement(pairwise, options)),
            0xf05e74aa1eda9c25ULL);
}

TEST(Hypergraph, AllQueriesIdenticalStillPlaces) {
  // Every query is the same 3-keyword set: one hyperedge carries the whole
  // trace's weight. The pipeline must keep that set on one node.
  trace::QueryTrace trace(6);
  for (int q = 0; q < 100; ++q) trace.add_query({1, 3, 5});
  std::vector<std::uint64_t> sizes(6, 100);
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 3;
  cfg.scope = 6;
  const PartialOptimizer opt(trace, sizes, cfg);
  ASSERT_TRUE(opt.hyperedge_instance().has_hyperedges());
  const PlacementPlan plan = opt.run("hypergraph");
  EXPECT_EQ(plan.keyword_to_node[3], plan.keyword_to_node[1]);
  EXPECT_EQ(plan.keyword_to_node[5], plan.keyword_to_node[1]);
  EXPECT_DOUBLE_EQ(trace_lambda_cost(trace, plan.keyword_to_node), 0.0);
}

TEST(Hypergraph, BitIdenticalAcrossThreadCounts) {
  // The strategy itself is sequential, but it runs inside benches that
  // retune the global pool; the placement must not see the difference.
  const PlacementPlan baseline = make_optimizer(4.0, 9).run("hypergraph");
  for (const int threads : {1, 2, 8}) {
    common::set_global_threads(threads);
    const PlacementPlan plan = make_optimizer(4.0, 9).run("hypergraph");
    EXPECT_EQ(plan.keyword_to_node, baseline.keyword_to_node)
        << "threads=" << threads;
  }
  common::set_global_threads(0);
}

TEST(Hypergraph, BeatsPairwiseOnLongQueries) {
  // Mean query length 4: the two-smallest-objects pairwise collapse loses
  // information that the hyperedge view keeps. Whole-query cost must not
  // be worse than multilevel's on the same pipeline.
  const PartialOptimizer opt = make_optimizer(4.0, 3);
  const CcaInstance& scoped = opt.hyperedge_instance();
  ASSERT_TRUE(scoped.has_hyperedges());
  const auto scoped_placement = [&](const PlacementPlan& plan) {
    Placement p(static_cast<std::size_t>(scoped.num_objects()));
    for (std::size_t pos = 0; pos < plan.scope.size(); ++pos)
      p[pos] = plan.keyword_to_node[plan.scope[pos]];
    return p;
  };
  const PlacementPlan hg = opt.run("hypergraph");
  const PlacementPlan ml = opt.run("multilevel");
  // The claim: on the lambda objective, optimizing it directly wins.
  const double hg_lambda = scoped.connectivity_cost(scoped_placement(hg));
  const double ml_lambda = scoped.connectivity_cost(scoped_placement(ml));
  EXPECT_LE(hg_lambda, ml_lambda + 1e-9);
  EXPECT_LT(hg_lambda, scoped.total_connectivity_cost());  // actually helps
}

TEST(PartialOptimizer, HyperedgeInstanceBuiltOnceAcrossThreads) {
  // Concurrent first runs of the hypergraph strategy race to build the
  // lazy whole-query view: exactly one build, seen whole by every thread.
  const PartialOptimizer opt = make_optimizer(4.0, 9);
  constexpr int kThreads = 4;
  std::vector<PlacementPlan> plans(kThreads);
  std::vector<const CcaInstance*> instances(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      plans[t] = opt.run("hypergraph");
      instances[t] = &opt.hyperedge_instance();
    });
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].keyword_to_node, plans[0].keyword_to_node) << t;
    EXPECT_EQ(instances[t], instances[0]) << t;
  }
  EXPECT_TRUE(instances[0]->has_hyperedges());
}

}  // namespace
}  // namespace cca::core
