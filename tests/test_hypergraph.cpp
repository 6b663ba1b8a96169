// Hypergraph partitioner: lambda-1 quality vs brute force, pin/capacity
// invariants, degenerate hyperedges, the pairwise fallback (what the
// "multilevel" strategy runs: cut quality vs brute force and greedy),
// determinism across seeds and thread counts, and the refinement's cached
// gain rows against a from-scratch recompute. Lives in the
// sanitize-labelled binary: the thread-count determinism claims are what
// TSan should scrutinise.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/lex_order.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/hypergraph.hpp"
#include "core/hypergraph_detail.hpp"
#include "core/instance.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placements.hpp"
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
  const HyperedgeRef e = inst.hyperedges()[0];
  EXPECT_TRUE(std::ranges::equal(e.pins, std::vector<ObjectId>{0, 1}));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.weight),
            std::bit_cast<std::uint64_t>(1.75));
  // The store is the one CSR the partitioner reads as its level 0.
  EXPECT_TRUE(std::ranges::equal(inst.hyperedges().pins(),
                                 std::vector<ObjectId>{0, 1}));
  EXPECT_TRUE(std::ranges::equal(inst.hyperedges().offsets(),
                                 std::vector<int>{0, 2}));
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
  // lambda - 1 is the cut indicator: only the bridge between the two
  // cliques is cut.
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

// ---------- pairs only: what the "multilevel" strategy runs ----------
//
// "multilevel" hands the partitioner the pairs-only scoped instance, so
// each pair becomes a 2-pin net and the objective is the paper's pairwise
// cut. These cases hold it to a graph partitioner's contract.

TEST(Multilevel, SeparatesTwoCliquesAlongTheBridge) {
  // Two 4-cliques joined by one weak edge; capacity fits one clique each.
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
  for (int v = 1; v < 4; ++v) EXPECT_EQ(p[v], p[0]);
  for (int v = 5; v < 8; ++v) EXPECT_EQ(p[v], p[4]);
}

TEST(Multilevel, CompletePlacementWithinNodeRange) {
  common::Rng rng(4);
  std::vector<double> sizes(60);
  for (double& s : sizes) s = 1.0 + rng.next_double() * 2.0;
  std::vector<PairWeight> pairs;
  for (int e = 0; e < 120; ++e) {
    const int i = static_cast<int>(rng.next_below(60));
    const int j = static_cast<int>(rng.next_below(60));
    if (i != j) pairs.push_back({i, j, 0.3, 1.0 + rng.next_double() * 4.0});
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  const CcaInstance inst(sizes, std::vector<double>(5, 2.0 * total / 5), pairs);
  const Placement p = hypergraph_placement(inst);
  ASSERT_EQ(static_cast<int>(p.size()), 60);
  for (NodeId n : p) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 5);
  }
  EXPECT_TRUE(inst.is_feasible(p));
}

TEST(Multilevel, HonoursPins) {
  CcaInstance inst({1, 1, 1}, {3, 3}, {{0, 1, 0.9, 5.0}, {1, 2, 0.9, 5.0}});
  inst.pin(0, 1);
  const Placement p = hypergraph_placement(inst);
  EXPECT_EQ(p[0], 1);
  // The chain should follow the pin (capacity allows all three together).
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 1);
}

TEST(Multilevel, DeterministicPerSeed) {
  common::Rng rng(8);
  std::vector<double> sizes(40, 1.0);
  std::vector<PairWeight> pairs;
  for (int e = 0; e < 80; ++e) {
    const int i = static_cast<int>(rng.next_below(40));
    const int j = static_cast<int>(rng.next_below(40));
    if (i != j) pairs.push_back({i, j, 0.4, 2.0});
  }
  const CcaInstance inst(sizes, {30, 30, 30}, pairs);
  HypergraphOptions options;
  options.seed = 77;
  EXPECT_EQ(hypergraph_placement(inst, options),
            hypergraph_placement(inst, options));
  HypergraphOptions other = options;
  other.seed = 78;
  EXPECT_TRUE(inst.is_feasible(hypergraph_placement(inst, other)));
}

TEST(Multilevel, NearOptimalOnSmallInstances) {
  // Within 1.5x of the brute-force pairwise optimum across several small
  // random instances.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed * 31);
    std::vector<double> sizes(10);
    for (double& s : sizes) s = 1.0 + rng.next_double();
    std::vector<PairWeight> pairs;
    for (int e = 0; e < 14; ++e) {
      const int i = static_cast<int>(rng.next_below(10));
      const int j = static_cast<int>(rng.next_below(10));
      if (i != j)
        pairs.push_back({i, j, 0.2 + rng.next_double() * 0.7,
                         0.5 + rng.next_double() * 4.0});
    }
    double total = 0.0;
    for (double s : sizes) total += s;
    const CcaInstance inst(sizes, std::vector<double>(3, 2.0 * total / 3),
                           pairs);
    const auto exact = brute_force_optimal(inst);
    ASSERT_TRUE(exact.has_value());
    HypergraphOptions options;
    options.seed = seed;
    const Placement p = hypergraph_placement(inst, options);
    EXPECT_LE(inst.communication_cost(p),
              1.5 * exact->cost + 0.15 * inst.total_pair_cost())
        << "seed " << seed;
  }
}

TEST(Multilevel, BeatsGreedyOnFragmentedClusters) {
  // Many small clusters over many nodes: greedy's pair-at-a-time packing
  // fragments clusters (the paper's criticism); the partitioner keeps
  // them whole. Compare aggregate cost over the instance.
  common::Rng rng(12);
  std::vector<double> sizes;
  std::vector<PairWeight> pairs;
  const int kClusters = 30;
  for (int c = 0; c < kClusters; ++c) {
    const int base = c * 4;
    for (int o = 0; o < 4; ++o) sizes.push_back(1.0);
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        pairs.push_back({base + a, base + b, 0.3 + rng.next_double() * 0.5,
                         2.0});
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  const CcaInstance inst(
      sizes, std::vector<double>(12, 2.0 * total / 12), pairs);
  const double ml = inst.communication_cost(hypergraph_placement(inst));
  const double greedy = inst.communication_cost(greedy_placement(inst));
  EXPECT_LE(ml, greedy + 1e-9);
}

TEST(Multilevel, CoarseningStopsGracefullyOnEdgelessGraphs) {
  // No edges at all: matching stalls immediately; the partitioner must
  // still return a feasible placement.
  const CcaInstance inst(std::vector<double>(20, 1.0), {10, 10, 10}, {});
  const Placement p = hypergraph_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
}

// ---------- overflow drain ----------

TEST(Hypergraph, RepairDrainsDeepOverloadsCompletely) {
  // Two percent capacity slack over mixed object sizes: coarse vertices
  // cannot bin-pack, so levels end overloaded and the drain both evicts
  // (cheapest lambda increase first) and spills. The result must still
  // come out feasible, and the spill count is pinned so any change in
  // which objects the drain picks shows up here (last updated when each
  // restart got its own named stream).
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
  EXPECT_EQ(violations.total(), 16);

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

TEST(Multilevel, RepairDrainsDeepOverloadsCompletely) {
  // Pairs only, exact fit: 48 unit objects over 4 nodes of capacity 12 —
  // zero slack — with strong all-to-all attraction forcing a long drain.
  // The result must be feasible and must not count any violation.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  common::Rng rng(3);
  const int n = 48;
  std::vector<PairWeight> pairs;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (rng.next_double() < 0.4)
        pairs.push_back({i, j, 0.5 + 0.5 * rng.next_double(), 4.0});
  const CcaInstance inst(std::vector<double>(n, 1.0),
                         std::vector<double>(4, 12.0), pairs);
  const Placement p = hypergraph_placement(inst);
  reg.set_enabled(false);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_EQ(violations.total(), 0);
}

TEST(Multilevel, UnavoidablePinOverloadIsCountedNotLooped) {
  // The pinned overload of the hypergraph case above, on a pairs-only
  // instance: the drain ends and counts one give-up per restart.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  CcaInstance inst({3, 3, 1, 1}, {4.0, 4.0},
                   {{0, 2, 0.9, 2.0}, {1, 3, 0.9, 2.0}});
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
  EXPECT_EQ(violations.total(), HypergraphOptions{}.restarts);
}

TEST(Multilevel, OversubscribedInstanceTerminatesWithSpills) {
  // The oversubscription of the hypergraph case above on a pairs-only
  // 10-clique: a complete placement and the same counted spills.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& violations =
      reg.counter("core.hypergraph.capacity_violations");
  reg.set_enabled(true);
  violations.reset();

  std::vector<PairWeight> pairs;
  for (int i = 0; i < 10; ++i)
    for (int j = i + 1; j < 10; ++j) pairs.push_back({i, j, 0.9, 1.0});
  const CcaInstance inst(std::vector<double>(10, 1.0), {2.0, 2.0}, pairs);
  const Placement p = hypergraph_placement(inst);
  reg.set_enabled(false);
  ASSERT_EQ(p.size(), 10u);
  for (NodeId k : p) {
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 2);
  }
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
  // Last updated on purpose when each restart got its own named stream
  // "core.hypergraph.r<i>" in place of one shared sequential stream.
  const PartialOptimizer opt = make_optimizer(6.0, 5);
  const CcaInstance& scoped = opt.hyperedge_instance();
  std::size_t pins = 0;
  for (const Hyperedge& e : scoped.hyperedges()) pins += e.pins.size();
  ASSERT_GE(pins, 2000u);

  HypergraphOptions options;
  options.seed = 5;
  EXPECT_EQ(fnv1a(hypergraph_placement(scoped, options)),
            0xf05e74aa1eda9c25ULL);
  CcaInstance pairwise = scoped;
  pairwise.set_hyperedges({});
  EXPECT_EQ(fnv1a(hypergraph_placement(pairwise, options)),
            0x23bf6f06afce8925ULL);
}

TEST(Hypergraph, GoldenPlacementHashLongQueries) {
  // The same pin at the scale where refinement makes thousands of moves
  // (mean query length 6, 4000 scoped keywords, 16 nodes), so drift in
  // the refinement's incrementally kept gains would show here where the
  // small instance above cannot show it. Constant computed on the
  // from-scratch gain evaluation the cached rows replaced; checked at 1
  // and 4 threads.
  trace::WorkloadConfig wcfg;
  wcfg.vocabulary_size = 5000;
  wcfg.num_topics = 400;
  wcfg.topic_size = 8;
  wcfg.mean_query_length = 6.0;
  const trace::QueryTrace trace =
      trace::WorkloadModel(wcfg).generate(40000, 7);
  std::vector<std::uint64_t> sizes(wcfg.vocabulary_size);
  for (std::size_t k = 0; k < sizes.size(); ++k) sizes[k] = 64 + k % 512;
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 16;
  cfg.scope = 4000;
  const PartialOptimizer opt(trace, sizes, cfg);
  const CcaInstance& scoped = opt.hyperedge_instance();
  ASSERT_EQ(scoped.num_objects(), 4000);

  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Counter& moves = reg.counter("core.hypergraph.refine.moves");
  common::Counter& evaluations =
      reg.counter("core.hypergraph.refine.evaluations");
  moves.reset();
  evaluations.reset();
  for (const int threads : {1, 4}) {
    common::set_global_threads(threads);
    reg.set_enabled(threads == 1);
    EXPECT_EQ(fnv1a(hypergraph_placement(scoped)), 0x1fc6d77f4a736bacULL)
        << "threads=" << threads;
  }
  reg.set_enabled(false);
  common::set_global_threads(0);
  EXPECT_GE(moves.total(), 1000);
  EXPECT_GT(evaluations.total(), moves.total());
}

TEST(Hypergraph, RestartsAreThreadCountInvariant) {
  // Restarts run on the pool, one named stream each: the pick among them
  // must not depend on how many threads ran the cycles.
  const PartialOptimizer opt = make_optimizer(6.0, 5);
  const CcaInstance& scoped = opt.hyperedge_instance();
  for (const int restarts : {1, 3, 4, 5}) {
    HypergraphOptions options;
    options.seed = 5;
    options.restarts = restarts;
    common::set_global_threads(1);
    const Placement baseline = hypergraph_placement(scoped, options);
    for (const int threads : {2, 4}) {
      common::set_global_threads(threads);
      EXPECT_EQ(hypergraph_placement(scoped, options), baseline)
          << "restarts=" << restarts << " threads=" << threads;
    }
  }
  common::set_global_threads(0);
}

TEST(Hypergraph, MoreRestartsNeverWorse) {
  // Restart i's stream does not depend on how many restarts ran before
  // it, so running more restarts only adds candidates: the winner's
  // (overflow, lambda cost) never gets worse as restarts grow. Random
  // hyperedges over tight nodes, so the cycles disagree.
  for (const std::uint64_t seed : {3, 4, 5}) {
    common::Rng rng(seed);
    const int n = 120;
    std::vector<double> sizes(n);
    double total = 0.0;
    for (double& s : sizes) {
      s = 1.0 + static_cast<double>(rng.next_below(3));
      total += s;
    }
    CcaInstance inst(sizes, std::vector<double>(6, 1.1 * total / 6), {});
    std::vector<Hyperedge> edges;
    for (int e = 0; e < 400; ++e) {
      Hyperedge edge;
      const int k = 2 + static_cast<int>(rng.next_below(5));
      for (int t = 0; t < k; ++t)
        edge.pins.push_back(static_cast<int>(rng.next_below(n)));
      edge.weight = 0.5 + rng.next_double();
      edges.push_back(std::move(edge));
    }
    inst.set_hyperedges(std::move(edges));
    double last_over = 0.0, last_cost = 0.0;
    for (int restarts = 1; restarts <= 4; ++restarts) {
      HypergraphOptions options;
      options.coarsen_to = 8;
      options.seed = seed;
      options.restarts = restarts;
      const Placement p = hypergraph_placement(inst, options);
      const std::vector<double> loads = inst.node_loads(p);
      double over = 0.0;
      for (int k = 0; k < inst.num_nodes(); ++k)
        over = std::max(over, loads[k] - inst.node_capacity(k));
      const double cost = inst.connectivity_cost(p);
      if (restarts > 1) {
        EXPECT_LE(over, last_over + 1e-12)
            << "seed=" << seed << " restarts=" << restarts;
        if (over > last_over - 1e-12) {
          EXPECT_LE(cost, last_cost * (1 + 1e-12))
              << "seed=" << seed << " restarts=" << restarts;
        }
      }
      last_over = over;
      last_cost = cost;
    }
  }
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
  // The strategy runs its restarts on the pool, inside benches that
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
  // be worse than the pairwise view's ("multilevel") on the same pipeline.
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

// ---------- net contraction ----------

namespace reference {

/// The contraction the V-cycle ran before the fused pass: remap each
/// net's pins, std::sort and unique them, drop nets left with one pin,
/// order the survivors by pin set (equal sets by fine-net order) and
/// merge equal sets, summing their weights in that order. The order comes
/// from a comparison sort, the order common::lexicographic_order is
/// specified to give, so the oracle shares no code with the radix path.
void contract(const detail::Hypergraph& g, const std::vector<int>& coarse_of,
              detail::Level& coarse) {
  std::vector<int> cpins;
  std::vector<int> cbegin{0};
  std::vector<int> source;
  for (int e = 0; e < g.num_nets(); ++e) {
    const std::size_t first = cpins.size();
    for (int v : g.net(e)) cpins.push_back(coarse_of[v]);
    const auto begin = cpins.begin() + static_cast<std::ptrdiff_t>(first);
    std::sort(begin, cpins.end());
    cpins.erase(std::unique(begin, cpins.end()), cpins.end());
    if (cpins.size() - first < 2) {
      cpins.resize(first);
      continue;
    }
    cbegin.push_back(static_cast<int>(cpins.size()));
    source.push_back(e);
  }
  const auto net = [&](std::size_t i) {
    return std::span<const int>(cpins.data() + cbegin[i],
                                cpins.data() + cbegin[i + 1]);
  };
  std::vector<std::size_t> order(source.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return std::ranges::lexicographical_compare(net(a),
                                                                 net(b));
                   });
  coarse.reserve(source.size(), cpins.size());
  for (std::size_t i = 0; i < order.size();) {
    double weight = g.eweight[source[order[i]]];
    std::size_t j = i + 1;
    for (; j < order.size() && std::ranges::equal(net(order[j]), net(order[i]));
         ++j)
      weight += g.eweight[source[order[j]]];
    coarse.add_net(net(order[i]), weight);
    i = j;
  }
}

}  // namespace reference

/// A fine level and its contraction map. Fine vertices 2c and 2c + 1
/// contract to coarse vertex c for c < n / 4, so 2-pin nets over such a
/// pair collapse to one pin; the other vertices map at random. A third of
/// the nets are such pairs, a third are subsets of 40 ten-vertex topics
/// (many coincide once contracted, so runs merge heavily), and the rest
/// are random sets of 2 to 12 pins, with a few of 33 to 48 pins.
struct ContractionCase {
  detail::Level fine;
  std::vector<int> coarse_of;
  int coarse_n = 0;
};

ContractionCase make_contraction_case(std::uint64_t seed, int n, int coarse_n,
                                      int nets) {
  common::Rng rng(seed);
  ContractionCase c;
  c.coarse_n = coarse_n;
  c.fine.vweight.assign(static_cast<std::size_t>(n), 1.0);
  c.fine.pin.assign(static_cast<std::size_t>(n), std::nullopt);
  for (int v = 0; v < n; ++v)
    c.coarse_of.push_back(v < n / 2 ? v / 2
                                    : static_cast<int>(rng.next_below(
                                          static_cast<std::uint64_t>(
                                              coarse_n))));
  const auto random_vertex = [&] {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  std::vector<std::vector<int>> topics(40);
  for (std::vector<int>& topic : topics)
    for (int t = 0; t < 10; ++t) topic.push_back(random_vertex());
  std::vector<std::vector<int>> sets;
  std::size_t total = 0;
  for (int e = 0; e < nets; ++e) {
    std::vector<int> set;
    if (e % 3 == 0) {
      const int pair = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n / 4)));
      set = {2 * pair, 2 * pair + 1};
    } else if (e % 3 == 1) {
      const std::vector<int>& topic = topics[rng.next_below(topics.size())];
      for (int v : topic)
        if (rng.next_below(3) != 0) set.push_back(v);
    } else {
      const int size = e % 50 == 2 ? 33 + static_cast<int>(rng.next_below(16))
                                   : 2 + static_cast<int>(rng.next_below(11));
      for (int t = 0; t < size; ++t) set.push_back(random_vertex());
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    if (set.size() < 2) continue;
    total += set.size();
    sets.push_back(std::move(set));
  }
  c.fine.reserve(sets.size(), total);
  for (const std::vector<int>& set : sets)
    c.fine.add_net(set, 0.01 + 3.0 * rng.next_double());
  return c;
}

/// Contracts `c` through `scratch` and against the reference; both must
/// agree bit for bit. Returns the contracted level for further checks.
detail::Hypergraph expect_contraction_matches(const ContractionCase& c,
                                              detail::ContractScratch& scratch,
                                              detail::Level& actual,
                                              detail::Level& expected) {
  actual.vweight.assign(static_cast<std::size_t>(c.coarse_n), 1.0);
  expected.vweight = actual.vweight;
  const detail::Hypergraph g = c.fine.view();
  detail::contract(g, c.coarse_of, c.coarse_n, scratch, actual);
  reference::contract(g, c.coarse_of, expected);
  const detail::Hypergraph a = actual.view(), b = expected.view();
  EXPECT_EQ(a.num_nets(), b.num_nets());
  EXPECT_TRUE(std::ranges::equal(a.net_begin, b.net_begin));
  EXPECT_TRUE(std::ranges::equal(a.pins, b.pins));
  EXPECT_TRUE(std::ranges::equal(a.eweight, b.eweight,
                                 [](double x, double y) {
                                   return std::bit_cast<std::uint64_t>(x) ==
                                          std::bit_cast<std::uint64_t>(y);
                                 }));
  return a;
}

TEST(HypergraphCoarsen, MatchesReferenceContraction) {
  // More than 1024 coarse vertices: 11-bit elements, five to a packed
  // head, so the many nets of six or more pins tie on the head and go
  // through the re-key path.
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const ContractionCase c = make_contraction_case(seed, 6000, 3000, 20000);
    detail::ContractScratch scratch;
    detail::Level actual, expected;
    const detail::Hypergraph a =
        expect_contraction_matches(c, scratch, actual, expected);
    // The case is not vacuous: nets collapsed, runs merged, and merged
    // neighbours share a full packed head but differ past it.
    const detail::Hypergraph fine = c.fine.view();
    EXPECT_LT(a.num_nets(), fine.num_nets() * 9 / 10);
    const std::size_t head = common::LexPacker(3000).head;
    ASSERT_EQ(head, 5u);
    int rekeyed = 0;
    for (int e = 1; e < a.num_nets(); ++e) {
      const std::span<const int> x = a.net(e - 1), y = a.net(e);
      rekeyed += x.size() > head && y.size() > head &&
                 std::equal(x.begin(), x.begin() + head, y.begin());
    }
    EXPECT_GT(rekeyed, 10);
  }
}

TEST(HypergraphCoarsen, ReusedScratchLeavesNoStaleTails) {
  // The V-cycle contracts every level through one scratch reserved at the
  // finest level's size and trimmed between levels: a small contraction
  // after a large one must not see the large one's leftovers.
  const ContractionCase large = make_contraction_case(4, 6000, 3000, 20000);
  const ContractionCase small = make_contraction_case(5, 3000, 1200, 4000);
  detail::ContractScratch scratch;
  scratch.reserve(static_cast<std::size_t>(large.fine.view().num_nets()),
                  large.fine.view().pins.size());
  detail::Level a1, e1, a2, e2, a3, e3;
  const detail::Hypergraph coarse =
      expect_contraction_matches(large, scratch, a1, e1);
  expect_contraction_matches(small, scratch, a2, e2);
  scratch.trim(static_cast<std::size_t>(coarse.num_nets()),
               coarse.pins.size());
  expect_contraction_matches(small, scratch, a3, e3);
}

// ---------- refinement gain cache ----------

TEST(HypergraphRefine, CachedGainRowsMatchRecomputeAfterEveryMove) {
  // Random moves over a small hypergraph with pinned vertices, an
  // isolated vertex, 2-pin nets and wide nets, at rate-scale weights.
  // After every move each vertex's cached row must equal a from-scratch
  // recompute from the assignment alone, and the pin counts and loads
  // must match too.
  const int n = 40, N = 5;
  common::Rng rng(17);
  detail::Level level;
  for (int v = 0; v < n; ++v) {
    level.vweight.push_back(1.0 + static_cast<double>(rng.next_below(4)));
    level.pin.push_back(v % 9 == 0 ? std::optional<NodeId>(v % N)
                                   : std::nullopt);
  }
  const int kNets = 60;
  level.reserve(kNets, kNets * 20);
  for (int e = 0; e < kNets; ++e) {
    // Every third net is a 2-pin net, every tenth spans 12 to 20 pins;
    // vertex n - 1 stays isolated.
    const int size = e % 3 == 0    ? 2
                     : e % 10 == 1 ? 12 + static_cast<int>(rng.next_below(9))
                                   : 3 + static_cast<int>(rng.next_below(4));
    std::vector<int> pins;
    while (static_cast<int>(pins.size()) < size) {
      const int v = static_cast<int>(rng.next_below(n - 1));
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    std::sort(pins.begin(), pins.end());
    level.add_net(pins, (0.5 + rng.next_double()) / kNets);
  }
  detail::Hypergraph g = level.view();
  detail::Incidence incidence;
  incidence.attach(g);

  std::vector<NodeId> part(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    part[v] = g.pin[v] ? *g.pin[v] : static_cast<NodeId>(rng.next_below(N));
  detail::RefineBuffers buffers;
  detail::RefineState state(g, part, N, buffers);

  const auto dense_counts = [&](int e) {
    std::vector<int> phi(N, 0);
    for (int x : g.net(e)) ++phi[part[x]];
    return phi;
  };
  const auto check_against_recompute = [&](int step) {
    std::vector<double> load(N, 0.0);
    for (int v = 0; v < n; ++v) load[part[v]] += g.vweight[v];
    for (int k = 0; k < N; ++k)
      ASSERT_DOUBLE_EQ(state.load()[k], load[k]) << "step " << step;
    for (int e = 0; e < g.num_nets(); ++e) {
      const std::vector<int> phi = dense_counts(e);
      int live = 0;
      for (const auto& slot : state.nets().slots(e)) {
        ASSERT_EQ(slot.count, phi[slot.node]) << "step " << step;
        ++live;
      }
      ASSERT_EQ(live, N - std::count(phi.begin(), phi.end(), 0))
          << "step " << step;
    }
    for (int x = 0; x < n; ++x) {
      std::vector<double> present(N, 0.0), aux(N, 0.0);
      double base = 0.0, total = 0.0;
      for (int e : g.nets_of(x)) {
        const std::vector<int> phi = dense_counts(e);
        const double w = g.eweight[e], share = g.share(e);
        total += w;
        if (phi[part[x]] == 1) base += w;
        for (int k = 0; k < N; ++k) {
          if (phi[k] > 0) present[k] += w;
          aux[k] += share * (phi[k] - (k == part[x] ? 1 : 0));
        }
      }
      const auto row = state.row(x);
      ASSERT_NEAR(state.base(x), base, 1e-15) << "step " << step << " x " << x;
      ASSERT_NEAR(state.total(x), total, 1e-15) << "step " << step;
      for (int k = 0; k < N; ++k) {
        ASSERT_NEAR(row[k].present, present[k], 1e-15)
            << "step " << step << " x " << x << " k " << k;
        ASSERT_NEAR(row[k].aux, aux[k], 1e-15)
            << "step " << step << " x " << x << " k " << k;
      }
    }
  };

  check_against_recompute(-1);
  int emptied = 0, opened = 0;
  for (int step = 0; step < 3000; ++step) {
    int v;
    do {
      v = static_cast<int>(rng.next_below(n));
    } while (g.pin[v]);
    const NodeId from = part[v];
    const NodeId to = static_cast<NodeId>(
        (from + 1 + static_cast<int>(rng.next_below(N - 1))) % N);
    for (int e : g.nets_of(v)) {
      const std::vector<int> phi = dense_counts(e);
      emptied += phi[from] == 1;
      opened += phi[to] == 0;
    }
    state.move(v, to);
    ASSERT_EQ(part[v], to);
    check_against_recompute(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(emptied, 100);
  EXPECT_GT(opened, 100);
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
