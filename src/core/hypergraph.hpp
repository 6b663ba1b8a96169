// Multilevel hypergraph partitioning — whole queries, not just pairs.
//
// The paper collapses every k-keyword query to pairwise correlations via
// the two-smallest-objects adjustment (core/correlation.hpp), so every
// pairwise strategy — the LP included — optimizes an approximation that
// degrades as mean query length grows past the trace's ~2.54. A query is
// really a *hyperedge*: the set of objects one operation touches. This
// module partitions that hypergraph directly, following the
// partitioning-for-placement line of Golab et al. (Distributed Data
// Placement via Graph Partitioning) and the METIS/hMETIS multilevel
// scheme:
//
//   1. COARSEN: heavy-edge matching on pin co-membership (score of a
//      candidate pair = sum over shared nets of weight / (|net| - 1)),
//      contracting matched vertices and then contracting/deduplicating
//      nets per level (pins remapped, single-pin nets dropped, identical
//      pin sets merged with weights summed);
//   2. PLACE: greedy capacity-respecting placement of the coarsest
//      hypergraph, big vertices first, each to the node already holding
//      the most incident net weight among nodes with room;
//   3. UNCOARSEN + REFINE: project each level back and improve with
//      FM-style single-vertex moves under capacity, maximizing the drop
//      in the rate-weighted connectivity-minus-one objective
//
//          sum_e weight(e) * (lambda(e) - 1),
//
//      lambda(e) = number of distinct nodes hosting e's pins, with ties
//      broken by clique-expansion affinity (zero-gain moves still drift
//      pins toward co-members, letting a later sweep collapse the net).
//      Each vertex's gain row (net weight present per node, co-member
//      affinity per node, the weight it alone holds on its node) is
//      built once per level and updated by deltas on every move, so a
//      visit that moves nothing costs one read of the row.
//      For 2-pin nets lambda - 1 is the cut indicator, so on a pairwise
//      instance this degenerates to a weighted graph partitioner.
//
// The restarted V-cycles run concurrently on the shared pool, one named
// RNG stream each, and the best cycle on the exact objective wins.
//
// Storage: every level is a CSR view (core/hypergraph_detail.hpp). Level
// 0 reads the instance's hyperedge store in place (CcaInstance keeps it
// as one CSR) with incidence lists built once and shared by the cycles;
// each coarse level keeps its nets in one page-mapped block. Each cycle
// owns one workspace: the contraction scratch lives only while it
// coarsens, the refine state (slots, live counts, gain rows) only while
// it uncoarsens, and one set of incidence lists serves the coarse level
// in use. Each buffer is reserved once at level-0 size and resized per
// level without being zero-filled, so a cycle maps it once and backs
// only the pages its levels write.
//
// Pins are honoured exactly and per-node capacities enforced by an
// overflow drain; when a node cannot be drained below capacity the
// overflow spills deterministically and is surfaced through the
// core.hypergraph.capacity_violations metric.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "trace/trace.hpp"

namespace cca::core {

struct HypergraphOptions {
  /// Stop coarsening once this few vertices remain (or matching stalls).
  int coarsen_to = 64;
  /// Refinement sweeps per uncoarsening level. Plateau (zero-lambda-gain)
  /// moves drift pins toward co-members, so later sweeps can collapse
  /// nets the first sweep could not.
  int refinement_passes = 6;
  /// Independent V-cycles per run; the one with the best exact
  /// lambda-minus-one cost (feasible first, ties to the lower index) wins.
  /// Heavy-edge matching is greedy and seed-sensitive, so best-of-N is
  /// markedly more robust than a single cycle. The cycles run
  /// concurrently on the shared pool (common/parallel.hpp).
  int restarts = 4;
  /// Seed for matching and tie-breaking order. Restart i draws from the
  /// named stream "core.hypergraph.r<i>" (see common/rng.hpp), so it
  /// depends only on (seed, i): the placement is the same for any thread
  /// count, and raising `restarts` keeps every earlier cycle.
  std::uint64_t seed = 1;
};

/// Partitions `instance`'s objects over its nodes, minimizing the
/// rate-weighted lambda-minus-one objective over
/// `instance.hyperedges()`. When the instance carries no hyperedges the
/// pairwise view is lifted instead (each pair becomes a 2-pin net of
/// weight r*w), making the result a multilevel graph partitioner on the
/// paper's objective. Honours pins; strives for capacity feasibility and
/// always returns a complete placement.
Placement hypergraph_placement(const CcaInstance& instance,
                               const HypergraphOptions& options = {});

/// Rate-weighted lambda-minus-one cost of a full-vocabulary placement
/// against a query trace: mean over queries of (distinct nodes touched
/// by the query's keywords - 1). The end-to-end quality metric of the
/// strategy frontier bench — computable for ANY strategy's plan, so
/// pairwise and hypergraph placements are comparable on the true
/// whole-query objective.
double trace_lambda_cost(const trace::QueryTrace& trace,
                         const std::vector<NodeId>& keyword_to_node);

}  // namespace cca::core
