// Important-object partial optimization — the end-to-end placement
// pipeline of Secs. 3.1 and 4 .
//
// Only the `scope` most important keywords enter the optimization; the
// rest of the vocabulary is placed by MD5 hashing (the paper's production
// baseline). Per Sec. 4.1, each node's capacity is `capacity_slack` (2.0
// in the paper) times the average per-node index size; the optimizer sees
// that capacity minus the load the hashed tail already put on the node.
//
// Strategies share the pipeline so comparisons are apples-to-apples. They
// are resolved by name through core::StrategyRegistry (see strategy.hpp);
// the built-ins are:
//   "lprr"        — Fig. 4 LP relaxation + Algorithm 2.1 rounding (the
//                   paper's contribution),
//   "greedy"      — the correlation-aware greedy heuristic,
//   "multilevel"  — the hypergraph partitioner on the pairs-only view
//                   (each pair a 2-pin net: the paper's pairwise cut),
//   "hypergraph"  — the same partitioner on whole queries
//                   (lambda - 1 objective; see core/hypergraph.hpp),
//   "random-hash" — hash placement for every keyword (scope ignored).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/correlation.hpp"
#include "core/hypergraph.hpp"
#include "core/instance.hpp"
#include "core/placement_map.hpp"
#include "core/placements.hpp"
#include "core/rounding.hpp"
#include "core/strategy.hpp"
#include "lp/basis.hpp"
#include "trace/trace.hpp"

namespace cca::core {

struct PartialOptimizerConfig {
  int num_nodes = 10;
  std::size_t scope = 1000;      // most-important keywords to optimize
  double capacity_slack = 2.0;   // paper: twice the average per-node load
  /// Hash rule placing the out-of-scope tail (and "random-hash"). kMd5 is
  /// the paper's production baseline; kJump keeps tail movement at ~1/N
  /// under cluster growth (see core/placement_map.hpp).
  HashTail hash_tail = HashTail::kMd5;
  OperationModel operation_model = OperationModel::kSmallestPair;
  /// Correlation miner feeding the importance ranking and the scoped
  /// instance. kExact (default) is bit-for-bit the historical pipeline;
  /// kSketch bounds mining memory for vocabularies the exact counter
  /// cannot hold (see trace/stream_miner.hpp).
  MinerOptions miner;
  RoundingPolicy rounding;       // LPRR only
  GreedyOptions greedy;          // greedy only
  HypergraphOptions hypergraph;  // hypergraph and multilevel (seed is
                                 // overridden by `seed` below)
  std::uint64_t seed = 1;        // LP vertex choice + rounding stream
  /// LPRR: components larger than this fraction of the smallest node
  /// capacity are pre-split so the rounded placement can respect realized
  /// capacity (see ComponentSolverOptions::target_fill). 0 = literal LP
  /// optimum with whole-component collapse.
  double component_fill = 1.0;
  /// Use the full Fig. 4 LP via simplex instead of the component-exact
  /// solver. Identical optima; only viable at small scopes (see
  /// component_solver.hpp). Exposed for validation runs.
  bool use_full_lp = false;
  /// LPRR: reuse the optimal basis of the previous LP solve (held in this
  /// optimizer's warm-start cache) when running the same optimizer
  /// repeatedly, e.g. across seeds or drift steps. Never changes the
  /// placement — only the simplex pivot count (see lp/basis.hpp).
  bool lp_warm_start = true;
};

struct PlacementPlan {
  /// Node of every vocabulary keyword (the "lookup table" of Sec. 4.1).
  std::vector<NodeId> keyword_to_node;
  /// Keywords that were inside the optimization scope.
  std::vector<trace::KeywordId> scope;
  /// Modeled evaluation on the scoped instance (LPRR/greedy; for kRandom
  /// the scoped instance is evaluated under the hash placement).
  PlacementReport scoped_report;
  /// Realized per-node total index bytes (scope + tail).
  std::vector<double> node_loads;
  /// max node load / (slack * average load) over all keywords.
  double max_load_factor = 0.0;
  /// Registry name of the strategy that produced this plan.
  std::string strategy;
};

class PartialOptimizer {
 public:
  /// `index_sizes` are per-keyword byte sizes over the trace vocabulary.
  PartialOptimizer(const trace::QueryTrace& trace,
                   const std::vector<std::uint64_t>& index_sizes,
                   PartialOptimizerConfig config);

  /// Runs one strategy end-to-end and returns the full placement plan.
  /// `strategy` is resolved through StrategyRegistry::global(); unknown
  /// names throw common::Error listing what is registered.
  PlacementPlan run(std::string_view strategy) const;

  /// The scoped CCA instance a strategy optimizes (capacities already
  /// reduced by the hashed tail's load): objects, capacities and mined
  /// pairs, no hyperedges. Useful for diagnostics/benches.
  const CcaInstance& scoped_instance() const { return *instance_; }

  /// scoped_instance() plus the whole-query view: one hyperedge per
  /// distinct multi-keyword query shape, over its in-scope keywords. Built
  /// on the first call (once per optimizer, safe from any thread), so
  /// only strategies that read hyperedges pay for them.
  const CcaInstance& hyperedge_instance() const;

  const PartialOptimizerConfig& config() const { return config_; }
  const std::vector<KeywordPairWeight>& all_pairs() const { return pairs_; }

  /// The hash (production-baseline) placement of the scope keywords: what
  /// "random-hash" uses, and the fallback every tail keyword gets.
  Placement hash_scope_placement() const;

  /// Per-optimizer LP warm-start cache: successive runs against this
  /// optimizer's (fixed-shape) scoped instance hand their final basis to
  /// the next solve. Used by "lprr" when config().lp_warm_start is on.
  lp::WarmStartCache* lp_warm_cache() const { return &lp_warm_cache_; }

 private:
  PlacementPlan assemble(std::string_view strategy,
                         const Placement& scope_placement) const;

  PartialOptimizerConfig config_;
  std::vector<std::uint64_t> index_sizes_;
  std::vector<KeywordPairWeight> pairs_;        // full-vocabulary pairs
  std::vector<trace::KeywordId> ranking_;       // importance order
  std::vector<trace::KeywordId> scope_;         // first `scope` of ranking_
  std::vector<int> object_of_keyword_;          // keyword -> scope index or -1
  std::vector<NodeId> tail_nodes_;              // hash node per keyword
  std::vector<double> tail_loads_;              // hashed tail bytes per node
  double capacity_ = 0.0;                       // slack * average load
  std::unique_ptr<CcaInstance> instance_;
  // Multi-keyword queries with >= 2 in-scope keywords; released once
  // hyperedge_instance() has aggregated them.
  mutable QueryShapes shapes_;
  mutable std::once_flag hyperedges_once_;
  mutable std::unique_ptr<CcaInstance> hyperedge_instance_;
  mutable lp::WarmStartCache lp_warm_cache_;
};

}  // namespace cca::core
