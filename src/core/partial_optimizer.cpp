#include "core/partial_optimizer.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>

#include "common/check.hpp"
#include "common/metrics.hpp"

namespace cca::core {

PartialOptimizer::PartialOptimizer(
    const trace::QueryTrace& trace,
    const std::vector<std::uint64_t>& index_sizes,
    PartialOptimizerConfig config)
    : config_(config), index_sizes_(index_sizes) {
  static common::Timer& ctor_timer =
      common::MetricsRegistry::global().timer("core.optimizer.ctor");
  const common::ScopedTimer timer(ctor_timer);
  CCA_CHECK(config.num_nodes >= 1);
  CCA_CHECK(config.scope >= 1);
  CCA_CHECK_MSG(config.capacity_slack >= 1.0,
                "capacity below the average load cannot hold the data");
  CCA_CHECK(index_sizes.size() >= trace.vocabulary_size());
  const std::size_t vocab = index_sizes.size();

  pairs_ = mine_pair_weights(trace, index_sizes_, config.operation_model,
                             config.miner);
  ranking_ = importance_ranking(pairs_, index_sizes_);
  scope_.assign(ranking_.begin(),
                ranking_.begin() +
                    std::min<std::size_t>(config.scope, ranking_.size()));

  object_of_keyword_.assign(vocab, -1);
  for (std::size_t pos = 0; pos < scope_.size(); ++pos)
    object_of_keyword_[scope_[pos]] = static_cast<int>(pos);

  // Hash nodes for every keyword; only tail keywords actually use them,
  // but kRandom reuses the full map.
  tail_nodes_.resize(vocab);
  for (std::size_t k = 0; k < vocab; ++k)
    tail_nodes_[k] = static_cast<NodeId>(
        tail_node(config.hash_tail, static_cast<trace::KeywordId>(k),
                  config.num_nodes));

  tail_loads_.assign(static_cast<std::size_t>(config.num_nodes), 0.0);
  double total_bytes = 0.0;
  for (std::size_t k = 0; k < vocab; ++k) {
    total_bytes += static_cast<double>(index_sizes_[k]);
    if (object_of_keyword_[k] < 0)
      tail_loads_[tail_nodes_[k]] += static_cast<double>(index_sizes_[k]);
  }
  capacity_ = config.capacity_slack * total_bytes /
              static_cast<double>(config.num_nodes);

  // The scoped instance: objects are scope keywords; capacity available to
  // the optimizer is what the hashed tail leaves free on each node.
  std::vector<double> sizes(scope_.size());
  for (std::size_t pos = 0; pos < scope_.size(); ++pos)
    sizes[pos] = static_cast<double>(index_sizes_[scope_[pos]]);
  std::vector<double> capacities(static_cast<std::size_t>(config.num_nodes));
  for (int k = 0; k < config.num_nodes; ++k)
    capacities[k] = std::max(0.0, capacity_ - tail_loads_[k]);

  std::vector<PairWeight> scoped_pairs;
  for (const KeywordPairWeight& p : pairs_) {
    const int oi = object_of_keyword_[p.a];
    const int oj = object_of_keyword_[p.b];
    if (oi < 0 || oj < 0) continue;  // pair leaves the scope: tail-handled
    scoped_pairs.push_back(PairWeight{oi, oj, p.r, p.w});
  }
  instance_ = std::make_unique<CcaInstance>(
      std::move(sizes), std::move(capacities), std::move(scoped_pairs));

  // Raw material of the whole-query view, aggregated only if a strategy
  // asks for it (hyperedge_instance()). A shape with fewer than two
  // in-scope keywords scopes to no edge, and every copy of a shape scopes
  // alike, so those queries are dropped here without changing any edge.
  shapes_ = QueryShapes(trace, [&](const trace::Query& q) {
    int in_scope = 0;
    for (const trace::KeywordId k : q.keywords)
      if (object_of_keyword_[k] >= 0 && ++in_scope == 2) return true;
    return false;
  });
}

const CcaInstance& PartialOptimizer::hyperedge_instance() const {
  std::call_once(hyperedges_once_, [this] {
    static common::Timer& timer =
        common::MetricsRegistry::global().timer("core.optimizer.hyperedges");
    const common::ScopedTimer scoped_timer(timer);
    // Each distinct full query shape becomes a hyperedge over its in-scope
    // keywords. Out-of-scope pins are dropped (the hashed tail places them
    // identically for every strategy); shapes that scope to the same pin
    // set merge inside set_hyperedges.
    const std::vector<QueryShapes::Edge> edges = shapes_.aggregate();
    std::vector<Hyperedge> scoped_edges;
    scoped_edges.reserve(edges.size());
    for (const QueryShapes::Edge& e : edges) {
      Hyperedge scoped;
      scoped.weight = e.weight;
      for (const trace::KeywordId k : e.pins)
        if (object_of_keyword_[k] >= 0)
          scoped.pins.push_back(object_of_keyword_[k]);
      scoped_edges.push_back(std::move(scoped));
    }
    hyperedge_instance_ = std::make_unique<CcaInstance>(*instance_);
    hyperedge_instance_->set_hyperedges(std::move(scoped_edges));
    shapes_ = QueryShapes();
  });
  return *hyperedge_instance_;
}

PlacementPlan PartialOptimizer::run(std::string_view strategy) const {
  const StrategyFn& fn = StrategyRegistry::global().at(strategy);
  auto& reg = common::MetricsRegistry::global();
  static common::Counter& runs = reg.counter("core.optimizer.runs");
  static common::Timer& strategy_timer = reg.timer("core.optimizer.strategy");
  static common::Timer& assemble_timer = reg.timer("core.optimizer.assemble");
  runs.add();

  Placement scope_placement;
  {
    const common::ScopedTimer timer(strategy_timer);
    scope_placement = fn(*this);
  }
  const common::ScopedTimer timer(assemble_timer);
  return assemble(strategy, scope_placement);
}

Placement PartialOptimizer::hash_scope_placement() const {
  // Pure hash for everything: the scoped placement is just the hash nodes
  // of the scope keywords.
  Placement scope_placement(scope_.size());
  for (std::size_t pos = 0; pos < scope_.size(); ++pos)
    scope_placement[pos] = tail_nodes_[scope_[pos]];
  return scope_placement;
}

PlacementPlan PartialOptimizer::assemble(
    std::string_view strategy, const Placement& scope_placement) const {
  CCA_CHECK(scope_placement.size() == scope_.size());
  PlacementPlan plan;
  plan.strategy = std::string(strategy);
  plan.scope = scope_;
  plan.scoped_report = evaluate_placement(*instance_, scope_placement);

  const std::size_t vocab = tail_nodes_.size();
  plan.keyword_to_node.resize(vocab);
  plan.node_loads.assign(static_cast<std::size_t>(config_.num_nodes), 0.0);
  for (std::size_t k = 0; k < vocab; ++k) {
    const int obj = object_of_keyword_[k];
    const NodeId node = obj >= 0 ? scope_placement[obj] : tail_nodes_[k];
    plan.keyword_to_node[k] = node;
    plan.node_loads[node] += static_cast<double>(index_sizes_[k]);
  }
  const double base_capacity = capacity_;
  for (double load : plan.node_loads)
    plan.max_load_factor =
        std::max(plan.max_load_factor,
                 base_capacity > 0.0 ? load / base_capacity : 0.0);

  // Per-node realized load factors, in percent (histogram rather than a
  // gauge: benches assemble plans from parallel grid cells).
  if (common::metrics_enabled()) {
    static common::Histogram& load_pct =
        common::MetricsRegistry::global().histogram(
            "core.plan.node_load_factor_pct");
    for (double load : plan.node_loads)
      load_pct.observe(static_cast<std::uint64_t>(
          base_capacity > 0.0 ? 100.0 * load / base_capacity : 0.0));
  }
  return plan;
}

}  // namespace cca::core
