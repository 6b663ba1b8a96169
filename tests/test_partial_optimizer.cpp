// End-to-end partial optimization pipeline: scope handling, tail hashing,
// capacity adjustment, and the LPRR > greedy > random ordering on a
// correlated workload (the paper's central comparison).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/check.hpp"
#include "core/partial_optimizer.hpp"
#include "trace/workload.hpp"

namespace cca::core {
namespace {

struct Workbench {
  trace::QueryTrace trace{0};
  std::vector<std::uint64_t> sizes;
};

Workbench make_workbench(std::size_t vocab = 1200, std::size_t queries = 20000,
                         double mean_query_length = 2.54) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = vocab;
  cfg.mean_query_length = mean_query_length;
  cfg.num_topics = 60;
  cfg.topic_size = 8;
  cfg.seed = 5;
  const trace::WorkloadModel model(cfg);
  Workbench wb;
  wb.trace = model.generate(queries, 17);
  wb.sizes.resize(vocab);
  for (std::size_t k = 0; k < vocab; ++k)
    wb.sizes[k] = 8 * (1 + vocab / (k + 1));  // Zipf-ish index sizes
  return wb;
}

PartialOptimizerConfig base_config() {
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 8;
  cfg.scope = 300;
  cfg.seed = 3;
  cfg.rounding.trials = 8;
  return cfg;
}

TEST(PartialOptimizer, PlanCoversWholeVocabulary) {
  const Workbench wb = make_workbench();
  const PartialOptimizer opt(wb.trace, wb.sizes, base_config());
  const PlacementPlan plan = opt.run("lprr");
  ASSERT_EQ(plan.keyword_to_node.size(), wb.sizes.size());
  for (NodeId node : plan.keyword_to_node) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, 8);
  }
  EXPECT_EQ(plan.scope.size(), 300u);
}

TEST(PartialOptimizer, NodeLoadsSumToTotalIndexBytes) {
  const Workbench wb = make_workbench();
  const PartialOptimizer opt(wb.trace, wb.sizes, base_config());
  for (std::string_view s : {"random-hash", "greedy", "lprr"}) {
    const PlacementPlan plan = opt.run(s);
    double total_loads = 0.0;
    for (double load : plan.node_loads) total_loads += load;
    double total_sizes = 0.0;
    for (std::uint64_t size : wb.sizes) total_sizes += static_cast<double>(size);
    EXPECT_NEAR(total_loads, total_sizes, 1e-6) << s;
  }
}

TEST(PartialOptimizer, TailKeywordsFollowMd5Hash) {
  const Workbench wb = make_workbench();
  const PartialOptimizerConfig cfg = base_config();
  const PartialOptimizer opt(wb.trace, wb.sizes, cfg);
  const PlacementPlan lprr = opt.run("lprr");
  const PlacementPlan random = opt.run("random-hash");
  // Outside the scope, both strategies place identically (hash).
  std::vector<bool> in_scope(wb.sizes.size(), false);
  for (trace::KeywordId k : lprr.scope) in_scope[k] = true;
  for (std::size_t k = 0; k < wb.sizes.size(); ++k) {
    if (!in_scope[k]) {
      EXPECT_EQ(lprr.keyword_to_node[k], random.keyword_to_node[k]);
    }
  }
}

TEST(PartialOptimizer, StrategiesAreDeterministicPerSeed) {
  const Workbench wb = make_workbench();
  const PartialOptimizer a(wb.trace, wb.sizes, base_config());
  const PartialOptimizer b(wb.trace, wb.sizes, base_config());
  for (std::string_view s : {"random-hash", "greedy", "lprr"})
    EXPECT_EQ(a.run(s).keyword_to_node, b.run(s).keyword_to_node)
        << s;
}

TEST(PartialOptimizer, ModeledCostOrderingLprrBeatsGreedyBeatsRandom) {
  // The paper's Fig. 6/7 ordering on the *modeled* scoped objective.
  const Workbench wb = make_workbench();
  const PartialOptimizer opt(wb.trace, wb.sizes, base_config());
  const double random_cost = opt.run("random-hash").scoped_report.cost;
  const double greedy_cost = opt.run("greedy").scoped_report.cost;
  const double lprr_cost = opt.run("lprr").scoped_report.cost;
  EXPECT_LT(lprr_cost, greedy_cost + 1e-9);
  EXPECT_LT(greedy_cost, random_cost);
  // Substantial, not marginal. This workbench is deliberately a hard
  // regime (the scope holds most of the bytes, so balance keeps forcing
  // splits); the paper's own band starts at 37% savings.
  EXPECT_LT(lprr_cost, 0.7 * random_cost);
}

TEST(PartialOptimizer, LargerScopeNeverHurtsModeledCoverage) {
  const Workbench wb = make_workbench();
  PartialOptimizerConfig small = base_config();
  small.scope = 100;
  PartialOptimizerConfig large = base_config();
  large.scope = 600;
  // Compare total-pair-cost coverage: the scoped instance of the larger
  // scope must cover at least as much pair cost.
  const PartialOptimizer a(wb.trace, wb.sizes, small);
  const PartialOptimizer b(wb.trace, wb.sizes, large);
  EXPECT_GE(b.scoped_instance().total_pair_cost(),
            a.scoped_instance().total_pair_cost());
}

TEST(PartialOptimizer, CapacityReducedByTailLoad) {
  const Workbench wb = make_workbench();
  const PartialOptimizerConfig cfg = base_config();
  const PartialOptimizer opt(wb.trace, wb.sizes, cfg);
  const CcaInstance& inst = opt.scoped_instance();
  double total_bytes = 0.0;
  for (std::uint64_t s : wb.sizes) total_bytes += static_cast<double>(s);
  const double full_capacity =
      cfg.capacity_slack * total_bytes / cfg.num_nodes;
  for (int k = 0; k < cfg.num_nodes; ++k)
    EXPECT_LT(inst.node_capacity(k), full_capacity);
}

TEST(PartialOptimizer, FullLpPathMatchesComponentPathObjective) {
  // On a small scope both LPRR paths reach LP objective 0 and comparable
  // rounded costs (they share the rounding stream structure but may pick
  // different vertices; the modeled cost of each must be << random).
  // Scope stays tiny: the literal Fig. 4 program has ~2|E||N| rows and the
  // simplex cost grows with the square of that (the same wall it put in
  // front of the paper's authors — Sec. 4.2's 48-hour solves).
  const Workbench wb = make_workbench(400, 8000);
  PartialOptimizerConfig cfg = base_config();
  cfg.scope = 14;
  cfg.num_nodes = 4;
  const PartialOptimizer opt(wb.trace, wb.sizes, cfg);
  PartialOptimizerConfig full_cfg = cfg;
  full_cfg.use_full_lp = true;
  const PartialOptimizer full_opt(wb.trace, wb.sizes, full_cfg);

  const double component_cost = opt.run("lprr").scoped_report.cost;
  const double full_cost = full_opt.run("lprr").scoped_report.cost;
  const double random_cost = opt.run("random-hash").scoped_report.cost;
  EXPECT_LT(component_cost, 0.7 * random_cost);
  EXPECT_LT(full_cost, 0.7 * random_cost);
}

TEST(PartialOptimizer, RejectsBadConfig) {
  const Workbench wb = make_workbench(200, 1000);
  PartialOptimizerConfig cfg = base_config();
  cfg.capacity_slack = 0.5;
  EXPECT_THROW(PartialOptimizer(wb.trace, wb.sizes, cfg), common::Error);
  cfg = base_config();
  cfg.scope = 0;
  EXPECT_THROW(PartialOptimizer(wb.trace, wb.sizes, cfg), common::Error);
}

TEST(PartialOptimizer, ScopeLargerThanVocabularyIsClamped) {
  const Workbench wb = make_workbench(200, 3000);
  PartialOptimizerConfig cfg = base_config();
  cfg.scope = 10000;
  cfg.num_nodes = 4;
  const PartialOptimizer opt(wb.trace, wb.sizes, cfg);
  const PlacementPlan plan = opt.run("lprr");
  EXPECT_EQ(plan.scope.size(), 200u);
}

/// The eager whole-query view the optimizer constructor used to build:
/// every multi-keyword shape aggregated over the full trace, scoped to the
/// optimizer's objects, then canonicalized by set_hyperedges.
CcaInstance eager_hyperedge_instance(const PartialOptimizer& opt,
                                     const trace::QueryTrace& trace,
                                     std::size_t vocab) {
  std::vector<int> object(vocab, -1);
  const std::vector<trace::KeywordId> scope = opt.run("random-hash").scope;
  for (std::size_t pos = 0; pos < scope.size(); ++pos)
    object[scope[pos]] = static_cast<int>(pos);
  std::vector<Hyperedge> edges;
  for (const KeywordHyperedge& e : build_hyperedges(trace)) {
    Hyperedge scoped{{}, e.weight};
    for (const trace::KeywordId k : e.pins)
      if (object[k] >= 0) scoped.pins.push_back(object[k]);
    if (scoped.pins.size() >= 2) edges.push_back(std::move(scoped));
  }
  CcaInstance reference = opt.scoped_instance();
  reference.set_hyperedges(std::move(edges));
  return reference;
}

void expect_same_hyperedges(const CcaInstance& actual,
                            const CcaInstance& expected) {
  ASSERT_EQ(actual.hyperedges().size(), expected.hyperedges().size());
  for (std::size_t e = 0; e < actual.hyperedges().size(); ++e) {
    const Hyperedge& a = actual.hyperedges()[e];
    const Hyperedge& b = expected.hyperedges()[e];
    ASSERT_EQ(a.pins, b.pins) << "edge " << e;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.weight),
              std::bit_cast<std::uint64_t>(b.weight))
        << "edge " << e;
  }
}

TEST(PartialOptimizer, HyperedgeInstanceMatchesEagerBuild) {
  for (const double qlen : {2.54, 4.0, 6.0}) {
    SCOPED_TRACE(qlen);
    const Workbench wb = make_workbench(600, 8000, qlen);
    const PartialOptimizer opt(wb.trace, wb.sizes, base_config());
    EXPECT_FALSE(opt.scoped_instance().has_hyperedges());
    const CcaInstance& lazy = opt.hyperedge_instance();
    ASSERT_TRUE(lazy.has_hyperedges());
    EXPECT_EQ(lazy.pairs().size(), opt.scoped_instance().pairs().size());
    expect_same_hyperedges(lazy,
                           eager_hyperedge_instance(opt, wb.trace, 600));
    EXPECT_EQ(&opt.hyperedge_instance(), &lazy);  // built once
  }

  // Three distinct full shapes scope down to the pin set {0, 1}: their
  // rates merge, summed in the full shapes' order.
  trace::QueryTrace trace(5);
  for (int q = 0; q < 30; ++q) trace.add_query({0, 1, 2});
  for (int q = 0; q < 20; ++q) trace.add_query({0, 1, 3});
  for (int q = 0; q < 10; ++q) trace.add_query({0, 1});
  trace.add_query({2, 3});
  trace.add_query({4});
  const std::vector<std::uint64_t> sizes{1000, 1000, 1, 1, 1};
  PartialOptimizerConfig cfg;
  cfg.num_nodes = 2;
  cfg.scope = 2;
  cfg.operation_model = OperationModel::kAllPairs;
  const PartialOptimizer opt(trace, sizes, cfg);
  EXPECT_FALSE(opt.scoped_instance().has_hyperedges());
  const CcaInstance& lazy = opt.hyperedge_instance();
  ASSERT_EQ(lazy.hyperedges().size(), 1u);
  EXPECT_EQ(lazy.hyperedges()[0].pins, (std::vector<ObjectId>{0, 1}));
  const double unit = 1.0 / 62.0;
  EXPECT_EQ(lazy.hyperedges()[0].weight, 10 * unit + 30 * unit + 20 * unit);
  expect_same_hyperedges(lazy, eager_hyperedge_instance(opt, trace, 5));
}

}  // namespace
}  // namespace cca::core
