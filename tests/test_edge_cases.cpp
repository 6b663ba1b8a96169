// Adversarial and degenerate inputs across public APIs: NaN/Inf rejection,
// single-node/single-object instances, zero sizes, empty structures.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/component_solver.hpp"
#include "core/hypergraph.hpp"
#include "core/partial_optimizer.hpp"
#include "core/placements.hpp"
#include "core/rounding.hpp"
#include "search/inverted_index.hpp"
#include "sim/cluster.hpp"
#include "trace/documents.hpp"
#include "trace/workload.hpp"

namespace cca {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EdgeCases, InstanceRejectsNonFiniteInputs) {
  EXPECT_THROW(core::CcaInstance({kNan}, {1.0}, {}), common::Error);
  EXPECT_THROW(core::CcaInstance({kInf}, {1.0}, {}), common::Error);
  EXPECT_THROW(core::CcaInstance({1.0}, {kNan}, {}), common::Error);
  EXPECT_THROW(core::CcaInstance({1.0, 1.0}, {2.0}, {{0, 1, kNan, 1.0}}),
               common::Error);
  EXPECT_THROW(core::CcaInstance({1.0, 1.0}, {2.0}, {{0, 1, 0.5, kInf}}),
               common::Error);
}

TEST(EdgeCases, SingleNodeEverythingCoLocates) {
  // N = 1: every strategy must place everything on node 0 at cost 0.
  const core::CcaInstance inst({3, 2, 1}, {10},
                               {{0, 1, 0.9, 5.0}, {1, 2, 0.5, 2.0}});
  for (const core::Placement& p :
       {core::random_hash_placement(inst), core::greedy_placement(inst),
        core::hypergraph_placement(inst)}) {
    EXPECT_EQ(p, (core::Placement{0, 0, 0}));
  }
  const core::FractionalPlacement x = core::ComponentLpSolver(1).solve(inst);
  common::Rng rng(1);
  EXPECT_EQ(core::round_once(x, rng), (core::Placement{0, 0, 0}));
  EXPECT_DOUBLE_EQ(inst.communication_cost({0, 0, 0}), 0.0);
}

TEST(EdgeCases, SingleObjectInstance) {
  const core::CcaInstance inst({5.0}, {10, 10}, {});
  const auto exact = core::brute_force_optimal(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->cost, 0.0);
  const core::FractionalPlacement x = core::ComponentLpSolver(1).solve(inst);
  EXPECT_LT(x.max_row_violation(), 1e-9);
}

TEST(EdgeCases, ZeroSizeObjectsPlaceFreely) {
  // Zero-size objects consume no capacity anywhere.
  const core::CcaInstance inst({0.0, 0.0, 4.0}, {4, 4},
                               {{0, 1, 0.5, 3.0}, {1, 2, 0.5, 3.0}});
  const core::FractionalPlacement x = core::ComponentLpSolver(2).solve(inst);
  common::Rng rng(2);
  const core::Placement p = core::round_once(x, rng);
  EXPECT_TRUE(inst.is_feasible(p));
  EXPECT_DOUBLE_EQ(inst.communication_cost(p), 0.0);  // all co-located
}

TEST(EdgeCases, ExactCapacityFitIsFeasible) {
  // Total size exactly equals total capacity: the transportation LP sits
  // on the feasibility boundary and must still solve.
  const core::CcaInstance inst({3, 3}, {3, 3}, {{0, 1, 1.0, 4.0}});
  const core::FractionalPlacement x = core::ComponentLpSolver(3).solve(inst);
  const auto loads = x.expected_loads(inst);
  EXPECT_NEAR(loads[0], 3.0, 1e-6);
  EXPECT_NEAR(loads[1], 3.0, 1e-6);
}

TEST(EdgeCases, AllPairsZeroCorrelation) {
  // r = 0 everywhere: any placement costs 0; the solvers must not choke.
  const core::CcaInstance inst({1, 1, 1}, {2, 2},
                               {{0, 1, 0.0, 5.0}, {1, 2, 0.0, 5.0}});
  EXPECT_DOUBLE_EQ(inst.total_pair_cost(), 0.0);
  const core::Placement p = core::greedy_placement(inst);
  EXPECT_TRUE(inst.is_feasible(p));
  const auto exact = core::brute_force_optimal(inst);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->cost, 0.0);
}

TEST(EdgeCases, DuplicatePairsAccumulate) {
  // The same (i, j) pair may be listed twice (e.g. merged traces); the
  // cost must count both.
  const core::CcaInstance inst({1, 1}, {2, 2},
                               {{0, 1, 0.5, 2.0}, {0, 1, 0.25, 4.0}});
  EXPECT_DOUBLE_EQ(inst.communication_cost({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(inst.total_pair_cost(), 2.0);
}

TEST(EdgeCases, WorkloadSingleKeywordQueriesOnly) {
  // mean_query_length = 1: every query has one keyword, no pairs at all.
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 100;
  cfg.num_topics = 10;
  cfg.mean_query_length = 1.0;
  const trace::QueryTrace t = trace::WorkloadModel(cfg).generate(500, 1);
  EXPECT_EQ(t.multi_keyword_queries(), 0u);
  EXPECT_EQ(trace::PairCounter::count_all_pairs(t).distinct_pairs(), 0u);
}

TEST(EdgeCases, OptimizerOnPairlessTraceStillPlacesEverything) {
  trace::WorkloadConfig cfg;
  cfg.vocabulary_size = 200;
  cfg.num_topics = 10;
  cfg.mean_query_length = 1.0;
  const trace::QueryTrace t = trace::WorkloadModel(cfg).generate(1000, 1);
  std::vector<std::uint64_t> sizes(200, 8);
  core::PartialOptimizerConfig opt_cfg;
  opt_cfg.num_nodes = 4;
  opt_cfg.scope = 50;
  const core::PartialOptimizer opt(t, sizes, opt_cfg);
  for (std::string_view s :
       {"random-hash", "greedy",
        "multilevel", "lprr"}) {
    const core::PlacementPlan plan = opt.run(s);
    EXPECT_EQ(plan.keyword_to_node.size(), 200u) << s;
    EXPECT_DOUBLE_EQ(plan.scoped_report.cost, 0.0) << s;
  }
}

TEST(EdgeCases, EmptyCorpusDocuments) {
  // Documents with no words are legal (fully stop-worded pages).
  std::vector<trace::Document> docs = {{1, {}}, {2, {0}}};
  const trace::Corpus corpus(1, std::move(docs));
  const search::InvertedIndex index = search::InvertedIndex::build(corpus);
  EXPECT_EQ(index.postings(0).size(), 1u);
}

TEST(EdgeCases, ClusterWithZeroCapacityReportsGracefully) {
  sim::Cluster cluster(2, 0.0);
  cluster.install_placement({0, 1}, {8, 8});
  EXPECT_DOUBLE_EQ(cluster.max_storage_factor(), 0.0);  // defined as 0
  EXPECT_GT(cluster.storage_imbalance(), 0.0);
}

TEST(EdgeCases, RoundingOnDegenerateOneNodeMatrix) {
  core::FractionalPlacement x(3, 1);
  for (int i = 0; i < 3; ++i) x.set(i, 0, 1.0);
  common::Rng rng(4);
  EXPECT_EQ(core::round_once(x, rng), (core::Placement{0, 0, 0}));
}

TEST(EdgeCases, GreedyOrderByCostTieBreaksDeterministically) {
  const core::CcaInstance inst({1, 1, 1, 1}, {2, 2},
                               {{0, 1, 0.5, 2.0}, {2, 3, 0.5, 2.0}});
  const core::Placement a =
      core::greedy_placement(inst, core::GreedyOptions{true});
  const core::Placement b =
      core::greedy_placement(inst, core::GreedyOptions{true});
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cca
