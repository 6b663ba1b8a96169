// Migration accounting and bounded-churn incremental re-optimization.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/migration.hpp"
#include "core/placements.hpp"

namespace cca::core {
namespace {

TEST(Migration, CountsMovedBytes) {
  const CcaInstance inst({4, 2, 2}, {8, 8}, {});
  const MigrationReport r = migration_between(inst, {0, 0, 1}, {1, 0, 1});
  EXPECT_EQ(r.objects_moved, 1u);
  EXPECT_DOUBLE_EQ(r.bytes_moved, 4.0);
  EXPECT_DOUBLE_EQ(r.moved_fraction, 0.5);
}

TEST(Migration, IdenticalPlacementsMoveNothing) {
  const CcaInstance inst({1, 1}, {4, 4}, {});
  const MigrationReport r = migration_between(inst, {0, 1}, {0, 1});
  EXPECT_EQ(r.objects_moved, 0u);
  EXPECT_DOUBLE_EQ(r.moved_fraction, 0.0);
}

/// Two 2-object clusters; `current` separates both (worst case).
CcaInstance drifted_instance() {
  return CcaInstance({1, 1, 1, 1}, {4, 4},
                     {{0, 1, 0.9, 10.0}, {2, 3, 0.8, 10.0}});
}

IncrementalConfig config_with_budget(double fraction) {
  IncrementalConfig cfg;
  cfg.migration_budget_fraction = fraction;
  cfg.rounding.trials = 8;
  cfg.seed = 5;
  return cfg;
}

TEST(Incremental, ZeroBudgetKeepsCurrentPlacement) {
  const CcaInstance inst = drifted_instance();
  const Placement current{0, 1, 0, 1};  // both clusters split
  const IncrementalResult r =
      IncrementalOptimizer(config_with_budget(0.0)).reoptimize(inst, current);
  EXPECT_EQ(r.placement, current);
  EXPECT_DOUBLE_EQ(r.cost, r.stale_cost);
  EXPECT_EQ(r.migration.objects_moved, 0u);
}

TEST(Incremental, UnlimitedBudgetReachesFreshTargetCost) {
  const CcaInstance inst = drifted_instance();
  const Placement current{0, 1, 0, 1};
  const IncrementalResult r =
      IncrementalOptimizer(config_with_budget(1.0)).reoptimize(inst, current);
  EXPECT_LE(r.cost, r.fresh_target_cost + 1e-9);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);  // both clusters reunited
  EXPECT_TRUE(inst.is_feasible(r.placement));
}

TEST(Incremental, BudgetIsRespected) {
  const CcaInstance inst = drifted_instance();
  const Placement current{0, 1, 0, 1};
  // Budget for one object only (total bytes 4 -> fraction 0.25 = 1 byte).
  const IncrementalResult r = IncrementalOptimizer(config_with_budget(0.25))
                                  .reoptimize(inst, current);
  EXPECT_LE(r.migration.bytes_moved, 1.0 + 1e-9);
  // One reunification is affordable and strictly improves.
  EXPECT_LT(r.cost, r.stale_cost);
}

TEST(Incremental, BuildsGroupsOnceWhenTheBudgetDoesNotCapTheFill) {
  // Budget 1.0 leaves the unit fill at the solver's 1.0, so the LP's
  // groups double as move units; budget 0.25 caps it at 0.25 and needs a
  // second, finer grouping. The build_groups timer counts the builds.
  common::MetricsRegistry& reg = common::MetricsRegistry::global();
  common::Timer& builds = reg.timer("core.components.build_groups");
  const CcaInstance inst = drifted_instance();
  const Placement current{0, 1, 0, 1};
  for (const auto& [budget, expected_builds] :
       {std::pair{1.0, 1}, std::pair{0.25, 2}}) {
    reg.set_enabled(true);
    builds.reset();
    const IncrementalResult r =
        IncrementalOptimizer(config_with_budget(budget))
            .reoptimize(inst, current);
    reg.set_enabled(false);
    EXPECT_EQ(builds.calls(), expected_builds) << "budget " << budget;
    EXPECT_LT(r.cost, r.stale_cost) << "budget " << budget;
  }
}

TEST(Incremental, SpendsBudgetOnTheMostValuableMove) {
  // Cluster (0,1) is worth 9, cluster (2,3) worth 1; budget one object.
  const CcaInstance inst({1, 1, 1, 1}, {4, 4},
                         {{0, 1, 0.9, 10.0}, {2, 3, 0.1, 10.0}});
  const Placement current{0, 1, 0, 1};
  const IncrementalResult r = IncrementalOptimizer(config_with_budget(0.25))
                                  .reoptimize(inst, current);
  // The expensive cluster must be reunited; the cheap one may stay split.
  EXPECT_EQ(r.placement[0], r.placement[1]);
  EXPECT_LE(r.stale_cost - r.cost, 9.0 + 1e-9);
  EXPECT_GE(r.stale_cost - r.cost, 9.0 - 1e-9);
}

TEST(Incremental, NeverAdoptsHarmfulMoves) {
  // Current placement is already optimal: no move should happen even with
  // a full budget (benefits are all <= 0).
  const CcaInstance inst = drifted_instance();
  const Placement good{0, 0, 1, 1};
  const IncrementalResult r =
      IncrementalOptimizer(config_with_budget(1.0)).reoptimize(inst, good);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_EQ(r.migration.objects_moved, 0u);
}

TEST(Incremental, RespectsCapacityOnAdoption) {
  // Reuniting the cluster on one node would exceed its capacity; the
  // optimizer must decline rather than overload.
  const CcaInstance inst({2, 2}, {2.5, 2.5}, {{0, 1, 1.0, 10.0}});
  const Placement current{0, 1};
  const IncrementalResult r =
      IncrementalOptimizer(config_with_budget(1.0)).reoptimize(inst, current);
  EXPECT_TRUE(inst.is_feasible(r.placement));
  EXPECT_EQ(r.placement[0], 0);
  EXPECT_EQ(r.placement[1], 1);
}

TEST(Incremental, LargerBudgetsMonotonicallyImproveOnRandomStart) {
  // Property: on a bigger random-ish instance, more budget never yields a
  // worse final cost.
  common::Rng rng(11);
  std::vector<double> sizes(40);
  for (double& s : sizes) s = 1.0 + rng.next_double() * 3.0;
  std::vector<PairWeight> pairs;
  for (int c = 0; c < 10; ++c) {
    const int base = c * 4;
    for (int a = 0; a < 4; ++a)
      for (int b = a + 1; b < 4; ++b)
        pairs.push_back({base + a, base + b, 0.2 + rng.next_double() * 0.6,
                         1.0 + rng.next_double() * 5.0});
  }
  double total = 0.0;
  for (double s : sizes) total += s;
  const CcaInstance inst(sizes, std::vector<double>(5, 2.0 * total / 5.0),
                         pairs);
  const Placement start = random_hash_placement(inst);

  double previous = inst.communication_cost(start) + 1e-9;
  for (double budget : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    const IncrementalResult r = IncrementalOptimizer(
        config_with_budget(budget)).reoptimize(inst, start);
    EXPECT_LE(r.cost, previous + 1e-9) << "budget " << budget;
    EXPECT_LE(r.migration.moved_fraction, budget + 1e-9);
    previous = r.cost;
  }
}

}  // namespace
}  // namespace cca::core
