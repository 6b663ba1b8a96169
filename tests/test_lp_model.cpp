// lp::Model validation, CanonicalForm equivalences, and the Solver facade.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lp/canonical.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/solver.hpp"

namespace cca::lp {
namespace {

TEST(LpModel, MergesDuplicateTermsAndDropsZeros) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kLessEqual, 5.0,
                   {{x, 1.0}, {x, 2.0}, {y, 0.0}, {x, -3.0}});
  // x coefficients sum to 0 and y is explicitly 0: the row becomes empty.
  EXPECT_TRUE(m.row_terms(0).empty());
  EXPECT_EQ(m.num_nonzeros(), 0u);
}

TEST(LpModel, ValidatesInputs) {
  Model m;
  EXPECT_THROW(m.add_variable(2.0, 1.0, 0.0), common::Error);  // bounds flip
  const int x = m.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(m.add_constraint(Relation::kEqual, 1.0, {{x + 5, 1.0}}),
               common::Error);
  EXPECT_THROW(m.add_constraint(Relation::kEqual,
                                std::numeric_limits<double>::quiet_NaN(),
                                {{x, 1.0}}),
               common::Error);
}

TEST(LpModel, ObjectiveAndViolationEvaluation) {
  Model m;
  const int x = m.add_variable(0.0, 2.0, 3.0);
  const int y = m.add_variable(-1.0, kInfinity, -1.0);
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_DOUBLE_EQ(m.objective_value({2.0, 1.0}), 5.0);
  EXPECT_DOUBLE_EQ(m.max_violation({2.0, 1.0}), 0.0);
  // Violations: x over its bound by 0.5, y under its bound by 3.0, and
  // the row short by 2.5 — the max is y's bound violation.
  EXPECT_DOUBLE_EQ(m.max_violation({2.5, -4.0}), 3.0);
}

TEST(CanonicalForm, RoundTripsShiftedBounds) {
  // min x st x >= 2, x in [2, 9]: canonical var is x - 2.
  Model m;
  const int x = m.add_variable(2.0, 9.0, 1.0);
  m.add_constraint(Relation::kGreaterEqual, 3.0, {{x, 1.0}});
  const CanonicalForm canon(m);
  // Objective offset carries the shift: user obj = canon obj + 2.
  EXPECT_DOUBLE_EQ(canon.objective_offset(), 2.0);
  // Solving the whole model must honour both the bound and the row.
  const Solution s = DenseSimplex().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(CanonicalForm, EveryRowGetsIdentityStartOrArtificial) {
  Model m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  m.add_constraint(Relation::kLessEqual, 4.0, {{x, 1.0}});     // slack
  m.add_constraint(Relation::kGreaterEqual, 1.0, {{x, 1.0}});  // needs art.
  m.add_constraint(Relation::kEqual, 2.0, {{x, 1.0}});         // needs art.
  m.add_constraint(Relation::kLessEqual, -1.0, {{x, -1.0}});   // negated GE
  const CanonicalForm canon(m);
  EXPECT_GE(canon.identity_slack_for_row(0), 0);
  EXPECT_LT(canon.identity_slack_for_row(1), 0);
  EXPECT_LT(canon.identity_slack_for_row(2), 0);
  // Row 3 (-x <= -1) negates to x - s = 1: its slack flips to -1, so it
  // also needs an artificial start.
  EXPECT_LT(canon.identity_slack_for_row(3), 0);
  for (int i = 0; i < canon.num_rows(); ++i)
    EXPECT_GE(canon.rhs()[i], 0.0) << "row " << i;
}

TEST(CanonicalForm, FreeVariableSplitsIntoTwoColumns) {
  Model m;
  m.add_variable(-kInfinity, kInfinity, 1.0);
  const CanonicalForm canon(m);
  EXPECT_EQ(canon.num_cols(), 2);
  // x = 0 + plus - minus: reconstruct from a canonical point.
  const std::vector<double> canonical{1.5, 4.0};
  EXPECT_DOUBLE_EQ(canon.to_user_solution(canonical)[0], -2.5);
}

TEST(CanonicalForm, UpperBoundedOnlyVariableUsesReflection) {
  // x <= 3 with no lower bound: x = 3 - x', x' >= 0.
  Model m;
  const int x = m.add_variable(-kInfinity, 3.0, -1.0);  // min -x -> x = 3
  const Solution s = DenseSimplex().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(SolverFacade, ForcedKindsAgree) {
  Model m;
  const int a = m.add_variable(0.0, kInfinity, -2.0);
  const int b = m.add_variable(0.0, kInfinity, -3.0);
  m.add_constraint(Relation::kLessEqual, 10.0, {{a, 1.0}, {b, 2.0}});
  m.add_constraint(Relation::kLessEqual, 8.0, {{a, 2.0}, {b, 1.0}});
  SolveStats dense_stats;
  const Solution dense = DenseSimplex().solve(m, &dense_stats);
  const SolveResult solver = Solver().solve(m);
  ASSERT_TRUE(dense.optimal());
  ASSERT_TRUE(solver.optimal());
  EXPECT_NEAR(dense.objective, solver.solution.objective, 1e-8);
  EXPECT_STREQ(solver.stats.backend, "revised");
  EXPECT_GT(dense_stats.iterations(), 0);
  EXPECT_GE(dense_stats.total_ms, 0.0);
}

}  // namespace
}  // namespace cca::lp
