// The sparse LP engine: SparseLu kernel unit tests, a 200-case
// dense-vs-sparse property sweep over a mixed population (feasible,
// degenerate, infeasible, unbounded), candidate-list vs Dantzig pricing
// equivalence, warm-start invariance, the dual warm-restart lane, and the
// relative ratio-test tie-band regression on wildly scaled rows.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "lp/basis.hpp"
#include "lp/canonical.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/solver.hpp"
#include "lp/sparse_lu.hpp"

namespace cca::lp {
namespace {

// ---- SparseLu kernels against dense linear algebra. ----

std::vector<SparseColumn> dense_to_columns(
    const std::vector<std::vector<double>>& a) {
  const int m = static_cast<int>(a.size());
  std::vector<SparseColumn> cols(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i)
      if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] != 0.0) {
        cols[static_cast<std::size_t>(j)].rows.push_back(i);
        cols[static_cast<std::size_t>(j)].values.push_back(
            a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
      }
  return cols;
}

std::vector<int> identity_basis(int m) {
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int t = 0; t < m; ++t) basis[static_cast<std::size_t>(t)] = t;
  return basis;
}

TEST(SparseLu, IdentityBasisRoundTrips) {
  const int m = 6;
  std::vector<std::vector<double>> a(
      static_cast<std::size_t>(m), std::vector<double>(m, 0.0));
  for (int i = 0; i < m; ++i) a[i][i] = 1.0;
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(dense_to_columns(a), identity_basis(m), m));
  EXPECT_EQ(lu.dim(), m);
  EXPECT_EQ(lu.fill_nnz(), m);  // diagonal only, zero fill

  std::vector<double> b = {1.0, -2.0, 3.0, 0.5, 0.0, 4.0};
  std::vector<double> x;
  lu.ftran(b, x);
  for (int t = 0; t < m; ++t) EXPECT_DOUBLE_EQ(x[t], b[t]);
  std::vector<double> y;
  lu.btran(b, y);
  for (int i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(y[i], b[i]);
}

TEST(SparseLu, RandomBasisSolvesBothDirections) {
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL, 15ULL}) {
    common::Rng rng(seed);
    const int m = 12;
    // Sparse random matrix, diagonally dominated so it is comfortably
    // nonsingular regardless of the sampled pattern.
    std::vector<std::vector<double>> a(
        static_cast<std::size_t>(m), std::vector<double>(m, 0.0));
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j)
        if (rng.next_double() < 0.3)
          a[i][j] = 2.0 * rng.next_double() - 1.0;
      a[i][i] += 5.0;
    }
    SparseLu lu;
    ASSERT_TRUE(lu.factorize(dense_to_columns(a), identity_basis(m), m))
        << "seed " << seed;

    std::vector<double> b(static_cast<std::size_t>(m));
    for (double& v : b) v = 4.0 * rng.next_double() - 2.0;

    // ftran: B x = b, so multiplying B by x must reproduce b.
    std::vector<double> x;
    lu.ftran(b, x);
    for (int i = 0; i < m; ++i) {
      double row = 0.0;
      for (int t = 0; t < m; ++t) row += a[i][t] * x[t];
      EXPECT_NEAR(row, b[i], 1e-9) << "seed " << seed << " row " << i;
    }

    // btran: y^T B = c^T, so each column's dot with y must reproduce c.
    std::vector<double> y;
    lu.btran(b, y);
    for (int t = 0; t < m; ++t) {
      double col = 0.0;
      for (int i = 0; i < m; ++i) col += y[i] * a[i][t];
      EXPECT_NEAR(col, b[t], 1e-9) << "seed " << seed << " col " << t;
    }
  }
}

TEST(SparseLu, RejectsSingularBases) {
  const int m = 4;
  std::vector<std::vector<double>> a(
      static_cast<std::size_t>(m), std::vector<double>(m, 0.0));
  for (int i = 0; i < m; ++i) a[i][i] = 1.0;
  a[2][2] = 0.0;  // empty column => structurally singular
  SparseLu zero_col;
  EXPECT_FALSE(zero_col.factorize(dense_to_columns(a), identity_basis(m), m));

  a[2][2] = 1.0;
  std::vector<int> repeated = identity_basis(m);
  repeated[3] = 0;  // same column twice => rank deficient
  SparseLu dup;
  EXPECT_FALSE(dup.factorize(dense_to_columns(a), repeated, m));
}

// ---- Mixed-population property sweep: dense vs sparse revised. ----

/// Seeded LP drawn from one of four case families:
///   0 feasible/bounded, 1 degenerate (zero-heavy vertex, tight rhs),
///   2 infeasible (contradictory bound rows), 3 unbounded (free upper
///   bounds, >= rows with nonnegative coefficients, a negative cost).
/// `force_kind` pins the family; -1 samples it from the seed.
Model random_mixed_lp(std::uint64_t seed, int force_kind = -1) {
  common::Rng rng(seed);
  const int num_vars = 3 + static_cast<int>(rng.next_below(18));
  const int num_rows = 2 + static_cast<int>(rng.next_below(15));
  const int kind =
      force_kind >= 0 ? force_kind : static_cast<int>(rng.next_below(4));
  const bool degenerate = kind == 1;

  Model m;
  std::vector<double> xstar(static_cast<std::size_t>(num_vars));
  for (int j = 0; j < num_vars; ++j) {
    xstar[j] =
        degenerate && rng.next_double() < 0.5 ? 0.0 : rng.next_double() * 5.0;
    double cost = rng.next_double() * 4.0 - 2.0;
    if (kind == 3 && j == 0) cost = -(0.5 + rng.next_double());
    m.add_variable(0.0, kind == 3 ? kInfinity : 10.0, cost);
  }
  for (int i = 0; i < num_rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.next_double() >= 0.4) continue;
      const double coef = kind == 3 ? rng.next_double() * 3.0
                                    : rng.next_double() * 6.0 - 3.0;
      terms.push_back({j, coef});
      lhs += coef * xstar[static_cast<std::size_t>(j)];
    }
    if (terms.empty()) continue;
    if (kind == 3) {
      m.add_constraint(Relation::kGreaterEqual,
                       lhs - rng.next_double() * 2.0, std::move(terms));
      continue;
    }
    const double u = rng.next_double();
    const double margin = degenerate ? 0.0 : rng.next_double() * 2.0;
    if (u < 0.4) {
      m.add_constraint(Relation::kLessEqual, lhs + margin, std::move(terms));
    } else if (u < 0.8) {
      m.add_constraint(Relation::kGreaterEqual, lhs - margin,
                       std::move(terms));
    } else {
      m.add_constraint(Relation::kEqual, lhs, std::move(terms));
    }
  }
  if (kind == 2) {  // a contradictory sandwich on variable 0
    m.add_constraint(Relation::kGreaterEqual, 8.0, {{0, 1.0}});
    m.add_constraint(Relation::kLessEqual, 2.0, {{0, 1.0}});
  }
  return m;
}

TEST(SparseDenseAgreement, TwoHundredMixedRandomLps) {
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Model m = random_mixed_lp(seed);
    const Solution dense = DenseSimplex().solve(m);
    const Solution revised = RevisedSimplex().solve(m);
    ASSERT_EQ(dense.status, revised.status) << "seed " << seed;
    switch (dense.status) {
      case SolveStatus::kOptimal: ++optimal; break;
      case SolveStatus::kInfeasible: ++infeasible; break;
      case SolveStatus::kUnbounded: ++unbounded; break;
      case SolveStatus::kIterationLimit:
        FAIL() << "iteration limit at seed " << seed;
    }
    if (dense.status != SolveStatus::kOptimal) continue;
    ASSERT_NEAR(dense.objective, revised.objective,
                1e-7 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
    ASSERT_LT(m.max_violation(dense.x), 1e-6) << "seed " << seed;
    ASSERT_LT(m.max_violation(revised.x), 1e-6) << "seed " << seed;
  }
  // The population must actually exercise every outcome.
  EXPECT_GT(optimal, 50);
  EXPECT_GT(infeasible, 20);
  EXPECT_GT(unbounded, 20);
}

// ---- Pricing equivalence: candidate list vs Dantzig. ----

TEST(Pricing, CandidateListMatchesDantzigObjectives) {
  SolverOptions dantzig;
  dantzig.pricing = PricingRule::kDantzig;
  SolverOptions candidate;
  candidate.pricing = PricingRule::kCandidateList;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Model m = random_mixed_lp(seed);
    const Solution a = RevisedSimplex(dantzig).solve(m);
    const Solution b = RevisedSimplex(candidate).solve(m);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    if (a.status != SolveStatus::kOptimal) continue;
    ASSERT_NEAR(a.objective, b.objective,
                1e-7 * (1.0 + std::abs(a.objective)))
        << "seed " << seed;
  }
}

// ---- Warm starts. ----

TEST(WarmStart, ResolveFromOwnBasisSkipsPhase1) {
  const Model m = random_mixed_lp(77, /*force_kind=*/0);
  const Solver solver;
  const SolveResult cold = solver.solve(m);
  ASSERT_TRUE(cold.optimal());
  ASSERT_FALSE(cold.basis.empty());
  ASSERT_FALSE(cold.stats.warm_start_hit);

  const SolveResult warm = solver.solve(m, &cold.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_start_attempted);
  EXPECT_TRUE(warm.stats.warm_start_hit);
  EXPECT_EQ(warm.stats.phase1_iterations, 0);
  EXPECT_LE(warm.solution.iterations, cold.solution.iterations);
  EXPECT_NEAR(warm.solution.objective, cold.solution.objective,
              1e-9 * (1.0 + std::abs(cold.solution.objective)));
}

TEST(WarmStart, CacheOverloadStoresAndReuses) {
  const Model m = random_mixed_lp(123, /*force_kind=*/0);
  WarmStartCache cache;
  const Solver solver;
  const SolveResult first = solver.solve(m, &cache);
  ASSERT_TRUE(first.optimal());
  EXPECT_FALSE(first.stats.warm_start_hit);
  EXPECT_FALSE(cache.load().empty());

  const SolveResult second = solver.solve(m, &cache);
  ASSERT_TRUE(second.optimal());
  EXPECT_TRUE(second.stats.warm_start_hit);
  EXPECT_NEAR(second.solution.objective, first.solution.objective,
              1e-9 * (1.0 + std::abs(first.solution.objective)));
}

TEST(WarmStart, HintsNeverChangePerturbedAnswers) {
  // Re-solve a perturbed sibling (same structure, nudged rhs and costs)
  // with the original basis as hint: objective must equal the cold solve
  // of the sibling bit-for-tolerance, hit or miss.
  for (std::uint64_t seed = 31; seed <= 40; ++seed) {
    const Model m = random_mixed_lp(seed, /*force_kind=*/0);
    const Solver solver;
    const SolveResult base = solver.solve(m);
    ASSERT_TRUE(base.optimal()) << "seed " << seed;

    Model perturbed;
    for (int j = 0; j < m.num_variables(); ++j)
      perturbed.add_variable(m.lower_bound(j), m.upper_bound(j),
                             m.objective_coef(j) * 1.001 + 1e-4);
    for (int i = 0; i < m.num_constraints(); ++i)
      perturbed.add_constraint(m.relation(i), m.rhs(i) + 1e-3,
                               m.row_terms(i));
    const SolveResult cold = solver.solve(perturbed);
    const SolveResult warm = solver.solve(perturbed, &base.basis);
    ASSERT_EQ(cold.status(), warm.status()) << "seed " << seed;
    if (!cold.optimal()) continue;
    EXPECT_TRUE(warm.stats.warm_start_attempted) << "seed " << seed;
    EXPECT_NEAR(warm.solution.objective, cold.solution.objective,
                1e-7 * (1.0 + std::abs(cold.solution.objective)))
        << "seed " << seed;
  }
}

// ---- Dual warm-restart lane. ----
//
// An rhs perturbation leaves the old optimal basis dual feasible; the lane
// repairs it without phase 1 and lands on the objective of a hint-free
// cold solve.

/// Seeded LP with degenerate structure — a vacuous row, a singleton row,
/// fixed and unused variables — around a random feasible core built from
/// a known interior point.
Model degenerate_mixed_lp(std::uint64_t seed) {
  common::Rng rng(seed);
  const int num_vars = 4 + static_cast<int>(rng.next_below(10));
  Model m;
  std::vector<double> xstar(static_cast<std::size_t>(num_vars));
  for (int j = 0; j < num_vars; ++j) {
    xstar[j] = rng.next_double() * 4.0;
    const double cost = rng.next_double() * 4.0 - 2.0;
    const double roll = rng.next_double();
    if (roll < 0.15) {
      m.add_variable(xstar[j], xstar[j], cost);  // fixed
    } else if (roll < 0.25) {
      m.add_variable(0.0, 9.0, std::abs(cost));  // never touched by a row
      xstar[j] = 0.0;
    } else {
      m.add_variable(0.0, 10.0, cost);
    }
  }
  const int num_rows = 3 + static_cast<int>(rng.next_below(8));
  for (int i = 0; i < num_rows; ++i) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.next_double() >= 0.4) continue;
      const double coef = rng.next_double() * 6.0 - 3.0;
      terms.push_back({j, coef});
      lhs += coef * xstar[static_cast<std::size_t>(j)];
    }
    if (terms.empty()) continue;
    const double margin = rng.next_double() * 2.0;
    const double u = rng.next_double();
    if (u < 0.4) {
      m.add_constraint(Relation::kLessEqual, lhs + margin, std::move(terms));
    } else if (u < 0.8) {
      m.add_constraint(Relation::kGreaterEqual, lhs - margin,
                       std::move(terms));
    } else {
      m.add_constraint(Relation::kEqual, lhs, std::move(terms));
    }
  }
  // A vacuous row and a singleton row.
  m.add_constraint(Relation::kLessEqual, 1.0 + rng.next_double(), {});
  m.add_constraint(Relation::kLessEqual, 8.0, {{0, 1.0}});  // singleton
  return m;
}

/// Small transportation LP: supplies 3 sources, demands 4 sinks, unique
/// costs so the optimal vertex (and basis) is unique.
Model transport_lp(const std::vector<double>& demand) {
  const std::vector<double> supply = {9.0, 7.0, 8.0};
  Model m;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j)
      m.add_variable(0.0, kInfinity, 1.0 + 0.37 * i + 0.11 * j * j +
                                         0.05 * i * j);
  for (int i = 0; i < 3; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < 4; ++j) terms.push_back({4 * i + j, 1.0});
    m.add_constraint(Relation::kLessEqual, supply[i], std::move(terms));
  }
  for (int j = 0; j < 4; ++j) {
    std::vector<Term> terms;
    for (int i = 0; i < 3; ++i) terms.push_back({4 * i + j, 1.0});
    m.add_constraint(Relation::kEqual, demand[j], std::move(terms));
  }
  return m;
}

TEST(DualLane, RepairsRhsPerturbedWarmStart) {
  const Solver solver;
  const Model base = transport_lp({5.0, 6.0, 4.0, 5.0});
  Basis basis;
  {
    const SolveResult r = solver.solve(base);
    ASSERT_TRUE(r.optimal());
    ASSERT_FALSE(r.basis.empty());
    basis = r.basis;
  }
  // Perturbed demands: the old basis prices out dual feasible (costs are
  // unchanged) but its basic values go negative.
  const Model moved = transport_lp({4.0, 2.0, 7.0, 8.0});
  const SolveResult warm = solver.solve(moved, &basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_TRUE(warm.stats.warm_start_attempted);
  EXPECT_TRUE(warm.stats.dual_lane_attempted);
  EXPECT_TRUE(warm.stats.warm_start_hit);
  EXPECT_EQ(warm.stats.phase1_iterations, 0);
  EXPECT_GT(warm.stats.dual_iterations, 0);

  // Same optimum as a cold solve, in fewer total pivots.
  const SolveResult cold = solver.solve(moved);
  ASSERT_TRUE(cold.optimal());
  EXPECT_FALSE(cold.stats.warm_start_attempted);
  EXPECT_NEAR(warm.solution.objective, cold.solution.objective, 1e-8);
  EXPECT_LT(warm.solution.iterations, cold.solution.iterations);
}

TEST(DualLane, ComposesWithCache) {
  // The production path: a cache threaded through, rhs moving every step
  // — every re-solve after the first must skip phase 1 (pure phase-2 warm
  // start or dual-lane repair) and match the cold objective.
  const Solver solver;
  WarmStartCache cache;
  for (int step = 0; step < 4; ++step) {
    const double d = 0.5 * step;
    const Model m = transport_lp({5.0 + d, 6.0 - 0.5 * d, 4.0 + d, 5.0 - d});
    const SolveResult warm = solver.solve(m, &cache);
    const SolveResult cold = solver.solve(m);
    ASSERT_TRUE(warm.optimal()) << "step " << step;
    ASSERT_TRUE(cold.optimal()) << "step " << step;
    EXPECT_NEAR(warm.solution.objective, cold.solution.objective, 1e-8)
        << "step " << step;
    if (step > 0) {
      EXPECT_TRUE(warm.stats.warm_start_hit) << "step " << step;
      EXPECT_EQ(warm.stats.phase1_iterations, 0) << "step " << step;
    }
  }
}

TEST(DualLane, RandomizedRhsPerturbationSweep) {
  // Across seeds: perturb every rhs, warm-restart from the old basis, and
  // demand agreement with a cold solve. Statuses may differ from optimal
  // (a perturbation can cut feasibility) — the lane must track the cold
  // answer in every case.
  const Solver solver;
  int repaired = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Model base = degenerate_mixed_lp(seed);
    const SolveResult first = solver.solve(base);
    if (!first.optimal() || first.basis.empty()) continue;

    common::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
    Model moved;
    for (int j = 0; j < base.num_variables(); ++j)
      moved.add_variable(base.lower_bound(j), base.upper_bound(j),
                         base.objective_coef(j));
    for (int i = 0; i < base.num_constraints(); ++i)
      moved.add_constraint(base.relation(i),
                           base.rhs(i) + rng.next_double() * 3.0 - 1.5,
                           base.row_terms(i));

    const SolveResult warm = solver.solve(moved, &first.basis);
    const SolveResult cold = solver.solve(moved);
    ASSERT_EQ(warm.status(), cold.status()) << "seed " << seed;
    if (warm.stats.dual_lane_attempted && warm.stats.warm_start_hit)
      ++repaired;
    if (!warm.optimal()) continue;
    EXPECT_NEAR(warm.solution.objective, cold.solution.objective,
                1e-6 * (1.0 + std::abs(cold.solution.objective)))
        << "seed " << seed;
  }
  EXPECT_GT(repaired, 5);  // the lane fires on a healthy share of seeds
}

// ---- Ratio-test tie band: near-degenerate rows at large scale. ----

TEST(RatioTest, RelativeTieBandSurvivesScaledTies) {
  // Two blocking rows whose ratios differ by 5e-10 *relative* at
  // magnitude 1e7 — far outside an absolute tolerance band, inside the
  // relative one. The tie-break must be free to take the unit pivot
  // instead of the 1e-7 one sitting at pivot_tolerance.
  Model m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, 0.0);
  m.add_constraint(Relation::kLessEqual, (1.0 - 5e-10), {{x, 1e-7}});
  m.add_constraint(Relation::kLessEqual, 1e7, {{x, 1.0}, {y, 1.0}});
  const Solution s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1e7, 0.1);
}

TEST(RatioTest, WildlyScaledRowsMatchDenseBackend) {
  // Row scaling changes no feasible set and no optimum, but it pushes the
  // revised simplex's ratio test through ties spanning six orders of
  // magnitude. An absolute tie tolerance breaks exactly here (tiny
  // pivots win ties they should lose); the relative band must keep every
  // case on the dense backend's objective.
  for (std::uint64_t seed = 301; seed <= 320; ++seed) {
    const Model base = random_mixed_lp(seed, /*force_kind=*/0);
    Model scaled;
    for (int j = 0; j < base.num_variables(); ++j)
      scaled.add_variable(base.lower_bound(j), base.upper_bound(j),
                          base.objective_coef(j));
    for (int i = 0; i < base.num_constraints(); ++i) {
      const double s = std::pow(10.0, static_cast<double>(i % 7) - 3.0);
      std::vector<Term> terms = base.row_terms(i);
      for (Term& t : terms) t.coef *= s;
      scaled.add_constraint(base.relation(i), base.rhs(i) * s,
                            std::move(terms));
    }
    const Solution dense = DenseSimplex().solve(scaled);
    const Solution revised = RevisedSimplex().solve(scaled);
    ASSERT_EQ(dense.status, revised.status) << "seed " << seed;
    if (dense.status != SolveStatus::kOptimal) continue;
    ASSERT_NEAR(dense.objective, revised.objective,
                1e-6 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
    ASSERT_LT(scaled.max_violation(revised.x),
              1e-5 * (1.0 + std::abs(dense.objective)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace cca::lp
