// Solver result types shared by all LP solvers.
#pragma once

#include <vector>

#include "lp/basis.hpp"

namespace cca::lp {

/// How the revised simplex selects the entering column.
enum class PricingRule {
  /// Full pricing: scan every nonbasic column, take the most negative
  /// reduced cost. O(nnz) per pivot; the reference behaviour.
  kDantzig,
  /// Candidate-list partial pricing: keep a small list of violating
  /// columns found by a rotating sector scan; minor iterations re-price
  /// only the list and the scan resumes where it left off. Optimality is
  /// still only declared after a full wrap finds no violator, and the
  /// Bland anti-cycling fallback always scans everything, so the optimum
  /// is identical — only the pivot path and cost change.
  kCandidateList,
};

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Primal values in the caller's variable space (only meaningful when
  /// status == kOptimal).
  std::vector<double> x;
  double objective = 0.0;
  /// Total simplex pivots across both phases.
  long iterations = 0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Per-solve statistics, populated by both simplex backends (a production
/// solver's iteration/timing report; cf. HiGHS per-solve logs). All fields
/// except the wall times are deterministic for a given model and backend.
struct SolveStats {
  /// Which implementation ran: "dense" or "revised".
  const char* backend = "";
  /// Pivots per phase (phase 1 drives artificials out; phase 2 optimizes
  /// the real objective). Together with dual_iterations their sum equals
  /// Solution::iterations.
  long phase1_iterations = 0;
  long phase2_iterations = 0;
  /// Basis-inverse rebuilds (revised simplex only; dense stays 0). With
  /// the sparse engine this counts eta-file-triggered refactorizations.
  long reinversions = 0;
  /// Product-form updates accumulated since the last reinversion when the
  /// solve finished — the length of the pending eta file.
  long eta_length = 0;
  /// Sparse-LU basis factorizations, including the initial one (revised
  /// simplex only; dense stays 0). reinversions == factorizations - 1 on
  /// a cold start with no mid-solve basis repair.
  long factorizations = 0;
  /// L+U nonzeros of the most recent factorization — the fill-in actually
  /// paid after Markowitz ordering (revised simplex only).
  long factor_fill_nnz = 0;
  /// Reduced costs evaluated while pricing, across both phases. Under
  /// candidate-list pricing this is the scan work saved vs Dantzig, whose
  /// count is ~(nonbasic columns) x iterations.
  long pricing_candidates = 0;
  /// Warm start: whether a basis hint was offered, and whether it let the
  /// solve skip phase 1 — either directly (hint primal feasible) or via
  /// the dual lane (hint dual feasible, lane restored primal feasibility).
  bool warm_start_attempted = false;
  bool warm_start_hit = false;
  /// Dual simplex lane (revised backend): the hint was primal infeasible
  /// but priced out dual feasible, and the lane ran. dual_iterations
  /// counts its pivots; when the lane gives up they are still included
  /// (the work happened) and a cold start follows, so warm_start_hit
  /// stays false.
  bool dual_lane_attempted = false;
  long dual_iterations = 0;
  /// Wall-clock per phase and for the whole solve, milliseconds.
  double phase1_ms = 0.0;
  double dual_ms = 0.0;
  double phase2_ms = 0.0;
  double total_ms = 0.0;

  long iterations() const {
    return phase1_iterations + dual_iterations + phase2_iterations;
  }
};

/// What lp::Solver::solve returns: the solution plus the stats that
/// explain how it was reached. The stats also feed the process-wide
/// common::MetricsRegistry (lp.* metrics) when that is enabled.
struct SolveResult {
  Solution solution;
  SolveStats stats;
  /// Final optimal basis (revised simplex, status kOptimal, and every
  /// basic column structural — empty otherwise). Feed it back as the
  /// `hint` of a later related solve to warm-start phase 2.
  Basis basis;

  bool optimal() const { return solution.optimal(); }
  SolveStatus status() const { return solution.status; }
};

/// Options common to the simplex solvers.
struct SolverOptions {
  long max_iterations = 200000;
  /// Feasibility / reduced-cost tolerance.
  double tolerance = 1e-9;
  /// Switch from Dantzig to Bland pricing after this many non-improving
  /// pivots (anti-cycling).
  long stall_limit = 500;
  /// RevisedSimplex: smallest acceptable pivot magnitude in the ratio test.
  double pivot_tolerance = 1e-7;
  /// RevisedSimplex: refactorize the basis after this many eta updates to
  /// shed accumulated floating-point error and cap eta-file length.
  long refactor_interval = 100;
  /// RevisedSimplex: entering-column selection. Dantzig stays as the
  /// reference the candidate list is tested against.
  PricingRule pricing = PricingRule::kCandidateList;
};

}  // namespace cca::lp
