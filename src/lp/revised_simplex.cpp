#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "lp/canonical.hpp"
#include "lp/sparse_lu.hpp"

namespace cca::lp {

namespace {

/// How a warm-start hint can be used (see RevisedState::try_warm_start).
enum class WarmOutcome {
  /// Hint invalid (wrong shape, singular, or dual infeasible): state
  /// untouched, cold start.
  kRejected,
  /// Hint is primal feasible for this rhs: phase 2 may start directly.
  kPrimalFeasible,
  /// Hint factorizes and is dual feasible but primal infeasible — the
  /// classic post-perturbation state. The dual lane can repair it.
  kDualCandidate,
};

/// Result of the dual simplex lane (RevisedState::run_dual).
enum class DualOutcome {
  /// Primal feasibility restored; finish with primal phase 2.
  kFeasible,
  /// Ratio test dried up, iteration budget spent, or numerics drifted.
  /// The caller discards the state and cold starts — the lane never
  /// certifies infeasibility itself, so it can never change a status.
  kGiveUp,
};

class RevisedState {
 public:
  RevisedState(const CanonicalForm& canon, const SolverOptions& options)
      : options_(options), m_(canon.num_rows()), n_struct_(canon.num_cols()) {
    // Gather structural + artificial columns. Artificials are unit columns
    // for rows without an identity slack.
    cols_.reserve(static_cast<std::size_t>(n_struct_));
    for (int j = 0; j < n_struct_; ++j) cols_.push_back(canon.column(j));
    n_ = n_struct_;
    basis_.assign(static_cast<std::size_t>(m_), -1);
    for (int i = 0; i < m_; ++i) {
      const int slack = canon.identity_slack_for_row(i);
      if (slack >= 0) {
        basis_[i] = slack;
      } else {
        SparseColumn art;
        art.rows.push_back(i);
        art.values.push_back(1.0);
        cols_.push_back(std::move(art));
        basis_[i] = n_++;
      }
    }
    allowed_.assign(static_cast<std::size_t>(n_), true);
    in_basis_.assign(static_cast<std::size_t>(n_), false);
    for (int i = 0; i < m_; ++i) in_basis_[basis_[i]] = true;

    b_ = canon.rhs();
    // The initial basis is the identity (slacks have +1 entries,
    // artificials are unit columns): its LU is trivial and x_B = b.
    CCA_CHECK_MSG(factorize_basis(), "singular initial basis");
  }

  /// Attempts to replace the identity start with `hint`. A full-rank
  /// all-structural basis that is primal feasible for this rhs lets the
  /// solver skip phase 1 outright (kPrimalFeasible). A basis that fails
  /// only primal feasibility but prices out dual feasible against
  /// `struct_cost` — exactly what an optimal basis looks like after the
  /// rhs moved — is installed with its negative basic values kept, for
  /// run_dual to repair (kDualCandidate). Anything else leaves the state
  /// untouched (kRejected). Never affects the optimal objective — only
  /// the iteration path and, on a degenerate program, the vertex.
  WarmOutcome try_warm_start(const Basis& hint,
                             const std::vector<double>& struct_cost) {
    if (hint.num_rows() != m_) return WarmOutcome::kRejected;
    std::vector<char> seen(static_cast<std::size_t>(n_struct_), 0);
    for (int j : hint.basic) {
      if (j < 0 || j >= n_struct_ || seen[j]) return WarmOutcome::kRejected;
      seen[j] = 1;
    }
    SparseLu trial;
    if (!trial.factorize(cols_, hint.basic, m_)) return WarmOutcome::kRejected;
    std::vector<double> xb;
    trial.ftran(b_, xb);
    bool primal_feasible = true;
    for (double v : xb)
      if (v < -kFeasTol) {
        primal_feasible = false;
        break;
      }

    if (!primal_feasible) {
      // Dual feasibility of the hint: y = c_B' B^-1 from the trial
      // factors (no eta file yet), then price every nonbasic structural
      // column. One btran + one full pricing pass — the cost of a single
      // simplex iteration, paid only when primal feasibility failed.
      std::vector<double> cb(static_cast<std::size_t>(m_));
      for (int i = 0; i < m_; ++i) cb[i] = struct_cost[hint.basic[i]];
      std::vector<double> y;
      trial.btran(cb, y);
      for (int j = 0; j < n_struct_; ++j) {
        if (seen[j]) continue;
        double d = struct_cost[j];
        const SparseColumn& col = cols_[j];
        for (std::size_t t = 0; t < col.rows.size(); ++t)
          d -= y[col.rows[t]] * col.values[t];
        if (d < -kFeasTol) return WarmOutcome::kRejected;
      }
    } else {
      for (double& v : xb) v = std::max(v, 0.0);
    }

    for (int i = 0; i < m_; ++i) in_basis_[basis_[i]] = false;
    basis_ = hint.basic;
    for (int i = 0; i < m_; ++i) in_basis_[basis_[i]] = true;
    for (int j = n_struct_; j < n_; ++j) allowed_[j] = false;
    lu_ = std::move(trial);
    etas_.clear();
    eta_length_ = 0;
    xb_ = std::move(xb);
    ++factorizations_;
    fill_nnz_ = lu_.fill_nnz();
    return primal_feasible ? WarmOutcome::kPrimalFeasible
                           : WarmOutcome::kDualCandidate;
  }

  /// Dual simplex lane: starting from a dual-feasible basis with negative
  /// basic values, repeatedly drives the most-infeasible basic variable
  /// out (leaving-row selection by primal infeasibility) and enters the
  /// column winning the dual ratio test, until x_B >= 0. In this
  /// canonical form every column lives on [0, inf) — finite upper bounds
  /// became rows — so the textbook bound-flipping case of the dual ratio
  /// test is vacuous here and the test reduces to min d_j / -alpha_j over
  /// alpha_j < 0, with the same relative tie band + largest-pivot rule as
  /// the primal test. Reuses the LU/eta FTRAN-BTRAN machinery unchanged:
  /// a dual pivot is the same basis change, just chosen row-first.
  DualOutcome run_dual(const std::vector<double>& struct_cost,
                       long* iterations) {
    std::vector<double> cost(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_struct_; ++j) cost[j] = struct_cost[j];
    std::vector<double> y(static_cast<std::size_t>(m_));
    std::vector<double> rho(static_cast<std::size_t>(m_));
    std::vector<double> w(static_cast<std::size_t>(m_));
    const double tol = options_.tolerance;
    struct Candidate {
      int col;
      double alpha;
      double ratio;
    };
    std::vector<Candidate> cands;

    while (true) {
      // Leaving row: most negative basic value (primal infeasibility
      // pricing); ties by lowest row index keep the path deterministic.
      int leave_row = -1;
      double most_negative = -kFeasTol;
      for (int i = 0; i < m_; ++i) {
        if (xb_[i] < most_negative) {
          most_negative = xb_[i];
          leave_row = i;
        }
      }
      if (leave_row < 0) return DualOutcome::kFeasible;
      if (*iterations >= options_.max_iterations) return DualOutcome::kGiveUp;

      btran(cost, y);
      btran_unit(leave_row, rho);  // row leave_row of B^-1 A via rho' a_j

      // Dual ratio test, two passes like the primal one: tightest ratio
      // first, then the largest pivot magnitude within a relative band.
      cands.clear();
      double best_ratio = kInfinity;
      for (int j = 0; j < n_; ++j) {
        if (in_basis_[j] || !allowed_[j]) continue;
        const SparseColumn& col = cols_[j];
        double alpha = 0.0;
        for (std::size_t t = 0; t < col.rows.size(); ++t)
          alpha += rho[col.rows[t]] * col.values[t];
        if (alpha >= -options_.pivot_tolerance) continue;
        const double d = std::max(reduced_cost(j, cost, y), 0.0);
        const double ratio = d / -alpha;
        cands.push_back({j, alpha, ratio});
        best_ratio = std::min(best_ratio, ratio);
      }
      if (cands.empty()) return DualOutcome::kGiveUp;  // dual ray: cold start
      const double tie_band = best_ratio + tol * (1.0 + std::abs(best_ratio));
      int enter = -1;
      double best_pivot = 0.0;
      for (const Candidate& c : cands) {
        if (c.ratio <= tie_band && -c.alpha > best_pivot) {
          enter = c.col;
          best_pivot = -c.alpha;
        }
      }
      CCA_CHECK(enter >= 0);

      ftran(cols_[enter], w);
      // The eta-file FTRAN must agree with the row view within drift
      // tolerance; bail out to a cold start rather than pivot on noise.
      if (std::abs(w[leave_row]) <= options_.pivot_tolerance)
        return DualOutcome::kGiveUp;
      pivot(leave_row, enter, w);
      ++*iterations;
      if (eta_length_ >= options_.refactor_interval) {
        if (!factorize_basis()) return DualOutcome::kGiveUp;
        ++reinversions_;
      }
    }
  }

  SolveStatus run_phase(const std::vector<double>& struct_cost,
                        double artificial_cost, long* iterations) {
    std::vector<double> cost(static_cast<std::size_t>(n_), artificial_cost);
    for (int j = 0; j < n_struct_; ++j) cost[j] = struct_cost[j];
    candidates_.clear();  // reduced costs changed meaning with the phase

    std::vector<double> y(static_cast<std::size_t>(m_));
    std::vector<double> w(static_cast<std::size_t>(m_));
    const double tol = options_.tolerance;

    // With every cost non-negative the objective is bounded below by 0,
    // so reaching ~0 proves optimality without waiting for clean reduced
    // costs. This matters enormously for the CCA LP: its optimum IS 0 and
    // its thousands of rhs-0 rows otherwise strand the simplex on a
    // degenerate plateau for tens of thousands of pivots.
    bool costs_nonnegative = true;
    for (double c : cost)
      if (c < 0.0) {
        costs_nonnegative = false;
        break;
      }

    long since_improvement = 0;
    double best_obj = objective(cost);

    while (true) {
      if (costs_nonnegative && objective(cost) <= tol)
        return SolveStatus::kOptimal;
      if (*iterations >= options_.max_iterations)
        return SolveStatus::kIterationLimit;

      btran(cost, y);
      const bool bland = since_improvement > options_.stall_limit;
      const int enter = select_entering(cost, y, bland);
      if (enter < 0) return SolveStatus::kOptimal;

      ftran(cols_[enter], w);

      // Two-pass Harris-style ratio test: find the tightest ratio, then
      // among rows within tolerance of it pick the largest pivot element.
      // The tie band is relative to theta: an absolute band would admit
      // wildly-off rows when theta is large and admit nothing useful when
      // ratios are tiny but tightly clustered.
      double theta = kInfinity;
      for (int i = 0; i < m_; ++i) {
        if (w[i] > options_.pivot_tolerance)
          theta = std::min(theta, xb_[i] / w[i]);
      }
      if (theta == kInfinity) return SolveStatus::kUnbounded;
      const double tie_band = theta + tol * (1.0 + std::abs(theta));
      int leave_row = -1;
      double best_pivot = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (w[i] <= options_.pivot_tolerance) continue;
        if (xb_[i] / w[i] <= tie_band && w[i] > best_pivot) {
          leave_row = i;
          best_pivot = w[i];
        }
      }
      CCA_CHECK(leave_row >= 0);

      pivot(leave_row, enter, w);
      ++*iterations;
      if (eta_length_ >= options_.refactor_interval) {
        CCA_CHECK_MSG(factorize_basis(), "singular basis during refactorize");
        ++reinversions_;
      }

      const double obj = objective(cost);
      if (obj < best_obj - tol) {
        best_obj = obj;
        since_improvement = 0;
      } else {
        ++since_improvement;
      }
    }
  }

  /// Eta-limit refactorizations so far / eta updates pending since the
  /// last factorization. Persist across phases, for SolveStats.
  long reinversions() const { return reinversions_; }
  long eta_length() const { return eta_length_; }
  long factorizations() const { return factorizations_; }
  long fill_nnz() const { return fill_nnz_; }
  long pricing_candidates() const { return pricing_candidates_; }

  double artificial_sum() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i)
      if (basis_[i] >= n_struct_) s += std::max(xb_[i], 0.0);
    return s;
  }

  void retire_artificials() {
    for (int j = n_struct_; j < n_; ++j) allowed_[j] = false;
    std::vector<double> w(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] < n_struct_) continue;
      // Basic artificial at zero: pivot in any structural column whose
      // transformed entry in this row is usable; a redundant row keeps its
      // artificial basic at zero, which is harmless since it is priced out.
      for (int j = 0; j < n_struct_; ++j) {
        if (in_basis_[j]) continue;
        ftran(cols_[j], w);
        if (std::abs(w[i]) > 1e-6) {
          pivot(i, j, w);
          break;
        }
      }
    }
  }

  /// Canonical-space primal point.
  std::vector<double> primal() const {
    std::vector<double> x(static_cast<std::size_t>(n_struct_), 0.0);
    for (int i = 0; i < m_; ++i)
      if (basis_[i] < n_struct_) x[basis_[i]] = std::max(xb_[i], 0.0);
    return x;
  }

  /// The basis is reusable as a warm-start hint only when every basic
  /// column is structural (a redundant row can leave an artificial basic
  /// at zero; such a basis would not validate against a fresh model).
  Basis export_basis() const {
    for (int i = 0; i < m_; ++i)
      if (basis_[i] >= n_struct_) return {};
    Basis out;
    out.basic = basis_;
    return out;
  }

 private:
  static constexpr double kFeasTol = 1e-7;

  /// One product-form update: B_new = B_old * E with E the eta built from
  /// the transformed entering column w and leaving position p. Storage is
  /// hybrid: a transformed column that is mostly nonzero (the common case
  /// once the factors have filled in) is kept as a dense length-m vector —
  /// contiguous and vectorizable, and half the bytes of (index, value)
  /// pairs — while a genuinely sparse column keeps the pair list.
  struct Eta {
    int p;
    double wp;
    std::vector<std::pair<int, double>> others;  // (position, w_i), i != p
    std::vector<double> dense;  // when non-empty: w with dense[p] = 0
  };

  double objective(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (int i = 0; i < m_; ++i) obj += cost[basis_[i]] * xb_[i];
    return obj;
  }

  double reduced_cost(int j, const std::vector<double>& cost,
                      const std::vector<double>& y) {
    ++pricing_candidates_;
    double d = cost[j];
    const SparseColumn& col = cols_[j];
    for (std::size_t t = 0; t < col.rows.size(); ++t)
      d -= y[col.rows[t]] * col.values[t];
    return d;
  }

  /// Entering-column selection: Bland full scan (anti-cycling), Dantzig
  /// full scan, or the candidate list. Returns -1 when provably optimal:
  /// every rule only concludes that after a full scan finds no violator.
  int select_entering(const std::vector<double>& cost,
                      const std::vector<double>& y, bool bland) {
    const double tol = options_.tolerance;
    if (bland) {
      for (int j = 0; j < n_; ++j) {
        if (in_basis_[j] || !allowed_[j]) continue;
        if (reduced_cost(j, cost, y) < -tol) return j;
      }
      return -1;
    }
    if (options_.pricing == PricingRule::kDantzig) {
      int enter = -1;
      double best_d = -tol;
      for (int j = 0; j < n_; ++j) {
        if (in_basis_[j] || !allowed_[j]) continue;
        const double d = reduced_cost(j, cost, y);
        if (d < best_d) {
          enter = j;
          best_d = d;
        }
      }
      return enter;
    }

    // Candidate list: minor iteration re-prices only the surviving list
    // (violating reduced costs go stale as the basis moves); when the list
    // drains, a rotating major scan refills it from where the last scan
    // stopped. Optimality == a full wrap collecting nothing.
    int enter = -1;
    double best_d = -tol;
    std::size_t keep = 0;
    for (int j : candidates_) {
      if (in_basis_[j] || !allowed_[j]) continue;
      const double d = reduced_cost(j, cost, y);
      if (d < -tol) {
        candidates_[keep++] = j;
        if (d < best_d) {
          enter = j;
          best_d = d;
        }
      }
    }
    candidates_.resize(keep);
    if (enter >= 0) return enter;

    const std::size_t list_size = static_cast<std::size_t>(
        std::clamp(n_ / 16, 10, 128));
    if (scan_ptr_ >= n_) scan_ptr_ = 0;
    for (int scanned = 0; scanned < n_ && candidates_.size() < list_size;
         ++scanned) {
      const int j = scan_ptr_;
      scan_ptr_ = (scan_ptr_ + 1 == n_) ? 0 : scan_ptr_ + 1;
      if (in_basis_[j] || !allowed_[j]) continue;
      const double d = reduced_cost(j, cost, y);
      if (d < -tol) {
        candidates_.push_back(j);
        if (d < best_d) {
          enter = j;
          best_d = d;
        }
      }
    }
    return enter;
  }

  /// Rebuilds the LU factors from the current basis columns, drops the
  /// eta file, and refreshes x_B = B^-1 b. Returns false if the basis is
  /// numerically singular.
  bool factorize_basis() {
    if (!lu_.factorize(cols_, basis_, m_)) return false;
    etas_.clear();
    eta_length_ = 0;
    ++factorizations_;
    fill_nnz_ = lu_.fill_nnz();
    lu_.ftran(b_, xb_);
    return true;
  }

  /// w = B^-1 a (a sparse, w indexed by basis position).
  void ftran(const SparseColumn& a, std::vector<double>& w) const {
    scatter_.assign(static_cast<std::size_t>(m_), 0.0);
    for (std::size_t t = 0; t < a.rows.size(); ++t)
      scatter_[a.rows[t]] = a.values[t];
    lu_.ftran(scatter_, w);
    for (const Eta& e : etas_) {  // oldest first: B = B_0 E_1 ... E_k
      const double t = w[e.p] / e.wp;
      if (t != 0.0) {
        if (!e.dense.empty()) {
          const double* dv = e.dense.data();
          double* wv = w.data();
          for (int i = 0; i < m_; ++i) wv[i] -= dv[i] * t;
        } else {
          for (const auto& [i, wi] : e.others) w[i] -= wi * t;
        }
      }
      w[e.p] = t;
    }
  }

  /// y' = c_B' B^-1 (y indexed by constraint row).
  void btran(const std::vector<double>& cost, std::vector<double>& y) const {
    cb_.resize(static_cast<std::size_t>(m_));
    for (int i = 0; i < m_; ++i) cb_[i] = cost[basis_[i]];
    btran_positions(y);
  }

  /// y' = e_r' B^-1 — row r of the basis inverse, which prices the
  /// transformed row alpha_j = y' a_j the dual ratio test needs.
  void btran_unit(int r, std::vector<double>& y) const {
    cb_.assign(static_cast<std::size_t>(m_), 0.0);
    cb_[r] = 1.0;
    btran_positions(y);
  }

  /// Shared BTRAN tail: applies the eta file (newest first) to the
  /// position-indexed vector staged in cb_, then the LU factors.
  void btran_positions(std::vector<double>& y) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {  // newest first
      double s = cb_[it->p];
      if (!it->dense.empty()) {
        // Four-lane dot product: breaks the FP add dependency chain (the
        // order is fixed, so this stays deterministic run to run).
        const double* dv = it->dense.data();
        const double* cv = cb_.data();
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        int i = 0;
        for (; i + 4 <= m_; i += 4) {
          a0 += dv[i] * cv[i];
          a1 += dv[i + 1] * cv[i + 1];
          a2 += dv[i + 2] * cv[i + 2];
          a3 += dv[i + 3] * cv[i + 3];
        }
        for (; i < m_; ++i) a0 += dv[i] * cv[i];
        s -= (a0 + a1) + (a2 + a3);
      } else {
        for (const auto& [i, wi] : it->others) s -= wi * cb_[i];
      }
      cb_[it->p] = s / it->wp;
    }
    lu_.btran(cb_, y);
  }

  /// Basis change: position r leaves, column `enter` (with transformed
  /// column w = B^-1 a_enter) arrives. O(m) — the dense engine paid O(m^2)
  /// here updating the explicit inverse.
  void pivot(int r, int enter, const std::vector<double>& w) {
    const double theta = xb_[r] / w[r];
    Eta eta;
    eta.p = r;
    eta.wp = w[r];
    int nnz = 0;
    for (int i = 0; i < m_; ++i) {
      if (i == r || w[i] == 0.0) continue;
      ++nnz;
      xb_[i] -= w[i] * theta;
      if (xb_[i] < 0.0 && xb_[i] > -options_.tolerance) xb_[i] = 0.0;
    }
    xb_[r] = theta;
    if (nnz >= m_ / 4) {
      eta.dense = w;
      eta.dense[r] = 0.0;
    } else {
      eta.others.reserve(static_cast<std::size_t>(nnz));
      for (int i = 0; i < m_; ++i)
        if (i != r && w[i] != 0.0) eta.others.emplace_back(i, w[i]);
    }
    etas_.push_back(std::move(eta));
    ++eta_length_;

    in_basis_[basis_[r]] = false;
    basis_[r] = enter;
    in_basis_[enter] = true;
  }

  SolverOptions options_;
  int m_, n_struct_, n_ = 0;
  long reinversions_ = 0;
  long eta_length_ = 0;  // eta updates since the last factorization
  long factorizations_ = 0;
  long fill_nnz_ = 0;
  long pricing_candidates_ = 0;
  int scan_ptr_ = 0;  // rotating major-scan position (candidate pricing)
  std::vector<SparseColumn> cols_;
  std::vector<double> b_;
  SparseLu lu_;
  std::vector<Eta> etas_;
  std::vector<double> xb_;  // basic values, by basis position
  std::vector<int> basis_;
  std::vector<bool> allowed_;
  std::vector<bool> in_basis_;
  std::vector<int> candidates_;
  mutable std::vector<double> scatter_;  // row-indexed ftran input
  mutable std::vector<double> cb_;       // position-indexed btran input
};

}  // namespace

Solution RevisedSimplex::solve(const Model& model, SolveStats* stats,
                               const Basis* hint, Basis* out_basis) const {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };
  SolveStats local_stats;
  if (!stats) stats = &local_stats;
  stats->backend = "revised";
  // total_ms covers canonicalization + both phases, on every return path.
  struct TotalTimer {
    SolveStats* stats;
    Clock::time_point start = Clock::now();
    ~TotalTimer() {
      stats->total_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    }
  } total_timer{stats};

  Solution sol;
  if (out_basis) *out_basis = Basis{};
  const CanonicalForm canon(model);
  std::optional<RevisedState> state;
  state.emplace(canon, options_);
  const auto sync_stats = [&] {
    stats->reinversions = state->reinversions();
    stats->eta_length = state->eta_length();
    stats->factorizations = state->factorizations();
    stats->factor_fill_nnz = state->fill_nnz();
    stats->pricing_candidates = state->pricing_candidates();
  };

  bool warm = false;
  if (hint != nullptr && !hint->empty()) {
    stats->warm_start_attempted = true;
    const WarmOutcome outcome = state->try_warm_start(*hint, canon.cost());
    if (outcome == WarmOutcome::kPrimalFeasible) {
      warm = true;
    } else if (outcome == WarmOutcome::kDualCandidate) {
      // Dual feasible, primal infeasible: run the dual lane. If it
      // restores feasibility we have skipped phase 1, otherwise fall back
      // to a fresh cold start (the lane's pivots still count — the work
      // happened).
      stats->dual_lane_attempted = true;
      const auto dual_start = Clock::now();
      long dual_iterations = 0;
      const DualOutcome repaired =
          state->run_dual(canon.cost(), &dual_iterations);
      stats->dual_iterations = dual_iterations;
      stats->dual_ms = ms_since(dual_start);
      sol.iterations += dual_iterations;
      if (repaired == DualOutcome::kFeasible) {
        warm = true;
      } else {
        state.emplace(canon, options_);
      }
    }
    stats->warm_start_hit = warm;
  }

  if (!warm) {
    const std::vector<double> zero_cost(
        static_cast<std::size_t>(canon.num_cols()), 0.0);
    const auto phase1_start = Clock::now();
    const SolveStatus status =
        state->run_phase(zero_cost, 1.0, &sol.iterations);
    stats->phase1_iterations =
        sol.iterations - stats->dual_iterations;
    stats->phase1_ms = ms_since(phase1_start);
    sync_stats();
    if (status != SolveStatus::kOptimal) {
      sol.status = SolveStatus::kIterationLimit;
      return sol;
    }
    if (state->artificial_sum() > 1e-7) {
      sol.status = SolveStatus::kInfeasible;
      return sol;
    }
    state->retire_artificials();
  }

  const auto phase2_start = Clock::now();
  const SolveStatus status =
      state->run_phase(canon.cost(), 0.0, &sol.iterations);
  stats->phase2_iterations = sol.iterations - stats->phase1_iterations -
                             stats->dual_iterations;
  stats->phase2_ms = ms_since(phase2_start);
  sync_stats();
  sol.status = status;
  if (status != SolveStatus::kOptimal) return sol;

  if (out_basis) *out_basis = state->export_basis();
  sol.x = canon.to_user_solution(state->primal());
  sol.objective = model.objective_value(sol.x);
  return sol;
}

}  // namespace cca::lp
