#include "lp/canonical.hpp"

#include <cmath>

#include "common/check.hpp"

namespace cca::lp {

namespace {

struct RowEntry {
  int col;
  double coef;
};

struct BuildRow {
  Relation rel;
  double rhs;
  std::vector<RowEntry> entries;
};

}  // namespace

CanonicalForm::CanonicalForm(const Model& model) {
  num_user_vars_ = model.num_variables();
  num_user_rows_ = model.num_constraints();
  var_map_.resize(static_cast<std::size_t>(num_user_vars_));
  upper_row_of_var_.assign(static_cast<std::size_t>(num_user_vars_), -1);

  // --- Structural columns: shift lower bounds to zero, split free vars. ---
  int next_col = 0;
  std::vector<std::pair<int, double>> upper_rows;  // (canonical col, ub)
  for (int j = 0; j < num_user_vars_; ++j) {
    const double l = model.lower_bound(j);
    const double u = model.upper_bound(j);
    VarMap& vm = var_map_[j];
    if (std::isfinite(l)) {
      vm.shift = l;
      vm.plus_col = next_col++;
      // u == l pins the variable at its bound: column exists with implicit
      // upper row of 0 so the simplex keeps it at zero.
      if (std::isfinite(u) && u >= l) {
        upper_row_of_var_[j] =
            num_user_rows_ + static_cast<int>(upper_rows.size());
        upper_rows.emplace_back(vm.plus_col, u - l);
      }
    } else if (std::isfinite(u)) {
      vm.shift = u;  // x_user = u - x_minus, x_minus >= 0
      vm.minus_col = next_col++;
    } else {
      vm.plus_col = next_col++;
      vm.minus_col = next_col++;
    }
  }
  const int num_structural = next_col;

  cost_.assign(static_cast<std::size_t>(num_structural), 0.0);
  for (int j = 0; j < num_user_vars_; ++j) {
    const double c = model.objective_coef(j);
    const VarMap& vm = var_map_[j];
    objective_offset_ += c * vm.shift;
    if (vm.plus_col >= 0) cost_[vm.plus_col] += c;
    if (vm.minus_col >= 0) cost_[vm.minus_col] -= c;
  }

  // --- Assemble rows in user order, then upper-bound rows. ---
  std::vector<BuildRow> rows;
  rows.reserve(static_cast<std::size_t>(model.num_constraints()) +
               upper_rows.size());
  for (int i = 0; i < model.num_constraints(); ++i) {
    BuildRow row;
    row.rel = model.relation(i);
    row.rhs = model.rhs(i);
    for (const Term& t : model.row_terms(i)) {
      const VarMap& vm = var_map_[t.col];
      row.rhs -= t.coef * vm.shift;
      if (vm.plus_col >= 0) row.entries.push_back({vm.plus_col, t.coef});
      if (vm.minus_col >= 0) row.entries.push_back({vm.minus_col, -t.coef});
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [col, ub] : upper_rows) {
    rows.push_back(BuildRow{Relation::kLessEqual, ub, {{col, 1.0}}});
  }

  // --- Slack / surplus columns; make b >= 0; record identity slacks. ---
  const int m = static_cast<int>(rows.size());
  b_.assign(static_cast<std::size_t>(m), 0.0);
  row_identity_slack_.assign(static_cast<std::size_t>(m), -1);

  // Count slack columns first so column indices are known up front.
  int num_slacks = 0;
  for (const BuildRow& row : rows)
    if (row.rel != Relation::kEqual) ++num_slacks;
  cols_.resize(static_cast<std::size_t>(num_structural + num_slacks));
  cost_.resize(cols_.size(), 0.0);

  int slack_col = num_structural;
  for (int i = 0; i < m; ++i) {
    BuildRow& row = rows[i];
    double slack_sign = 0.0;
    if (row.rel == Relation::kLessEqual) slack_sign = 1.0;
    if (row.rel == Relation::kGreaterEqual) slack_sign = -1.0;

    const bool negate = row.rhs < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    b_[i] = sign * row.rhs;
    for (const RowEntry& e : row.entries) {
      cols_[e.col].rows.push_back(i);
      cols_[e.col].values.push_back(sign * e.coef);
    }
    if (slack_sign != 0.0) {
      const double coef = sign * slack_sign;
      cols_[slack_col].rows.push_back(i);
      cols_[slack_col].values.push_back(coef);
      if (coef > 0.0) row_identity_slack_[i] = slack_col;
      ++slack_col;
    }
  }
  CCA_CHECK(slack_col == num_structural + num_slacks);
}

std::vector<double> CanonicalForm::to_user_solution(
    const std::vector<double>& canonical_x) const {
  CCA_CHECK(static_cast<int>(canonical_x.size()) == num_cols());
  std::vector<double> x(static_cast<std::size_t>(num_user_vars_), 0.0);
  for (int j = 0; j < num_user_vars_; ++j) {
    const VarMap& vm = var_map_[j];
    double v = vm.shift;
    if (vm.plus_col >= 0) v += canonical_x[vm.plus_col];
    if (vm.minus_col >= 0) v -= canonical_x[vm.minus_col];
    x[j] = v;
  }
  return x;
}

}  // namespace cca::lp
