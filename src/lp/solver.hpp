// Solver facade: the one production solve path.
//
// Every solve runs the revised simplex (lp/revised_simplex.hpp), whose
// memory footprint is O(nnz + LU fill) rather than the dense tableau's
// O(m * n), with the dual warm-restart lane always on: a basis hint from
// a related solve skips phase 1 when it is primal feasible and is repaired
// by dual pivots when only the rhs moved. A caller that wants a cold solve
// passes no hint. DenseSimplex (lp/dense_simplex.hpp) is kept as the
// reference the tests compare against; it is reached only by direct
// construction.
#pragma once

#include "lp/basis.hpp"
#include "lp/model.hpp"
#include "lp/solution.hpp"

namespace cca::lp {

class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  /// Solves `model` and returns the solution together with per-solve
  /// statistics, plus the final basis when it is reusable. When `hint` is
  /// non-null and non-empty, the revised simplex tries to start phase 2
  /// directly from it (through the dual lane if the hint is only dual
  /// feasible); an unusable hint silently cold-starts. Also records lp.*
  /// metrics (solve counts, per-phase iterations, factorizations, fill,
  /// pricing work, warm-start hits, wall time) in the process-wide
  /// registry when metrics are enabled.
  SolveResult solve(const Model& model, const Basis* hint = nullptr) const;

  /// Convenience wrapper around a WarmStartCache: hints from the cache,
  /// stores the resulting basis back on success. Pass nullptr to solve
  /// cold.
  SolveResult solve(const Model& model, WarmStartCache* cache) const;

 private:
  SolverOptions options_;
};

}  // namespace cca::lp
