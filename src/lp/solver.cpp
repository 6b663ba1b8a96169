#include "lp/solver.hpp"

#include "common/metrics.hpp"
#include "lp/revised_simplex.hpp"

namespace cca::lp {

namespace {

/// Feeds one solve's stats into the process-wide registry. Handles are
/// function-local statics so repeated solves skip the name lookup.
void record_metrics(const SolveResult& result) {
  using common::MetricsRegistry;
  if (!common::metrics_enabled()) return;
  auto& reg = MetricsRegistry::global();
  static common::Counter& solves = reg.counter("lp.solves");
  static common::Counter& phase1 = reg.counter("lp.iterations.phase1");
  static common::Counter& phase2 = reg.counter("lp.iterations.phase2");
  static common::Counter& dual = reg.counter("lp.iterations.dual");
  static common::Counter& reinversions = reg.counter("lp.reinversions");
  static common::Counter& factorizations = reg.counter("lp.factorizations");
  static common::Counter& candidates = reg.counter("lp.pricing.candidates");
  static common::Counter& warm_hits = reg.counter("lp.warm_start.hits");
  static common::Counter& warm_misses = reg.counter("lp.warm_start.misses");
  static common::Counter& dual_attempts = reg.counter("lp.dual_lane.attempts");
  static common::Counter& dual_repairs = reg.counter("lp.dual_lane.repairs");
  static common::Histogram& eta = reg.histogram("lp.eta_length");
  static common::Histogram& fill = reg.histogram("lp.factor_fill_nnz");
  static common::Histogram& iters = reg.histogram("lp.iterations.per_solve");
  static common::Timer& solve_timer = reg.timer("lp.solve");

  const SolveStats& s = result.stats;
  solves.add();
  phase1.add(s.phase1_iterations);
  phase2.add(s.phase2_iterations);
  dual.add(s.dual_iterations);
  reinversions.add(s.reinversions);
  factorizations.add(s.factorizations);
  candidates.add(s.pricing_candidates);
  if (s.warm_start_attempted) {
    if (s.warm_start_hit)
      warm_hits.add();
    else
      warm_misses.add();
  }
  if (s.dual_lane_attempted) {
    dual_attempts.add();
    if (s.warm_start_hit) dual_repairs.add();
  }
  eta.observe(s.eta_length);
  fill.observe(s.factor_fill_nnz);
  iters.observe(s.iterations());
  solve_timer.add_ns(static_cast<long long>(s.total_ms * 1e6));
}

}  // namespace

SolveResult Solver::solve(const Model& model, const Basis* hint) const {
  SolveResult result;
  result.solution =
      RevisedSimplex(options_).solve(model, &result.stats, hint, &result.basis);
  record_metrics(result);
  return result;
}

SolveResult Solver::solve(const Model& model, WarmStartCache* cache) const {
  if (cache == nullptr) return solve(model);
  const Basis hint = cache->load();
  SolveResult result = solve(model, &hint);
  if (!result.basis.empty()) cache->store(result.basis);
  return result;
}

}  // namespace cca::lp
