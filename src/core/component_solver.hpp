// Exact, scalable solver for the Fig. 4 LP relaxation (pin-free case).
//
// Key structural fact about the relaxation (proved in the comment inside
// component_solver.cpp and exercised by tests): for any feasible instance
// without pinned objects, the LP optimum is exactly 0, achieved by giving
// every object of a correlation-graph component the same fractional row
// q_c — the pair terms |x_ik - x_jk| all vanish. Finding an optimal
// *vertex* therefore reduces to a transportation LP over components x
// nodes (rows = #components + #nodes), which our revised simplex solves in
// milliseconds where the literal Fig. 4 program would need
// O(|T||N| + |E||N|) rows — the 48-hour LPsolve runs of Sec. 4.2.
//
// The resulting fractional placement is handed to Algorithm 2.1 unchanged;
// because rows are identical within a component, the rounding co-places
// whole components (exactly what it does on any zero-objective solution).
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "lp/basis.hpp"

namespace cca::core {

/// Connected components of the correlation graph (edges = pairs with
/// positive cost r*w).
struct ComponentStructure {
  std::vector<int> component_of;               // object -> component
  std::vector<std::vector<ObjectId>> members;  // component -> objects
  std::vector<double> sizes;                   // component total size

  int num_components() const { return static_cast<int>(members.size()); }
};

ComponentStructure find_components(const CcaInstance& instance);

struct ComponentSolverOptions {
  /// Randomizes the auxiliary vertex-selection objective of the
  /// transportation LP (the Fig. 4 objective itself is 0 on the whole
  /// optimal face, so any vertex is LP-optimal; different seeds model the
  /// arbitrary vertex an off-the-shelf solver would return).
  std::uint64_t seed = 1;
  /// When > 0, any component larger than target_fill x (smallest node
  /// capacity) is pre-split by a greedy min-cut heuristic until each
  /// piece fits. Algorithm 2.1 co-rounds whole (identical-row) groups, so
  /// without splitting an oversized component lands on ONE node and blows
  /// realized capacity — Theorem 3 only bounds loads in expectation. With
  /// splitting the result is no longer the literal LP optimum (cut pairs
  /// may pay), trading modeled cost for realized balance — the practical
  /// reading of the paper's Sec. 2.3 "conservative capacities" remark.
  /// 0 disables splitting (exact LP optimum).
  double target_fill = 0.0;
  /// When non-null, the transportation LP warm-starts from the basis this
  /// cache holds (when shape-compatible) and stores its final basis back —
  /// the drift/recovery loops re-solve near-identical programs, so phase 2
  /// usually restarts within a few pivots of done. When null (or the cache
  /// is cold) the solve still warm-starts from a crash basis built out of
  /// the per-group capacity-relaxed solves. Hints never change the
  /// placement, only the pivot count (see lp/basis.hpp).
  lp::WarmStartCache* warm_cache = nullptr;
};

/// Object groups that the rounding will co-place: correlation components,
/// optionally split to fit node capacity.
struct PlacementGroups {
  std::vector<std::vector<ObjectId>> members;
  std::vector<double> sizes;
  /// Original correlation component each group came from. Sibling groups
  /// (same component, split apart) share vertex-selection preferences in
  /// the transportation LP so they re-co-locate whenever capacity allows,
  /// recovering the cut cost for free.
  std::vector<int> component_of_group;
  /// Total cost of pairs whose endpoints ended in different groups (0
  /// without splitting); a lower bound on the rounded placement's cost.
  double cut_cost = 0.0;
};

/// Builds the co-placement groups for `instance` under `options`.
PlacementGroups build_groups(const CcaInstance& instance,
                             const ComponentSolverOptions& options);

class ComponentLpSolver {
 public:
  explicit ComponentLpSolver(std::uint64_t seed = 1) { options_.seed = seed; }
  explicit ComponentLpSolver(ComponentSolverOptions options)
      : options_(options) {}

  /// Solves the relaxation exactly. Requires a pin-free instance (use
  /// solve_cca_lp for pinned ones) and total size <= total capacity.
  ///
  /// Extra resources (Sec. 3.3) are honoured at component granularity.
  /// Caveat: with resources whose demands are not proportional to object
  /// sizes, the identical-rows argument no longer proves the optimum is 0;
  /// this solver then returns a 0-objective solution whenever the
  /// contracted program is feasible and throws otherwise — in the latter
  /// case fall back to solve_cca_lp, which handles the (now genuinely
  /// non-degenerate) program in full.
  FractionalPlacement solve(const CcaInstance& instance) const;

  /// Same, over `groups` already built by build_groups(instance, options)
  /// with this solver's target_fill — for callers that need the groups
  /// too and should not build them twice.
  FractionalPlacement solve(const CcaInstance& instance,
                            const PlacementGroups& groups) const;

 private:
  ComponentSolverOptions options_;
};

}  // namespace cca::core
