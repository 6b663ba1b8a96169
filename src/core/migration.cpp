#include "core/migration.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cca::core {

MigrationReport migration_between(const CcaInstance& instance,
                                  const Placement& from,
                                  const Placement& to) {
  CCA_CHECK(static_cast<int>(from.size()) == instance.num_objects());
  CCA_CHECK(static_cast<int>(to.size()) == instance.num_objects());
  MigrationReport report;
  for (int i = 0; i < instance.num_objects(); ++i) {
    if (from[i] == to[i]) continue;
    ++report.objects_moved;
    report.bytes_moved += instance.object_size(i);
  }
  if (instance.total_object_size() > 0.0)
    report.moved_fraction = report.bytes_moved / instance.total_object_size();
  return report;
}

namespace {

/// One adoption candidate: a set of objects with per-object destinations.
/// Two granularities are generated: single co-placement groups (members
/// off their target node) and whole drifted components (all their groups
/// jointly) — the latter resolves the first-mover problem where no single
/// group improves until its correlated siblings move too.
struct MoveUnit {
  std::vector<ObjectId> objects;
  std::vector<NodeId> destinations;  // parallel to objects
  double bytes = 0.0;
};

/// Modeled-cost reduction of applying `unit` to `working` (positive =
/// improvement). `dest_of[i]` must hold the destination for unit members
/// and -1 otherwise. Only pairs incident to the moved objects change.
double unit_benefit(const CcaInstance& instance, const Placement& working,
                    const std::vector<int>& dest_of) {
  double delta = 0.0;
  for (const PairWeight& p : instance.pairs()) {
    const bool i_moves = dest_of[p.i] >= 0;
    const bool j_moves = dest_of[p.j] >= 0;
    if (!i_moves && !j_moves) continue;
    const NodeId after_i = i_moves ? dest_of[p.i] : working[p.i];
    const NodeId after_j = j_moves ? dest_of[p.j] : working[p.j];
    const bool split_before = working[p.i] != working[p.j];
    const bool split_after = after_i != after_j;
    if (split_before && !split_after) delta += p.cost();
    if (!split_before && split_after) delta -= p.cost();
  }
  return delta;
}

}  // namespace

IncrementalResult IncrementalOptimizer::reoptimize(
    const CcaInstance& instance, const Placement& current) const {
  CCA_CHECK(static_cast<int>(current.size()) == instance.num_objects());
  CCA_CHECK_MSG(config_.migration_budget_fraction >= 0.0,
                "negative migration budget");

  IncrementalResult result;
  result.stale_cost = instance.communication_cost(current);

  // Fresh LPRR target on the updated instance. Warm-started from the
  // previous reoptimize() round's basis: drift nudges sizes and pair
  // costs but keeps the LP's shape, so phase 2 typically confirms the
  // old basis, and when the nudged rhs leaves it primal infeasible the
  // dual simplex lane repairs it in a handful of pivots instead of
  // rebuilding feasibility from scratch (lp.dual_lane.repairs counts
  // these rounds in the metrics dump).
  ComponentSolverOptions solver_options{config_.seed, config_.component_fill};
  solver_options.warm_cache =
      config_.warm_cache != nullptr ? config_.warm_cache : &own_cache_;
  const PlacementGroups solver_groups = build_groups(instance, solver_options);
  const FractionalPlacement x =
      ComponentLpSolver(solver_options).solve(instance, solver_groups);
  common::Rng rng(config_.seed ^ 0x1C9E3A7B5D2F4E6AULL);
  const RoundingResult fresh =
      round_best_of(x, instance, config_.rounding, rng);
  result.fresh_target_cost = fresh.cost;

  // Adoption units: per target co-placement group, the members off their
  // target node. (Rounding co-places identical rows, so a group has one
  // target node.) Units must individually FIT the migration budget or
  // they can never be adopted, so the grouping for move units is re-cut
  // with a fill factor capped by the budget: a 10% byte budget needs
  // pieces of at most 10% of total bytes. When the cap does not bind, the
  // solver's groups are the unit groups and are reused as built.
  const double budget =
      config_.migration_budget_fraction * instance.total_object_size();
  double min_capacity = instance.node_capacity(0);
  for (int k = 1; k < instance.num_nodes(); ++k)
    min_capacity = std::min(min_capacity, instance.node_capacity(k));
  ComponentSolverOptions unit_options = solver_options;
  if (min_capacity > 0.0 && budget > 0.0)
    unit_options.target_fill =
        std::min(unit_options.target_fill <= 0.0 ? 1.0
                                                 : unit_options.target_fill,
                 budget / min_capacity);
  const PlacementGroups groups =
      unit_options.target_fill == solver_options.target_fill
          ? solver_groups
          : build_groups(instance, unit_options);

  Placement working = current;
  std::vector<double> loads = instance.node_loads(working);
  // Node load ceilings for adoption: never exceed capacity — except where
  // the fresh target itself does (Algorithm 2.1 only bounds loads in
  // expectation), in which case its realized load is the ceiling;
  // otherwise no sequence of moves could ever reach the target.
  std::vector<double> ceilings(loads.size());
  {
    const std::vector<double> fresh_loads =
        instance.node_loads(fresh.placement);
    for (std::size_t k = 0; k < ceilings.size(); ++k)
      ceilings[k] = std::max(instance.node_capacity(static_cast<int>(k)),
                             fresh_loads[k]);
  }
  std::vector<int> dest_of(static_cast<std::size_t>(instance.num_objects()),
                           -1);
  double spent = 0.0;

  // Candidate generation against the CURRENT working placement, at two
  // granularities. A candidate's destination per object is the fresh
  // target's node; only objects off-target are included.
  const auto make_unit = [&](const std::vector<ObjectId>& members) {
    MoveUnit unit;
    for (ObjectId i : members) {
      const NodeId dest = fresh.placement[i];
      if (working[i] == dest) continue;
      unit.objects.push_back(i);
      unit.destinations.push_back(dest);
      unit.bytes += instance.object_size(i);
    }
    return unit;
  };

  // Greedy passes: regenerate candidates, rank by benefit density, adopt
  // the best that fit the remaining budget and destination capacities;
  // stop when a pass adopts nothing.
  bool progress = true;
  while (progress) {
    progress = false;

    std::vector<MoveUnit> candidates;
    for (const auto& members : groups.members) {
      MoveUnit unit = make_unit(members);
      if (!unit.objects.empty()) candidates.push_back(std::move(unit));
    }
    // Component composites: all groups of a drifted component move
    // together (their destinations differ per group when the component
    // was capacity-split).
    const int num_components =
        groups.component_of_group.empty()
            ? 0
            : 1 + *std::max_element(groups.component_of_group.begin(),
                                    groups.component_of_group.end());
    std::vector<std::vector<ObjectId>> component_members(
        static_cast<std::size_t>(num_components));
    for (std::size_t g = 0; g < groups.members.size(); ++g) {
      auto& bucket = component_members[groups.component_of_group[g]];
      bucket.insert(bucket.end(), groups.members[g].begin(),
                    groups.members[g].end());
    }
    for (const auto& members : component_members) {
      if (members.empty()) continue;
      MoveUnit unit = make_unit(members);
      if (unit.objects.size() > 1) candidates.push_back(std::move(unit));
    }

    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t u = 0; u < candidates.size(); ++u) {
      const MoveUnit& unit = candidates[u];
      if (spent + unit.bytes > budget + 1e-9) continue;
      for (std::size_t t = 0; t < unit.objects.size(); ++t)
        dest_of[unit.objects[t]] = unit.destinations[t];
      const double benefit = unit_benefit(instance, working, dest_of);
      for (ObjectId i : unit.objects) dest_of[i] = -1;
      if (benefit <= 0.0) continue;
      ranked.push_back({benefit / std::max(unit.bytes, 1e-12), u});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    for (const auto& [density, u] : ranked) {
      (void)density;
      const MoveUnit& unit = candidates[u];
      if (spent + unit.bytes > budget + 1e-9) continue;
      // Skip if any object already moved this pass (overlapping units) or
      // a destination node would overflow. Post-move loads account for
      // departures as well as arrivals.
      bool valid = true;
      std::vector<double> delta_load(loads.size(), 0.0);
      for (std::size_t t = 0; t < unit.objects.size(); ++t) {
        const ObjectId i = unit.objects[t];
        if (working[i] == unit.destinations[t]) {
          valid = false;  // already satisfied by an earlier adoption
          break;
        }
        delta_load[working[i]] -= instance.object_size(i);
        delta_load[unit.destinations[t]] += instance.object_size(i);
      }
      if (!valid) continue;
      // A node may sit above its ceiling mid-migration (other components
      // still parked at old positions); a move is acceptable when every
      // node ends below its ceiling OR below its current level (i.e. the
      // move never worsens an overload).
      for (int k = 0; k < instance.num_nodes(); ++k) {
        if (loads[k] + delta_load[k] >
            std::max(ceilings[k], loads[k]) + 1e-9) {
          valid = false;
          break;
        }
      }
      if (!valid) continue;
      // Benefits may be stale after earlier adoptions in this pass;
      // re-check before committing.
      for (std::size_t t = 0; t < unit.objects.size(); ++t)
        dest_of[unit.objects[t]] = unit.destinations[t];
      const double benefit = unit_benefit(instance, working, dest_of);
      for (ObjectId i : unit.objects) dest_of[i] = -1;
      if (benefit <= 0.0) continue;

      for (std::size_t t = 0; t < unit.objects.size(); ++t) {
        const ObjectId i = unit.objects[t];
        loads[working[i]] -= instance.object_size(i);
        loads[unit.destinations[t]] += instance.object_size(i);
        working[i] = unit.destinations[t];
      }
      spent += unit.bytes;
      progress = true;
    }
  }

  result.placement = std::move(working);
  result.cost = instance.communication_cost(result.placement);
  result.migration = migration_between(instance, current, result.placement);
  return result;
}

}  // namespace cca::core
