"""Validates a bench_lp_solver --json grid dump (BENCH_lp_solver.json).

Checks that the dump is valid JSON with the per-cell schema, that every
cell solved to optimality, and that both lanes of a (rows, density) point
— the dense tableau oracle and the production lp::Solver — agree on the
objective.

Coverage is strict: every (rows, density) point must carry the identical
lane set (a missing cell fails the check). The dense lane may be cut off
by --grid-dense-limit, but must then be absent uniformly.

Usage: python3 check_lp_grid.py <grid.json>
"""
import json
import sys

REQUIRED = {
    "rows", "cols", "density", "lane", "backend", "status",
    "objective", "iterations", "phase1_iterations", "phase2_iterations",
    "dual_iterations", "warm_iterations", "warm_dual_iterations",
    "factorizations", "fill_nnz", "pricing_candidates", "solve_ms",
}


def main(path):
    with open(path) as f:
        cells = json.load(f)
    if not cells:
        raise SystemExit("grid dump is empty")
    by_point = {}
    warm_iters = 0
    warm_cells = 0
    for cell in cells:
        missing = REQUIRED - set(cell)
        if missing:
            raise SystemExit(f"cell {cell} missing keys {sorted(missing)}")
        if cell["status"] != "optimal":
            raise SystemExit(f"cell not optimal: {cell}")
        point = (cell["rows"], cell["density"])
        lanes = by_point.setdefault(point, {})
        if cell["lane"] in lanes:
            raise SystemExit(f"point {point} duplicates lane {cell['lane']}")
        lanes[cell["lane"]] = cell["objective"]
        if cell["warm_iterations"] >= 0:
            warm_iters += cell["warm_iterations"]
            warm_cells += 1
    expected = None
    for point, lanes in sorted(by_point.items()):
        if expected is None:
            expected = set(lanes)
        if set(lanes) != expected:
            raise SystemExit(
                f"point {point} missing cells: {sorted(expected - set(lanes))}"
                f" extra: {sorted(set(lanes) - expected)}")
        objectives = sorted(lanes.items())
        ref_lane, ref = objectives[0]
        for lane, objective in objectives[1:]:
            if abs(objective - ref) > 1e-6 * (1.0 + abs(ref)):
                raise SystemExit(
                    f"point {point}: lanes disagree, {ref_lane}={ref} "
                    f"{lane}={objective}")
    print(f"{len(cells)} cells, {len(by_point)} (rows, density) points, "
          f"{len(expected)} lanes each, objectives agree; "
          f"warm restarts: {warm_iters} iters over {warm_cells} cells")


if __name__ == "__main__":
    main(sys.argv[1])
