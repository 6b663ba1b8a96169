"""Validates a bench_strategy_frontier --json grid dump.

Checks that the dump is valid JSON with the per-cell schema and that
coverage is strict: every strategy appears under every query-length
exactly once, and the canonical five strategies (random-hash, greedy,
multilevel, lprr, hypergraph) are all present.

On top of coverage it asserts the hypergraph headline: on every
long-query workload (mean query length >= MIN_QLEN), "hypergraph"
achieves strictly lower rate-weighted lambda-1 on the held-out February
trace than both "multilevel" and "greedy" — at comparable capacity
feasibility: the hypergraph cell must itself be capacity-feasible
(scoped feasibility flag set and max load factor within LOAD_EPS of
1.0) whenever the rival it is judged against is. Partitioners
legitimately fill nodes to ~100% of the slacked capacity while greedy
leaves headroom, so raw load factors are not compared against each
other.

It also prints the hypergraph/multilevel wall_ms ratio per query
length, reported only: smoke-scale timings are too small to gate on.

Usage: python3 check_frontier_grid.py <grid.json>
"""
import json
import sys

REQUIRED = {
    "seed", "threads", "nodes", "scope", "qlen", "realized_qlen",
    "strategy", "lambda_feb", "lambda_scoped_norm", "pair_cost_norm",
    "max_load_factor", "feasible", "wall_ms",
}

EXPECTED_STRATEGIES = {
    "random-hash", "greedy", "multilevel", "lprr", "hypergraph",
}

# Judge the headline only where the pairwise collapse demonstrably thins
# out; at the paper's ~2.54 the approximation is close to exact and the
# strategies legitimately tie.
MIN_QLEN = 4.0
LOAD_EPS = 1e-9


def main(path):
    with open(path) as f:
        dump = json.load(f)
    cells = dump["cells"]
    if not cells:
        raise SystemExit("frontier grid dump is empty")

    by_cell = {}
    for cell in cells:
        missing = REQUIRED - set(cell)
        if missing:
            raise SystemExit(f"cell {cell} missing keys {sorted(missing)}")
        if cell["lambda_feb"] < 0 or cell["wall_ms"] < 0:
            raise SystemExit(f"negative measurement in cell: {cell}")
        key = (cell["qlen"], cell["strategy"])
        if key in by_cell:
            raise SystemExit(f"duplicate cell {key}")
        by_cell[key] = cell

    qlens = sorted({q for q, _ in by_cell})
    strategies = {s for _, s in by_cell}
    missing = EXPECTED_STRATEGIES - strategies
    if missing:
        raise SystemExit(f"strategies never ran: {sorted(missing)}")
    for q in qlens:
        for s in strategies:
            if (q, s) not in by_cell:
                raise SystemExit(f"coverage hole: qlen={q} strategy={s!r}")

    long_qlens = [q for q in qlens if q >= MIN_QLEN]
    if not long_qlens:
        raise SystemExit(
            f"no workload with mean query length >= {MIN_QLEN}; the "
            "hypergraph headline was never exercised")
    for q in long_qlens:
        hg = by_cell[(q, "hypergraph")]
        for rival_name in ("multilevel", "greedy"):
            rival = by_cell[(q, rival_name)]
            if not hg["lambda_feb"] < rival["lambda_feb"]:
                raise SystemExit(
                    f"qlen={q}: hypergraph lambda {hg['lambda_feb']:.4f} "
                    f"not strictly below {rival_name}'s "
                    f"{rival['lambda_feb']:.4f}")
            if rival["feasible"] and not (
                    hg["feasible"]
                    and hg["max_load_factor"] <= 1.0 + LOAD_EPS):
                raise SystemExit(
                    f"qlen={q}: hypergraph is not capacity-feasible "
                    f"(feasible={hg['feasible']}, load factor "
                    f"{hg['max_load_factor']:.3f}) while {rival_name} is")

    # Reported, not gated: at smoke scale both partitioners finish in
    # about a millisecond, where the ratio is timer noise.
    for q in qlens:
        hg_ms = by_cell[(q, "hypergraph")]["wall_ms"]
        ml_ms = by_cell[(q, "multilevel")]["wall_ms"]
        ratio = f"{hg_ms / ml_ms:.2f}x" if ml_ms > 0 else "n/a"
        print(f"qlen={q}: hypergraph/multilevel wall_ms "
              f"{hg_ms:.3f}/{ml_ms:.3f} = {ratio}")

    n_checked = len(long_qlens)
    print(
        f"frontier grid OK: {len(cells)} cells, {len(qlens)} query lengths x "
        f"{len(strategies)} strategies; hypergraph beat multilevel and "
        f"greedy on all {n_checked} long-query workload(s)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
