#!/usr/bin/env python3
"""Place-and-serve benchmark driver.

Builds the placement library and the workload program from source (CMake,
Release, into $CARGO_TARGET_DIR or .bench_build), runs one workload in its
own process, checks the printed metrics against BENCHMARK.json, and prints
one JSON result as the last stdout line:

    python3 perfbench/run.py --workload short-lprr --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice, untraced and then traced, and reports the per-layer metrics of the
traced run plus the tracing overhead (traced minus untraced) of each
end-to-end timing. Span dumps land in <build dir>/spans/.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("short-lprr", "long-hypergraph", "serve-churn")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# End-to-end timings whose traced-minus-untraced difference is reported as
# the per-layer metric overhead.<name>.
OVERHEAD = ("setup_s", "plan_s", "epoch_swap_ms", "replay_qps",
            "degraded_replay_qps", "query_p50_us", "query_p99_us",
            "sim_wall_qps", "peak_rss_mib")
DEADLINE_S = 175.0


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    """Configures once, then (re)builds `targets`; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no library sources under "
                         f"{ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4", "--target",
                    *targets], stdout=sys.stderr, check=True)
    return bdir


def run_workload(bdir, workload, seed, seconds, traced, deadline):
    """One workload process; returns its parsed result line."""
    cmd = [str(bdir / "perfbench_workload"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={1 if traced else 0}"]
    if traced:
        spans = bdir / "spans"
        spans.mkdir(exist_ok=True)
        cmd.append(f"--spans={spans / f'{workload}-seed{seed}.json'}")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("perfbench: out of time before " + " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} exited {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no result")
    return json.loads(lines[-1])


def expected_metrics(spec, section):
    return {m["name"]: m["unit"] for m in spec[section]}


def validate(metrics, expected, nonzero):
    """Problems with a metrics dict against the expected name -> unit map."""
    problems = []
    for name, entry in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        unit = entry.get("unit")
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            problems.append(f"{name}: missing or bad unit {unit!r}")
        elif name in expected and unit != expected[name]:
            problems.append(f"{name}: unit {unit!r}, expected "
                            f"{expected[name]!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: non-finite value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{name}: value is 0")
    for name in expected.keys() - metrics.keys():
        problems.append(f"missing metric {name}")
    for name in metrics.keys() - expected.keys():
        problems.append(f"unexpected metric {name}")
    return problems


def per_layer_result(untraced, traced):
    """Per-layer metrics of the traced run plus the tracing overhead."""
    metrics = {name: entry for name, entry in traced["metrics"].items()
               if name not in untraced["metrics"]}
    for name in OVERHEAD:
        metrics["overhead." + name] = {
            "value": traced["metrics"][name]["value"]
            - untraced["metrics"][name]["value"],
            "unit": traced["metrics"][name]["unit"],
            "samples": 1}
    return metrics


def selftest():
    bdir = build(["perfbench_selftest"])
    ok = subprocess.run([str(bdir / "perfbench_selftest")]).returncode == 0
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() and ok
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bdir = build(["perfbench_workload"])
    # A fresh checkout builds first; the run deadline starts after that.
    deadline = time.monotonic() + DEADLINE_S
    untraced = run_workload(bdir, args.workload, args.seed, args.seconds,
                            False, deadline)
    if args.trace:
        traced = run_workload(bdir, args.workload, args.seed, args.seconds,
                              True, deadline)
        metrics = per_layer_result(untraced, traced)
        expected = expected_metrics(spec, "per_layer")
        runs = (untraced, traced)
    else:
        metrics = untraced["metrics"]
        expected = expected_metrics(spec, "end_to_end")
        runs = (untraced,)

    problems = validate(metrics, expected, nonzero=not args.trace)
    for problem in problems:
        print("perfbench:", problem, file=sys.stderr)
    correct = all(r["correct"] for r in runs) and not problems
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + (1 if problems else 0)

    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']:<10s} "
              f"n={entry.get('samples', 1)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
