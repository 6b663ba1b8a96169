"""Prints the executed-line fraction of every src/ file in a coverage build.

Runs `gcov -n` (summaries only, no .gcov files written) on each object of
a build tree compiled with --coverage, and prints one row per library
source file: executable lines, the fraction of them that ran, and the
file's status. A source whose object has a .gcno but no .gcda was never
linked into a program that ran. Headers are left out: their lines are
split across every translation unit that includes them.

Build and run, e.g. for the place-and-serve workloads:

    cmake -S perfbench -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS="--coverage -O1" -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j4 --target perfbench_workload
    for w in short-lprr long-hypergraph serve-churn; do
        build-cov/perfbench_workload --workload=$w --seconds=3
    done
    python3 bench/coverage_report.py build-cov

Counts accumulate in the .gcda files across runs; delete them to start
over. Usage: python3 coverage_report.py <build dir> [--src <src dir>]
"""
import argparse
import re
import subprocess
import sys
from pathlib import Path

FILE_RE = re.compile(r"^File '(.+)'$")
LINES_RE = re.compile(r"^Lines executed:([0-9.]+)% of (\d+)$")


def summarize(gcno):
    """(path, executed %, executable lines) for each source gcov reports."""
    proc = subprocess.run(["gcov", "-n", "-o", str(gcno.parent), str(gcno)],
                          cwd=gcno.parent, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    out, path = [], None
    for line in proc.stdout.splitlines():
        m = FILE_RE.match(line)
        if m:
            path = Path(m.group(1))
            continue
        m = LINES_RE.match(line)
        if m and path is not None:
            out.append((path, float(m.group(1)), int(m.group(2))))
            path = None
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir", type=Path)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    src = args.src.resolve()

    rows = []
    for gcno in sorted(args.build_dir.rglob("*.gcno")):
        linked = gcno.with_suffix(".gcda").is_file()
        for path, pct, lines in summarize(gcno):
            if not path.is_absolute():
                path = (gcno.parent / path).resolve()
            # Keep only the object's own source (foo.cpp for foo.cpp.gcno),
            # not the headers it includes.
            if src not in path.parents or path.name != gcno.stem:
                continue
            rows.append((path.relative_to(src).as_posix(), lines,
                         pct if linked else 0.0, linked))
    if not rows:
        sys.exit(f"coverage_report: no src/ objects with .gcno under "
                 f"{args.build_dir}; was it built with --coverage?")

    rows.sort()
    width = max(len(name) for name, *_ in rows)
    print(f"{'file':<{width}}  {'lines':>6}  {'executed':>8}  status")
    total = executed = 0
    for name, lines, pct, linked in rows:
        status = "" if linked else "not linked"
        if linked and lines and pct == 0.0:
            status = "never ran"
        print(f"{name:<{width}}  {lines:>6}  {pct:>7.1f}%  {status}".rstrip())
        total += lines
        executed += round(lines * pct / 100.0)
    share = 100.0 * executed / total if total else 0.0
    print(f"{'total':<{width}}  {total:>6}  {share:>7.1f}%")


if __name__ == "__main__":
    main()
