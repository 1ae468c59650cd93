#!/usr/bin/env python3
"""Compare fresh bench output against committed baselines.

Each baseline under bench/baselines/*.json records how it was produced
(harness binary + arguments) plus two kinds of expectations:

  "bench"  the harness's --format=json document: pure simulation
           output, deterministic by contract, compared for EXACT
           equality — any difference is a correctness regression;
  "perf"   the --perf accounting of the same run: host timings,
           compared only for *regressions* of per-access cost
           (keys ending in "_ns_per_access") beyond a relative
           tolerance (--tolerance, default 0.5 = +50%), since shared
           hosts are noisy. Faster is never a failure. Remaining perf
           keys (counts, totals) are informational, and keys the
           baseline does not have (e.g. runner.cache_tape_*) are
           ignored.

Exit status: 0 when every baseline matches, 1 on any simulation
difference or per-access regression, 2 on usage/setup errors.

Usage:
  scripts/bench_compare.py                  # compare all baselines
  scripts/bench_compare.py --update         # regenerate baselines
  scripts/bench_compare.py --tolerance=1.0  # allow +100% timing drift
  scripts/bench_compare.py --build=build    # binaries directory root
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO / "bench" / "baselines"


def run_harness(build, baseline):
    """Run the baseline's harness; return (bench_doc, perf_doc)."""
    binary = pathlib.Path(build) / "bench" / baseline["harness"]
    if not binary.exists():
        sys.exit(f"bench_compare: missing harness binary {binary} "
                 f"(build the repo first)")
    with tempfile.TemporaryDirectory() as tmp:
        perf_path = pathlib.Path(tmp) / "perf.json"
        cmd = [str(binary), *baseline["args"], f"--perf={perf_path}"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_compare: {' '.join(cmd)} exited "
                     f"{proc.returncode}:\n{proc.stderr}")
        try:
            bench = json.loads(proc.stdout)
        except json.JSONDecodeError as err:
            sys.exit(f"bench_compare: {binary.name} emitted invalid "
                     f"JSON ({err}); was it run with --format=json?")
        perf = json.loads(perf_path.read_text())
    return bench, perf


def compare_one(path, baseline, build, tolerance):
    """Compare one baseline; return a list of failure strings."""
    bench, perf = run_harness(build, baseline)
    failures = []

    if bench != baseline["bench"]:
        failures.append(
            f"{path.name}: simulation output differs from baseline "
            f"(deterministic contract broken or figures changed; rerun "
            f"with --update if the change is intended)")

    for key, expected in baseline["perf"].items():
        if not key.endswith("_ns_per_access"):
            continue
        fresh = perf.get(key)
        if fresh is None:
            failures.append(f"{path.name}: perf key {key} missing "
                            f"from fresh --perf output")
            continue
        if expected > 0 and fresh > expected * (1.0 + tolerance):
            failures.append(
                f"{path.name}: {key} regressed {expected:.2f} -> "
                f"{fresh:.2f} ns (+{(fresh / expected - 1) * 100:.0f}%, "
                f"tolerance +{tolerance * 100:.0f}%)")
    return failures


def update_one(path, baseline, build):
    bench, perf = run_harness(build, baseline)
    baseline["bench"] = bench
    baseline["perf"] = perf
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"bench_compare: updated {path.relative_to(REPO)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default=str(REPO / "build"),
                        help="CMake build directory with bench binaries")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative ns_per_access growth")
    parser.add_argument("--update", action="store_true",
                        help="regenerate baselines from fresh runs")
    parser.add_argument("baselines", nargs="*",
                        help="baseline files (default: all committed)")
    args = parser.parse_args()

    paths = ([pathlib.Path(p).resolve() for p in args.baselines]
             or sorted(BASELINE_DIR.glob("*.json")))
    if not paths:
        sys.exit(f"bench_compare: no baselines under {BASELINE_DIR}")

    failures = []
    for path in paths:
        baseline = json.loads(path.read_text())
        if args.update:
            update_one(path, baseline, args.build)
            continue
        found = compare_one(path, baseline, args.build, args.tolerance)
        if found:
            failures.extend(found)
        else:
            print(f"bench_compare: {path.name} OK")

    if failures:
        print("bench_compare: FAILURES", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
