#!/usr/bin/env python3
"""Build and run the mtt benchmark.

    python3 mttbench/run.py --workload hunt|explore|campaign --seed N \
        --seconds S --trace 0|1 [--quick]
    python3 mttbench/run.py --selftest

Run from the repository root.  The first call configures and builds
mttbench/ (the libraries under src/ plus the benchmark binary) in Release
mode under $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild incrementally.  Build output goes to stderr; the binary's last stdout line
is the result JSON.  Scratch files (journals, span dumps) go to
<build dir>/out.

--selftest builds and runs the unit test of the benchmark's own logic, then
runs every workload in its reduced-size mode (--quick), untraced and traced,
and checks each result line against BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or (ROOT / ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "mttbench"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"mttbench: no mtt sources at {ROOT / 'src'}; run from a "
                 "checkout of the repository")
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            sys.exit(f"mttbench: build step failed: {' '.join(cmd)}")
    return bdir


def run_bench(bdir, args):
    out = bdir / "out"
    return subprocess.run([str(bdir / "mttbench"), *args, "--out", str(out)],
                          stdout=subprocess.PIPE, text=True)


def check_result(line, names, label):
    """Returns a list of problems with one result line."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"{label}: last line is not JSON: {e}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(res)}")
        return problems
    if res["correct"] is not True:
        problems.append(f"{label}: correct is {res['correct']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append(f"{label}: attempted {res['attempted']}")
    if res["failed"] != 0:
        problems.append(f"{label}: failed {res['failed']}")
    got = set(res["metrics"])
    if got != set(names):
        problems.append(f"{label}: metrics missing {sorted(set(names) - got)}"
                        f", unexpected {sorted(got - set(names))}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(
                m["value"], (int, float)):
            problems.append(f"{label}: metric {name} is {m}")
        elif name in names and m["unit"] != names[name]:
            problems.append(f"{label}: {name} unit {m['unit']}")
    return problems


def selftest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bdir = build(["mttbench", "mttbench_test"])
    if subprocess.run([str(bdir / "mttbench_test")]).returncode != 0:
        return 1
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            r = run_bench(bdir, ["--workload", w["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--quick"])
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                problems.append(f"{label}: exit {r.returncode}, no result")
                continue
            names = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_result(lines[-1], names, label)
            print(f"mttbench selftest: {label}: checked", file=sys.stderr)
    for p in problems:
        print(f"mttbench selftest: {p}", file=sys.stderr)
    print("mttbench selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    bdir = build(["mttbench"])
    r = run_bench(bdir, argv)
    sys.stdout.write(r.stdout)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
