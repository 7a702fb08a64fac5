#!/usr/bin/env python3
"""Steadiness check of the mtt benchmark.

    python3 mttbench/steady.py [--runs N] [--workloads hunt,explore,...]
                               [--seconds S]

Runs every workload in two interleaved sets of N runs (default 10), each run
with its own --seed, through run.py exactly as BENCHMARK.json's command
does.  For every end-to-end metric it prints, per set, the median, the
quartiles (statistics.quantiles(n=4)) and the spread (interquartile distance
as a share of the median), then the shift of the second set's median against
the first, both next to the metric's bound.  It also checks that every run
is correct, that failed/attempted is the same share in every run, and that
metrics with unit "count" read exactly the same in every run.  Exits 1 when
a spread (setup_s excepted) or a shift exceeds its bound, or a check fails.
Raw result lines are appended to <build dir>/out/steady.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import build_dir  # noqa: E402


def run_once(cmd, workload, seed, seconds):
    r = subprocess.run([*cmd, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {r.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed0", type=int, default=101)
    a = ap.parse_args()
    cmd = spec["command"]
    workloads = a.workloads.split(",")
    log_dir = build_dir() / "out"
    log_dir.mkdir(parents=True, exist_ok=True)
    log = open(log_dir / "steady.jsonl", "a")

    results = {w: ([], []) for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            # Alternate which set goes first, so drift hits both alike.
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = a.seed0 + 2 * i + s
                res = run_once(cmd, w, seed, a.seconds)
                results[w][s].append(res)
                log.write(json.dumps({"workload": w, "set": s, "seed": seed,
                                      "result": res}) + "\n")
                log.flush()
                print(f"steady: {w} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in res["metrics"].items()), file=sys.stderr)

    bad = []
    for w in workloads:
        sets = results[w]
        runs = sets[0] + sets[1]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        if any(not r["correct"] for r in runs):
            bad.append(f"{w}: a run was not correct")
        if len({f / att for f, att in shares}) != 1:
            bad.append(f"{w}: failed share differs between runs: {shares}")
        print(f"\n{w}  (failed/attempted: "
              f"{sorted({f'{f}/{att}' for f, att in shares})[:3]})")
        print(f"  {'metric':<14}{'set':>4}{'q1':>14}{'median':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>8}{'shift':>9}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            if m["unit"] == "count" and len({v for s in vals for v in s}) != 1:
                bad.append(f"{w}/{name}: count differs between runs")
            med = []
            for k, v in enumerate(vals):
                q1, q2, q3, sp = spread(v)
                med.append(q2)
                shift = ""
                if k == 1:
                    d = (q2 - med[0]) / med[0]
                    if m["better"] == "higher":
                        d = -d
                    shift = f"{d:+.4f}"
                    if d > bound:
                        bad.append(f"{w}/{name}: median worse by {d:.4f}")
                print(f"  {name:<14}{k:>4}{q1:>14.6g}{q2:>14.6g}{q3:>14.6g}"
                      f"{sp:>9.4f}{bound:>8}{shift:>9}")
                if name != "setup_s" and sp > bound:
                    bad.append(f"{w}/{name}: spread {sp:.4f} > {bound}")
    for b in bad:
        print(f"steady: FAIL {b}")
    print("steady: " + ("FAIL" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
