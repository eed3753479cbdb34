#!/usr/bin/env python3
"""A/A check of the serving benchmark: is it steady enough to judge a change?

Runs the command from BENCHMARK.json on the same build as two arms, A and B,
interleaved (A B, then B A, ...), one seed per pair, and prints for every
end-to-end metric of every workload:

  * each arm's median and its spread: the distance between the first and
    third quartile (Python's statistics.quantiles, n=4) as a share of the
    median;
  * the drift: how much worse B's median is than A's, as a share of A's;
  * the metric's bound from BENCHMARK.json and a verdict. A spread within a
    third of the bound is "steady"; within the bound, "ok"; wider, "WIDE".
    A drift past the bound is "DRIFT". setup_s is judged on drift only.

With --arms 1 it makes one set of runs and reports the spreads alone.
Run from the repository root:

    python3 servebench/aa.py                      # all workloads, 10 pairs
    python3 servebench/aa.py --runs 5 --arms 1 --workloads windowed_mixed

The runs' result lines are saved under servebench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The seed a baseline is measured with, and the held-out seed a claimed
# gain must also hold on (never used while writing the change).
BASELINE_SEED = 1
HELD_OUT_SEED = 7919


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    return result, meta, wall


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(base, other, better):
    if base == 0:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="seeds per arm")
    ap.add_argument("--seed", type=int, default=BASELINE_SEED, help="first seed")
    ap.add_argument("--arms", type=int, choices=(1, 2), default=2)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    OUT.mkdir(exist_ok=True)
    record = {"runs": []}
    failed = False
    for workload in workloads:
        values = {arm: {m["name"]: [] for m in metrics} for arm in "AB"[: args.arms]}
        for i in range(args.runs):
            seed = args.seed + i
            order = "AB"[: args.arms] if i % 2 == 0 else "BA"[2 - args.arms :]
            for arm in order:
                result, meta, wall = run_once(bench, workload, seed)
                if not meta.get("comparable", False):
                    raise SystemExit(f"not comparable: {meta}")
                record["runs"].append({"workload": workload, "arm": arm, "seed": seed,
                                       "wall_s": wall, "meta": meta, "result": result})
                for m in metrics:
                    values[arm][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"  {workload} seed {seed} arm {arm}: {wall:.1f} s", file=sys.stderr)
        print(f"\n{workload}  ({args.runs} runs per arm)")
        print(f"  {'metric':<22} {'bound':>6} {'A median':>14} {'A spread':>9}"
              + (f" {'B median':>14} {'B spread':>9} {'drift':>7}" if args.arms == 2 else "")
              + "  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med_a, sp_a = spread(values["A"][name])
            line = f"  {name:<22} {bound:>6} {med_a:>14.6g} {sp_a:>9.2%}"
            verdicts = []
            spreads = [sp_a]
            if args.arms == 2:
                med_b, sp_b = spread(values["B"][name])
                drift = worse_by(med_a, med_b, m["better"])
                spreads.append(sp_b)
                line += f" {med_b:>14.6g} {sp_b:>9.2%} {drift:>7.2%}"
                if drift > bound:
                    verdicts.append("DRIFT")
            if name != "setup_s":
                worst = max(spreads)
                verdicts.append("steady" if worst <= bound / 3 else "ok" if worst <= bound else "WIDE")
            else:
                verdicts.append("drift only")
            failed |= any(v in ("WIDE", "DRIFT") for v in verdicts)
            print(line + "  " + " ".join(verdicts))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (OUT / f"aa-{stamp}.json").write_text(json.dumps(record, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
