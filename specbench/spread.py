"""Run-to-run spread of the end-to-end metrics, next to their bounds.

    python3 specbench/spread.py [--workloads a,b] [--runs 10] [--sets 2]

Runs run.py ``--runs`` times per workload and set, each run with its own
seed (SEED0 + 1000 * set + run), for BENCHMARK.json's ``run_seconds``.  For every workload and metric
it prints the median, the interquartile share (q3 - q1 over the median, with
``statistics.quantiles(n=4)``) and the metric's bound.  A spread under a
third of the bound is steady; ``setup_s`` is shown but, like the bound
check it stands for, only its medians are compared.  With ``--sets 2`` it
also prints how far the second set's median moved in the worse direction,
which must stay within the bound.  Exits 1 if any run is incorrect or any
check misses.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED0 = 1000


def run_once(workload, seed, seconds):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise RuntimeError("run.py %s seed %d exited %d: %s"
                           % (workload, seed, out.returncode,
                              out.stderr[-500:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def worse_by(m, first, second):
    change = (second - first) / first
    return change if m["better"] == "lower" else -change


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    args = ap.parse_args(argv)
    names = args.workloads.split(",")

    results = {}        # (set, workload) -> list of result dicts
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            for w in names:
                seed = SEED0 + 1000 * s + i
                res = run_once(w, seed, spec["run_seconds"])
                results.setdefault((s, w), []).append(res)
                print("set %d run %d %-15s correct=%s failed=%d/%d %s"
                      % (s, i, w, res["correct"], res["failed"],
                         res["attempted"],
                         " ".join("%s=%.5g" % (k, v["value"])
                                  for k, v in res["metrics"].items())),
                      flush=True)
                ok = ok and res["correct"]

    print("\n%-15s %-12s %4s %12s %8s %6s %8s %8s"
          % ("workload", "metric", "set", "median", "iqr", "bound",
             "steady", "shift"))
    for w in names:
        for m in spec["end_to_end"]:
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][m["name"]]["value"]
                        for r in results[(s, w)]]
                med, iqr = spread(vals)
                meds.append(med)
                steady = iqr < m["bound"] / 3.0
                gated = m["name"] != "setup_s"
                if gated and iqr >= m["bound"]:
                    ok = False
                shift = worse_by(m, meds[0], med) if s else None
                if shift is not None and shift > m["bound"]:
                    ok = False
                print("%-15s %-12s %4d %12.5g %8.4f %6.2f %8s %8s"
                      % (w, m["name"], s, med, iqr, m["bound"],
                         steady,
                         "" if shift is None else "%.4f" % shift))
    print(json.dumps({"ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
