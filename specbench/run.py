"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 specbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout.  The workloads and metrics are listed,
with units and bounds, in BENCHMARK.json.  Every process it starts is a
fresh interpreter with BLAS pinned to one thread, and runs alone:

* set-up probes (worker.py probe) import numpy, scipy and the package and
  build the seeded inputs.  Each is timed against a reference probe, a
  fresh interpreter importing a fixed set of standard-library modules, run
  just before and just after it.  ``setup_s`` is the median ratio times the
  reference probe's nominal time, REF_PROBE_NOMINAL_S.  It is therefore a
  normalised figure, not a measured time: seconds at the speed of the
  machine where that nominal time was taken, so drift of the machine's
  speed cancels and a slower set-up does not.  The measured seconds go to
  the record as ``setup_raw_s_median``.  Half the probes run before the
  measured run and half after it.
* the measured run (worker.py run) times gated passes for T seconds, each
  between two runs of a fixed reference loop; ``wall_rel`` is the median of
  pass time over the mean of its two reference times.

With ``--trace 1`` no probes run; alternate passes are traced and the
per-layer metrics of layers.py are printed instead.  The line before the
result holds the run's record: seed, sizes, commit, versions, CPUs, BLAS
threads, raw times and the first failing checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
PROBE_PAIRS = 3              # timed set-up probes before, and again after
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120         # beyond --seconds, for set-up and the last pass
REF_PROBE_NOMINAL_S = 0.12   # reference probe's median on a 2-core x86 box
REF_PROBE = ("import argparse, asyncio, csv, ctypes, decimal, email.parser, "
             "fractions, http.client, json, logging, sqlite3, tarfile, "
             "unittest, xml.dom.minidom, zipfile; print('ready', flush=True)")


class BenchError(RuntimeError):
    """A process of the benchmark failed; no result is printed."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _run(cmd, timeout):
    """Run ``cmd``; return (seconds to its first output line, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    t0 = time.perf_counter()
    timer.start()
    try:
        first = proc.stdout.readline()
        dt = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd[1:3]), code))
    return dt, first + rest


def _probe(cmd):
    dt, out = _run(cmd, PROBE_TIMEOUT_S)
    if out.strip() != "ready":
        raise BenchError("set-up probe printed %r" % out[:200])
    return dt


def setup_probes(workload, seed, sizes, pairs, warm):
    """(ratio, raw seconds, reference seconds) of ``pairs`` set-up probes,
    each between two reference probes."""
    probe = [sys.executable, str(WORKER), "probe", "--workload", workload,
             "--seed", str(seed), "--sizes", sizes]
    ref = [sys.executable, "-c", REF_PROBE]
    if warm:        # compiles bytecode and fills the page cache, untimed
        _probe(ref)
        _probe(probe)
    out = []
    r_before = _probe(ref)
    for _ in range(pairs):
        a = _probe(probe)
        r_after = _probe(ref)
        r = 0.5 * (r_before + r_after)
        out.append((a / r, a, r))
        r_before = r_after
    return out


def run_worker(workload, seed, seconds, trace, sizes):
    cmd = [sys.executable, str(WORKER), "run", "--workload", workload,
           "--seed", str(seed), "--sizes", sizes, "--seconds", str(seconds),
           "--trace", str(int(trace))]
    _, out = _run(cmd, seconds + WORKER_GRACE_S)
    return json.loads(out.strip().splitlines()[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tail(values):
    """(q, value) for the highest of p99/p95/p90/p75/p50 with at least ten
    samples beyond it, or None."""
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def run_benchmark(workload, seed, seconds, trace, sizes="full",
                  probe_pairs=PROBE_PAIRS):
    """Measure one workload; returns (record, result)."""
    if not (ROOT / "src" / "spectra_bochner" / "__init__.py").is_file():
        raise BenchError("src/spectra_bochner not found under %s" % ROOT)
    spec = load_spec()
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % workload)
    probes = []
    if not trace:
        probes += setup_probes(workload, seed, sizes, probe_pairs, warm=True)
    res = run_worker(workload, seed, seconds, trace, sizes)
    if not trace:
        probes += setup_probes(workload, seed, sizes, probe_pairs, warm=False)

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    timed = traced if trace else plain          # passes whose time counts
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall_rel = statistics.median(p["rel"] for p in plain)
    walls = [p["wall_s"] for p in plain]
    if trace:
        values = dict(res["layer"])
        values["trace.overhead_rel"] = (
            statistics.median(p["rel"] for p in traced) / wall_rel - 1.0)
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(p[0] for p in probes)
                  * REF_PROBE_NOMINAL_S,
                  "wall_rel": wall_rel,
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError("metrics %s do not match BENCHMARK.json"
                         % sorted(set(values) ^ {m["name"] for m in wanted}))
    correct = failed == 0 and res.get("counts_repeat", True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "sizes": res["sizes"],
              "commit": git_commit(), **res["provenance"],
              "passes": len(timed), "wall_s_median": statistics.median(walls),
              "wall_s_tail": tail(walls),
              "reference_loop_s_median": statistics.median(
                  p["ref_s"] for p in passes),
              "setup_probes": len(probes),
              "setup_raw_s_median": (statistics.median(p[1] for p in probes)
                                     if probes else None),
              "reference_probe_s_median": (
                  statistics.median(p[2] for p in probes)
                  if probes else None),
              "failures": res["failures"]}
    if trace:
        record["counts_repeat"] = res["counts_repeat"]
    return record, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        record, result = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print("specbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
