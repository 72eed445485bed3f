"""Benchmark worker: one fresh interpreter per set-up probe or measured run.

    python3 specbench/worker.py probe --workload W --seed S --sizes full
    python3 specbench/worker.py run --workload W --seed S --sizes full \\
        --seconds T --trace 0|1

``probe`` imports numpy, scipy and the package from this checkout's ``src``,
builds the workload's seeded inputs, prints ``ready`` and exits; the parent
times it as set-up.  ``run`` does the same set-up, warms up on the small
sizes, then alternates the reference loop with gated passes for T seconds
and prints one JSON object.  With ``--trace 1`` every other pass runs with
the span wrappers of tracer.py installed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3      # untraced passes per run, and traced ones with --trace 1
REF_INT_STEPS = 360_000
REF_NP_STEPS = 4_500


def import_package():
    """Import spectra_bochner from this checkout's src, or refuse to run."""
    init = SRC / "spectra_bochner" / "__init__.py"
    if not init.is_file():
        sys.exit("specbench: %s not found; run from the root of a checkout"
                 % init)
    sys.path.insert(0, str(SRC))
    import spectra_bochner
    got = Path(spectra_bochner.__file__).resolve()
    if got != init.resolve():
        sys.exit("specbench: spectra_bochner imported from %s, not %s"
                 % (got, init))
    return spectra_bochner


def reference_loop(np):
    """Fixed work timed beside every pass: pure-Python integer steps plus
    3x3 numpy products, the two kinds of work in the package's hot loops."""
    acc = 0
    for i in range(REF_INT_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    a = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
    for _ in range(REF_NP_STEPS):
        a = np.einsum("ij,jk->ik", a, a @ a)
        a /= np.abs(a).sum()
    return acc, float(a[0, 0])


def blas_threads():
    """Thread count of every OpenBLAS loaded in this process, by file."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def provenance(np, scipy, package):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "package": package.__version__,
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def measure(np, wl, inputs, seconds, tracer=None):
    """Alternate reference loops and passes until ``seconds`` have passed;
    with a tracer, every other pass runs traced."""
    clock = time.perf_counter
    expect = reference_loop(np)

    def timed_ref():
        t0 = clock()
        got = reference_loop(np)
        dt = clock() - t0
        if got != expect:
            raise RuntimeError("reference loop result changed")
        return dt

    passes, layer_rows, failures = [], [], []
    start = clock()
    ref_before = timed_ref()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        ctx = tracer if traced else contextlib.nullcontext()
        if traced:
            tracer.reset()
        with ctx:
            t0 = clock()
            outcomes = wl.run_pass(inputs, len(passes))
            wall = clock() - t0
        ref_after = timed_ref()
        ref = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        bad = [o for o in outcomes if not o.ok]
        failures += [{"op": o.op, **o.detail} for o in bad][:5 - len(failures)]
        passes.append({"wall_s": wall, "ref_s": ref, "rel": wall / ref,
                       "traced": traced, "attempted": len(outcomes),
                       "failed": len(bad)})
        if traced:
            layer_rows.append(tracer.aggregate())
        plain = sum(not p["traced"] for p in passes)
        if (clock() - start >= seconds and plain >= MIN_PASSES
                and (tracer is None or len(passes) - plain >= MIN_PASSES)):
            return passes, layer_rows, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", choices=["probe", "run"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", choices=["full", "small"], default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    package = import_package()
    import numpy as np
    import scipy
    import scipy.sparse.linalg
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, wl.sizes[args.sizes])
    if args.mode == "probe":
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        mods = {name: importlib.import_module("spectra_bochner." + name)
                for name in layers.PACKAGE_LAYERS}
        tracer = Tracer(layers.targets(mods.values(),
                                       mods["discretize"].SurfaceMesh,
                                       mods["spectral"].spla),
                        layers.COUNTERS)
    # warm-up: lazy imports and first-call costs, on the small sizes
    wl.run_pass(wl.make_inputs(args.seed, wl.sizes["small"]), 0)
    passes, layer_rows, failures = measure(np, wl, inputs, args.seconds,
                                           tracer)
    out = {"passes": passes, "failures": failures,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "sizes": wl.sizes[args.sizes],
           "provenance": provenance(np, scipy, package)}
    if args.trace:
        rows = [layers.pass_values(*row) for row in layer_rows]
        exact = [m.name for m in layers.METRICS if m.exact]
        out["counts_repeat"] = all(
            [r[k] for k in exact] == [rows[0][k] for k in exact]
            for r in rows)
        out["layer"] = {m.name: statistics.median(r[m.name] for r in rows)
                        for m in layers.METRICS}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
