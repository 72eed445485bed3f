"""Smoke self-test of the benchmark on the small sizes (about a minute).

    python3 specbench/smoke.py

It checks that
1. every workload emits every metric of BENCHMARK.json, with its unit, both
   untraced and traced, and passes every operation;
2. two traced runs of one seed give identical counts;
3. a planted wrong reference (mu1 = 2.1 on sphere-l1) fails every operation;
4. the unit-sphere ladder still reports EqualityCase or InequalityHolds;
5. BENCHMARK.json gives each workload a one-line reason, and its per_layer
   list is the layer map of layers.py, which names only real workloads;
6. every workload a layer metric says it moves gives that metric a nonzero
   value when traced.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

import layers
import run
import worker

SEED = 7
FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def emitted(result, wanted):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == {m["name"]: m["unit"] for m in wanted}


def check_runs(spec):
    """Run every workload; return its first traced result by name."""
    exact = [m.name for m in layers.METRICS if m.exact]
    first = {}
    for w in spec["workloads"]:
        name = w["name"]
        _, plain = run.run_benchmark(name, SEED, 0.5, False, sizes="small",
                                     probe_pairs=1)
        check(emitted(plain, spec["end_to_end"]) and plain["correct"]
              and plain["failed"] == 0 and plain["attempted"] > 0,
              "%s: end-to-end metrics emitted, all operations pass" % name)
        traced = [run.run_benchmark(name, SEED, 0.5, True, sizes="small")[1]
                  for _ in range(2)]
        check(all(emitted(r, spec["per_layer"]) and r["correct"]
                  for r in traced),
              "%s: per-layer metrics emitted, all operations pass" % name)
        counts = [[r["metrics"][k]["value"] for k in exact] for r in traced]
        check(counts[0] == counts[1],
              "%s: counts identical across two traced runs" % name)
        first[name] = traced[0]
    return first


def check_moves(traced):
    for m in layers.METRICS:
        silent = [w for w in m.moves
                  if not traced[w]["metrics"][m.name]["value"]]
        check(not silent, "%s: nonzero on %s" % (m.name, ", ".join(m.moves)
                                                 or "no workload"))


def check_oracles():
    worker.import_package()
    import workloads
    small = workloads.WORKLOADS["sphere-l1"].sizes["small"]
    planted = workloads.sphere_pass(
        workloads.sphere_inputs(SEED, small, mu1=2.1))
    check(planted and not any(o.ok for o in planted),
          "sphere-l1: planted mu1 = 2.1 fails every operation")
    real = workloads.sphere_pass(workloads.sphere_inputs(SEED, small))
    check(all(o.ok and o.detail["verdict"] in workloads.SPHERE_VERDICTS
              for o in real),
          "sphere-l1: unit-sphere ladder passes with verdicts %s"
          % sorted({o.detail["verdict"] for o in real}))
    return set(workloads.WORKLOADS)


def check_spec(spec, workload_names):
    names = [w["name"] for w in spec["workloads"]]
    check(set(names) == workload_names,
          "BENCHMARK.json workloads match workloads.py")
    check(all(w["why"].strip() and "\n" not in w["why"]
              for w in spec["workloads"]),
          "every workload has a one-line reason")
    table = layers.METRICS + (layers.OVERHEAD,)
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(m.name, m.unit) for m in table],
          "per_layer metrics are the layer map of layers.py")
    check(all(m.name.split(".")[0] in layers.PACKAGE_LAYERS + ("trace",)
              and set(m.moves) | set(m.flat) <= set(names)
              for m in table),
          "every layer metric names its layer and real workloads")


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_spec(spec, check_oracles())
    check_moves(check_runs(spec))
    print(json.dumps({"ok": not FAILURES, "failures": FAILURES}))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
