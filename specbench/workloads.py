"""The benchmark's four workloads: seeded inputs, one gated pass, oracles.

A pass runs every operation of a workload once and checks each answer
against an oracle; passes are numbered from 0 within a run.  An operation fails when it misses its gate or when the
library raises a ``SpectraError`` on its way to the answer.  Oracles are
computed in ``make_inputs`` so that a pass calls the library only for the
work being measured (and a traced pass counts only that work).

Sizes come in two sets: ``full`` is what the benchmark times, ``small``
warms a worker up and drives the smoke self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from spectra_bochner import bounds as bd
from spectra_bochner import discretize as dz
from spectra_bochner import geometry as geom
from spectra_bochner import harness as hz
from spectra_bochner import spectral as spec
from spectra_bochner.errors import SpectraError


@dataclass(frozen=True)
class Outcome:
    """One checked operation of a pass."""

    op: str
    ok: bool
    detail: Dict[str, object]


def _failed_all(ops, exc):
    detail = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return [Outcome(op, False, detail) for op in ops]


# ---------------------------------------------------------------------------
# sphere-l1: L1 mu1 of the unit sphere on an icosphere refinement ladder

# The P1 scheme is O(h^2): at this commit |mu1 - 2| / h^2 reads 0.51-0.55 on
# subdivisions 1-4.  The gate allows twice that constant, and the observed
# order between neighbouring rungs must lie near 2.
SPHERE_ERR_CONST = 1.0
SPHERE_ORDER_RANGE = (1.7, 2.3)
SPHERE_VERDICTS = (bd.VERDICT_EQUALITY, bd.VERDICT_INEQUALITY)


@dataclass(frozen=True)
class SphereInputs:
    subdivs: Tuple[int, ...]
    seed: int
    mu1: float          # oracle: closed-form mu1 of L1 on the unit sphere


def sphere_inputs(seed, subdivs, mu1=None):
    if mu1 is None:
        mu1 = float(spec.analytic_sphere_spectrum(
            2, 1.0, spec.OP_NEWTON_L1, 1)[0])
    return SphereInputs(subdivs=tuple(subdivs), seed=seed, mu1=mu1)


def _order(e0, e1, h0, h1):
    if e0 <= 0.0 or e1 <= 0.0:
        return None
    return math.log(e0 / e1) / math.log(h0 / h1)


def sphere_pass(inp, k=0):
    """``report compare --surface ellipsoid:1,1,1``; one operation per rung.

    A rung passes when |mu1 - oracle| <= C h^2, the observed order of the
    rung pair it belongs to (the first rung shares the first pair) lies in
    SPHERE_ORDER_RANGE, and its bound verdict is EqualityCase or
    InequalityHolds.
    """
    ops = ["subdiv%d" % s for s in inp.subdivs]
    try:
        rep = hz.ellipsoid_compare((1.0, 1.0, 1.0), inp.subdivs,
                                   seed=inp.seed)
    except SpectraError as exc:
        return _failed_all(ops, exc)
    levels = rep["levels"]
    errs = [abs(lv["mu1"] - inp.mu1) for lv in levels]
    hs = [lv["h"] for lv in levels]
    orders = [_order(errs[i - 1], errs[i], hs[i - 1], hs[i])
              for i in range(1, len(levels))]
    lo, hi = SPHERE_ORDER_RANGE
    out = []
    for i, (op, lv) in enumerate(zip(ops, levels)):
        order = orders[max(i, 1) - 1] if orders else None
        ok = (errs[i] <= SPHERE_ERR_CONST * hs[i] ** 2
              and order is not None and lo <= order <= hi
              and lv["verdict"] in SPHERE_VERDICTS)
        out.append(Outcome(op, ok, {"mu1": lv["mu1"], "h": hs[i],
                                    "err": errs[i], "order": order,
                                    "verdict": lv["verdict"]}))
    return out


# ---------------------------------------------------------------------------
# torus3-grid: Laplace-Beltrami mu1 of torus3:perturb=sin on periodic grids

TORUS_SPEC = "torus3:perturb=sin"
TORUS_REL_TOL = 1e-8
# mu1 recorded when this benchmark was added (tol 1e-9; the Lanczos start
# vector, the only seeded input, moves it by < 1e-15).
TORUS_REFERENCE = {6: 1.0867453285340072, 8: 1.0449199065803503,
                   18: 1.0028150121556432}


@dataclass(frozen=True)
class TorusInputs:
    manifold: geom.ChartManifold
    resolutions: Tuple[int, ...]
    seed: int
    reference: Dict[int, float]
    bracket: Dict[int, Tuple[float, float]]


def _conformal_bracket(chart, res):
    """Rayleigh bracket of the discrete mu1 from the flat grid's mu1.

    The metric is c(x1) times the identity on a cubic box, so each cell's
    stiffness is c^{1/2} and its mass c^{3/2} times the flat cell's.  Min-max then puts
    mu1 within [min c^{1/2} / max c^{3/2}, max c^{1/2} / min c^{3/2}] times
    the flat mu1 of trilinear elements with consistent mass,
    (6/h^2)(1 - cos h)/(2 + cos h) for the first Fourier mode.
    """
    lengths = chart.hi - chart.lo
    h = float(lengths[0]) / res
    centers = (np.arange(res) + 0.5) * h
    c = np.array([chart.metric.comp(np.array([x, 0.0, 0.0]))[0, 0]
                  for x in centers])
    flat = 6.0 / h ** 2 * (1.0 - math.cos(h)) / (2.0 + math.cos(h))
    return (flat * np.min(np.sqrt(c)) / np.max(c ** 1.5),
            flat * np.max(np.sqrt(c)) / np.min(c ** 1.5))


def torus_inputs(seed, resolutions):
    m = geom.parse_manifold(TORUS_SPEC)
    chart = m.chart()
    return TorusInputs(manifold=m, resolutions=tuple(resolutions), seed=seed,
                       reference={r: TORUS_REFERENCE[r] for r in resolutions},
                       bracket={r: _conformal_bracket(chart, r)
                                for r in resolutions})


def torus_pass(inp, k=0):
    """``eig --manifold torus3:perturb=sin --resolution r``; one operation
    per resolution, gated by the conformal bracket and the recorded mu1.

    Pass ``k`` draws its Lanczos start vector from (seed, k).  ARPACK's
    restart count depends on the start vector (21, 36 or 51 shift-invert
    solves at 18^3), so one start vector per run would tie the run's time
    to the luck of its seed.
    """
    chart = inp.manifold.chart()
    out = []
    for res in inp.resolutions:
        op = "grid%d" % res
        try:
            grid = dz.PeriodicGrid(lengths=chart.hi - chart.lo,
                                   shape=(res,) * inp.manifold.dim,
                                   metric=chart.metric.comp)
            asm = dz.assemble(grid, dz.grid_metric_coefficient(grid))
            mu1 = spec.smallest_nonzero(asm, k=1, tol=1e-9,
                                        seed=[inp.seed, k]).mu1
        except SpectraError as exc:
            out.extend(_failed_all([op], exc))
            continue
        lo, hi = inp.bracket[res]
        ref = inp.reference[res]
        rel = abs(mu1 - ref) / ref
        ok = lo <= mu1 <= hi and rel <= TORUS_REL_TOL
        out.append(Outcome(op, ok, {"mu1": mu1, "bracket": [lo, hi],
                                    "rel_to_reference": rel}))
    return out


# ---------------------------------------------------------------------------
# bochner-points: the generalized Bochner identity at sample points

# thresholds of ``check --suites bochner``
BOCHNER_MAX_RESIDUAL = 1e-8
BOCHNER_MAX_C_SPREAD = 1e-10
BOCHNER_CASES = tuple("%s/%s" % (m, phi)
                      for m in ("flat-torus2", "perturbed-torus2", "sphere4")
                      for phi in ("metric", "schouten", "random-spd"))


@dataclass(frozen=True)
class BochnerInputs:
    samples: int
    seed: int


def bochner_inputs(seed, samples):
    return BochnerInputs(samples=int(samples), seed=seed)


def bochner_pass(inp, k=0):
    """``harness.bochner_suite``; one operation per (manifold, phi) case,
    each over the suite's three values of c."""
    try:
        rep = hz.bochner_suite(samples=inp.samples, seed=inp.seed)
    except SpectraError as exc:
        return _failed_all(BOCHNER_CASES, exc)
    got = {"%s/%s" % (c["manifold"], c["phi"]): c for c in rep["cases"]}
    out = []
    for op in BOCHNER_CASES:
        case = got.get(op)
        if case is None:
            out.append(Outcome(op, False, {"error": "case missing"}))
            continue
        ok = (case["points"] == inp.samples
              and case["max_residual"] <= BOCHNER_MAX_RESIDUAL
              and case["max_c_spread"] <= BOCHNER_MAX_C_SPREAD)
        out.append(Outcome(op, ok, {"max_residual": case["max_residual"],
                                    "max_c_spread": case["max_c_spread"]}))
    return out


# ---------------------------------------------------------------------------
# prop-trials: seeded inequality trial streams and the planted control

PROP_STREAMS = ("newton", "qa-positive", "qa-negative", "qa-planted")


@dataclass(frozen=True)
class TrialInputs:
    config: hz.TrialConfig
    planted: hz.TrialConfig


def trial_inputs(seed, sizes):
    trials, planted = sizes
    return TrialInputs(config=hz.TrialConfig(trials=int(trials), seed=seed),
                       planted=hz.TrialConfig(trials=int(planted), seed=seed))


def _stream(name, inp):
    if name == "newton":
        rep = hz.newton_inequality_trials(inp.config)
        ok = rep["violations"] == 0 and rep["equality_false_positives"] == 0
    elif name == "qa-planted":
        rep = hz.qa_bound_trials(inp.planted, kappa_sign="negative",
                                 planted=True)
        ok = rep["violations"] > 0
    else:
        rep = hz.qa_bound_trials(inp.config, kappa_sign=name[3:])
        ok = rep["violations"] == 0
    return Outcome(name, ok, {k: rep[k] for k in
                              ("trials", "violations", "worst_defect")})


def trial_pass(inp, k=0):
    """``proptest newton`` and ``proptest qa`` for both signs of kappa,
    plus the planted negative control that must report violations."""
    out = []
    for name in PROP_STREAMS:
        try:
            out.append(_stream(name, inp))
        except SpectraError as exc:
            out.extend(_failed_all([name], exc))
    return out


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Dict[str, object]       # "full" | "small" -> size parameter
    make_inputs: Callable[[int, object], object]
    run_pass: Callable[[object, int], List[Outcome]]   # (inputs, pass index)


WORKLOADS = {w.name: w for w in (
    Workload("sphere-l1", {"full": (1, 2, 3), "small": (1, 2)},
             sphere_inputs, sphere_pass),
    Workload("torus3-grid", {"full": (18,), "small": (6, 8)},
             torus_inputs, torus_pass),
    Workload("bochner-points", {"full": 10, "small": 2},
             bochner_inputs, bochner_pass),
    Workload("prop-trials", {"full": (5000, 2000), "small": (300, 300)},
             trial_inputs, trial_pass),
)}
