"""Property-test oracles and the named verification suites.

Trial streams are driven by numpy's default_rng (PCG64), fully determined by
the seed recorded in every report.  The two pointwise inequalities exercised:

* trace inequality: tr(A^2 B) >= (tr AB)^2 / tr B for symmetric A and SPD B,
  equality iff A is a multiple of the identity; checked in B's eigenframe,
  with planted indefinite B as the negative control;
* the cubic-polynomial bound: if 0 < alpha I <= A <= a alpha I then every
  diagonal entry of Q(A) is at least bounds.l1_core(n, alpha, a, kappa);
  checked on diagonal A, all dimensions in one masked pass (_qa_defects).
"""

from __future__ import annotations

import configparser
import json
import math
import time
from dataclasses import dataclass
from typing import List

import numpy as np

from . import bounds as bd
from . import boxop
from . import discretize as dz
from . import geometry as geom
from . import hypersurface as hyp
from . import spectral as spec
from .errors import ConfigError, SpectraError

GENERATOR_NAME = "numpy.default_rng (PCG64)"

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the seed of a run that names none, on the command line or in its config
DEFAULT_SEED = 42


@dataclass(frozen=True)
class TrialConfig:
    trials: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1, got %r"
                              % self.trials)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative, got %r" % self.seed)


# trials per batched evaluation (trace and Q(A) trials): bounds the
# (batch, n, n) draws and temporaries
QA_BATCH = 2048
# trial dimensions are drawn from DIM_LO..DIM_HI, and the eigenvalues of
# the trace trials' SPD B from [EIG_LO, EIG_HI)
DIM_LO, DIM_HI = 2, 8
EIG_LO, EIG_HI = 0.1, 10.0
# the values of c of bochner_suite, and the two FD steps of fd_order_study
CVALS = (0.0, 1.0, 7.3)
FD_STEPS = (2e-3, 1e-3)
# run_suite fails a Bochner residual or divergence defect above
# RESIDUAL_TOL, a planted control at or below it, and a spread of the
# Bochner residual across c above C_SPREAD_TOL
RESIDUAL_TOL = 1e-8
C_SPREAD_TOL = 1e-10
# the subdivision levels of ellipsoid_compare
DEFAULT_SUBDIVS = (4, 5)


# ---------------------------------------------------------------------------
# trace inequality trials

def newton_inequality_trials(cfg=TrialConfig(), planted=False):
    """Normalized defects (tr(A^2 B) - (tr AB)^2 / tr B) / tr B of random
    pairs, in B's eigenframe: the defect and the test A ~ alpha I are
    unchanged by (A, B) -> (Q^T A Q, Q^T B Q) for orthogonal Q, so diagonal
    B = diag(lam) covers every SPD B, with tr AB = sum_k lam_k A_kk and
    tr A^2 B = sum_k lam_k sum_i A_ik^2.  Violations: defect < -1e-10.
    Where |defect| < 1e-10 the equality detector asserts A ~ (tr AB / tr B)
    I; false positives are counted (must stay zero).  Per QA_BATCH chunk
    the stream gives each trial a DIM_HI x DIM_HI A, then DIM_HI
    eigenvalues, of which a trial of dimension n uses the leading n
    (masked, so all dimensions run at once).  ``planted=True`` negates
    each first eigenvalue (negative control: B is indefinite; only trials
    with tr B > 0 count, and some must violate).
    """
    rng = np.random.default_rng(cfg.seed)
    dims = rng.integers(DIM_LO, DIM_HI + 1, size=cfg.trials)
    violations = equality_hits = false_positives = 0
    worst = np.inf
    idx = np.arange(DIM_HI)
    for start in range(0, cfg.trials, QA_BATCH):
        keep = idx < dims[start:start + QA_BATCH, None]
        A = rng.uniform(-1.0, 1.0, size=keep.shape + (DIM_HI,))
        A = 0.5 * (A + A.transpose(0, 2, 1))
        lam = rng.uniform(EIG_LO, EIG_HI, size=keep.shape) * keep
        if planted:
            lam[:, 0] *= -1.0
        trB = np.sum(lam, axis=1)
        trAB = np.sum(lam * np.diagonal(A, axis1=1, axis2=2), axis=1)
        trA2B = (keep[:, None, :] @ ((A * A) @ lam[:, :, None]))[:, 0, 0]
        defect = (trA2B - trAB ** 2 / trB) / trB
        if planted:
            defect[trB <= 0.0] = np.inf
        worst = min(worst, float(np.min(defect)))
        violations += int(np.sum(defect < -1e-10))
        hit = np.abs(defect) < 1e-10
        equality_hits += int(np.sum(hit))
        sub = keep[hit, :, None] & keep[hit, None, :]
        off = (A[hit] - (trAB / trB)[hit, None, None] * np.eye(DIM_HI)) * sub
        false_positives += int(np.sum(np.abs(off).max(axis=(1, 2)) > 1e-6))
    return {"trials": cfg.trials, "violations": violations,
            "worst_defect": float(worst), "equality_hits": equality_hits,
            "equality_false_positives": false_positives,
            "seed": cfg.seed, "generator": GENERATOR_NAME}


# ---------------------------------------------------------------------------
# Q(A) bound trials

def qa_bound_trials(cfg=TrialConfig(), kappa_sign="positive", planted=False):
    """Diagonal-A trials of the Q(A) lower bound.

    Q(A) is a polynomial in A, so it diagonalizes simultaneously with A and
    diagonal A covers the general case.  ``planted=True`` draws the
    eigenvalues outside the claimed [alpha, a*alpha] band (negative control;
    the suite must then report violations).  The stream gives whole arrays
    in turn: dimensions, alpha, a, kappa, then DIM_HI eigenvalues per
    trial, of which a trial of dimension n uses the leading n.  Each
    QA_BATCH chunk goes through _qa_defects.  Violations: defect < -1e-10.
    """
    if kappa_sign not in ("positive", "negative"):
        raise ConfigError("kappa_sign must be 'positive' or 'negative'")
    rng = np.random.default_rng(cfg.seed + (0 if kappa_sign == "positive"
                                            else 1))
    size = cfg.trials
    dims = rng.integers(DIM_LO, DIM_HI + 1, size=size)
    alphas = rng.uniform(0.2, 2.0, size=size)
    aas = rng.uniform(1.0, 2.0, size=size)
    if kappa_sign == "positive":
        kappas = rng.uniform(1e-6, 2.0, size=size)
    else:
        kappas = rng.uniform(-2.0, 0.0, size=size)
    if planted:
        lo, hi = 0.5 * alphas, 2.0 * aas * alphas
    else:
        lo, hi = alphas, aas * alphas
    h = rng.uniform(lo[:, None], hi[:, None], size=(size, DIM_HI))
    cols = (dims, alphas, aas, kappas, h)
    defect = np.concatenate([_qa_defects(*(c[s:s + QA_BATCH] for c in cols))
                             for s in range(0, size, QA_BATCH)])
    return {"trials": cfg.trials, "kappa_sign": kappa_sign,
            "planted": planted, "violations": int(np.sum(defect < -1e-10)),
            "worst_defect": float(np.min(defect)), "seed": cfg.seed,
            "generator": GENERATOR_NAME}


def _qa_defects(n, alpha, a, kappa, h):
    """(min_i Q_ii - l1_core) / alpha^3 per trial for Q = Q(diag h[:n]),
    h of shape (c, DIM_HI), every dimension in one pass.  The mask keeps
    each trial's leading n entries x; H = sum x and Q(diag x) is diagonal,
    Q_ii = 2x_i^3 - 3H x_i^2 + (2H^2 - |x|^2 - kappa(n-2)) x_i
    + kappa(2n-3) H."""
    keep = np.arange(DIM_HI)[:, None] < n
    x = h.T * keep
    x2 = x * x
    H = np.sum(x, axis=0)
    lin = 2.0 * H ** 2 - np.sum(x2, axis=0) - kappa * (n - 2.0)
    q = 2.0 * x2 * x - 3.0 * H * x2 + lin * x + kappa * (2.0 * n - 3.0) * H
    return (np.min(np.where(keep, q, np.inf), axis=0)
            - bd.l1_core(n, alpha, a, kappa)) / alpha ** 3


def trial_failures(which, rep, planted=False):
    """Failed gates of a 'newton' or 'qa' report, or of qa reports keyed by
    kappa sign (named 'qa[sign]'): a violation or an equality-detector
    false positive, or with ``planted``, no violation."""
    reps = ({which: rep} if "violations" in rep else
            {"%s[%s]" % (which, k): r for k, r in rep.items()})
    if planted:
        return ["%s: planted violation NOT detected" % label
                for label, r in reps.items() if r["violations"] == 0]
    out = []
    for label, r in reps.items():
        if r["violations"]:
            out.append("%s: %d violations" % (label, r["violations"]))
        if r.get("equality_false_positives"):
            out.append("%s: equality detector false positives" % label)
    return out


# ---------------------------------------------------------------------------
# identity suites

def _suite_manifolds():
    return [("flat-torus2", geom.flat_torus(2)),
            ("perturbed-torus2", geom.perturbed_torus(2)),
            ("sphere4", geom.round_sphere(4, 1.0))]


def _suite_phi(m, kind, seed=0):
    n = m.dim
    if kind == "metric":
        return geom.metric_field(m)
    if kind == "schouten":
        if n == 2:
            # dimension 2: ric = (R/2) g identically, so the formal Schouten
            # tensor vanishes; represent it exactly.
            return geom.scale_tensor_field(geom.metric_field(m), 0.0,
                                           name="schouten-formal")
        return geom.schouten_tensor_field(m)
    if kind == "random-spd":
        return geom.random_spd_trig_tensor(n, seed=seed)
    raise ConfigError("unknown phi kind %r" % kind)


def _suite_test_function(m, seed=0):
    rng = np.random.default_rng(seed)
    if m.atlas_kind == geom.ATLAS_ANALYTIC_SPHERE:
        axis = int(rng.integers(0, m.dim + 1))
        return geom.sphere_coordinate_field(m, axis)
    wave = rng.integers(1, 3, size=m.dim).astype(float)
    return geom.trig_field(wave, phase=float(rng.uniform(0, 2 * np.pi)))


# the cases where each planted control of bochner_suite must be flagged:
# those where its term is not identically zero.  The flat torus has no
# curvature, and the formal Schouten phi of the 2-tori is zero.
PLANTED_CASES = {
    "curvature_flipped": (("perturbed-torus2", "metric"),
                          ("perturbed-torus2", "random-spd"),
                          ("sphere4", "metric"), ("sphere4", "schouten"),
                          ("sphere4", "random-spd")),
    "hessian_dropped": (("flat-torus2", "metric"),
                        ("flat-torus2", "random-spd"),
                        ("perturbed-torus2", "metric"),
                        ("perturbed-torus2", "random-spd"),
                        ("sphere4", "metric"), ("sphere4", "schouten"),
                        ("sphere4", "random-spd")),
}


def _planted_residuals(r):
    """|lhs - rhs| of the BochnerResidual r with one term planted wrong:
    the curvature term's sign flipped, or hessian_square dropped."""
    t = r.rhs_terms
    return {"curvature_flipped": np.abs(r.lhs - sum(
                dict(t, curvature=-t["curvature"]).values())),
            "hessian_dropped": np.abs(r.lhs - sum(
                v for k, v in t.items() if k != "hessian_square"))}


def bochner_suite(samples=200, seed=42):
    """Residuals of the generalized Bochner identity over the standard grid
    of (manifold, phi) cases.  Each manifold is evaluated once, as one stack
    of points, for its three phi and all of CVALS: the geometry, f's jets
    and the curvature are shared by its phi.

    The identity is c-independent: its two c-terms are the same contraction
    sum phi_mmij f_i f_j with opposite signs, so ``max_c_spread`` (the
    largest per-point spread of the residual across c) measures rounding
    only.  Each case also reports the max residuals of two planted
    controls, from the first c's terms (``planted``): the curvature term's
    sign flipped, and hessian_square dropped.  PLANTED_CASES lists where
    each must be flagged."""
    rng = np.random.default_rng(seed)
    kinds = ("metric", "schouten", "random-spd")
    cases = []
    for mname, m in _suite_manifolds():
        pts = m.sample_points(samples, rng)
        phis = [_suite_phi(m, kind, seed=seed) for kind in kinds]
        f = _suite_test_function(m, seed=seed + 1)
        per_phi = boxop.bochner_residual(m, phis, f, pts, CVALS)
        for kind, res in zip(kinds, per_phi):
            rs = np.array([r.residual for r in res])
            planted = _planted_residuals(res[0])
            cases.append({"manifold": mname, "phi": kind,
                          "max_residual": float(np.max(rs, initial=0.0)),
                          "max_c_spread": float(np.max(np.ptp(rs, axis=0),
                                                       initial=0.0)),
                          "planted": {k: float(np.max(v, initial=0.0))
                                      for k, v in planted.items()},
                          "points": len(pts)})
    return {"cases": cases, "cvals": list(CVALS), "seed": seed,
            "max_residual": max(c["max_residual"] for c in cases),
            "max_c_spread": max(c["max_c_spread"] for c in cases)}


def divergence_suite(samples=20, seed=7):
    """Divergence identities on the analytic manifolds plus div P1 = 0 on
    umbilic hypersurfaces in space forms, each at ``samples`` points."""
    out = {"manifolds": {}, "div_p1": {}}
    for mname, m in _suite_manifolds():
        out["manifolds"][mname] = geom.divergence_identity_suite(
            m, samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    for sname in ("sphere:r=1", "geodesic-sphere:kappa=1,alpha=2"):
        hs = hyp.parse_surface(sname)
        man = hyp.induced_metric_manifold(hs)
        U = hs.sample_points(samples, rng)
        d = geom.tensor_divergence(geom.point_geometry(man.chart(), U),
                                   hyp.newton1_field(hs))
        out["div_p1"][sname] = float(np.max(np.abs(d)))
    defects = []
    for rep in out["manifolds"].values():
        defects.extend(v for k, v in rep.items()
                       if k.startswith("item") and isinstance(v, float))
    defects.extend(out["div_p1"].values())
    out["max_defect"] = max(defects)
    return out


def fd_order_study(samples=10, seed=7):
    """Divergence-identity defects at the two FD_STEPS on the perturbed
    3-torus (in 2 dimensions the Einstein tensor vanishes identically, so
    3 dimensions are needed for a nontrivial truncation error); central
    differences halve the step -> defect ratio ~ 4."""
    reports = []
    for h in FD_STEPS:
        m = geom.perturbed_torus(3)
        rep = geom.divergence_identity_suite(m, samples=samples, seed=seed,
                                             fd_step=h)
        reports.append({"fd_step": h, "report": rep})
    key = "item2_div_einstein"
    r0, r1 = reports[0]["report"][key], reports[1]["report"][key]
    ratio = r0 / max(r1, 1e-300)
    order = float(np.log(ratio) / np.log(FD_STEPS[0] / FD_STEPS[1]))
    return {"levels": reports, "order_key": key, "observed_order": order}


def sphere_equality_suite():
    """Analytic equality cases of both bounds."""
    results = []
    for n in (4, 5, 6):
        mu = spec.analytic_sphere_spectrum(n, 1.0, spec.OP_SCHOUTEN, 1)[0]
        bound = bd.schouten_bound(n, n * (n - 1), 1.0, n - 1)
        results.append({"case": "schouten-S%d" % n, "mu1": mu,
                        "bound": bound,
                        "verdict": bd.compare(bound, mu).verdict})
    for (n, kappa, alpha) in [(2, 0.0, 1.0), (2, 0.0, 2.0), (3, 1.0, 1.0),
                              (2, -1.0, 2.0)]:
        mu = spec.analytic_sphere_spectrum(n, 1.0, spec.OP_NEWTON_L1, 1,
                                           alpha=alpha, kappa=kappa)[0]
        bound = bd.newton_bound(n, kappa, alpha, 1.0, 0.0)
        results.append({"case": "newton-n%d-k%g-a%g" % (n, kappa, alpha),
                        "mu1": mu, "bound": bound,
                        "verdict": bd.compare(bound, mu).verdict})
    ok = all(r["verdict"] == bd.VERDICT_EQUALITY for r in results)
    return {"results": results, "all_equality": ok}


def ellipsoid_compare(semiaxes=(1.0, 1.0, 1.1), subdivs=DEFAULT_SUBDIVS,
                      seed=42):
    """FEM mu1(L1) on the ellipsoid against the bound from its pinching
    constants, those sampled named in ``pinching["sampled"]``; refinement
    across the given subdivision levels, at least two, which must increase.

    The scheme is O(h^2) and h halves per subdivision, so with d the last
    step in subdivisions the last difference over 4^d - 1 estimates the
    finest level's discretization error; every level's verdict is taken
    against that estimate.  ``extrapolated_mu1`` is the Richardson value
    from the last two levels.  ``observed_order`` is
    log2(|mu_-2 - mu_-3| / |mu_-1 - mu_-2|) / d from the last three
    levels, or None unless they are evenly spaced with distinct mu1.

    The levels' meshes come from one ``icosphere`` sweep on the semiaxes.
    Each level after the first starts its solve from the level below's
    eigenvector, carried up by setting each new vertex to the mean of its
    midpoint parents, one subdivision step at a time; every level reports
    its mesh's mean edge length ``h`` and its solve's ``iterations`` and
    ``start_modes`` (0 on the first, 1 after it)."""
    if len(subdivs) < 2:
        raise ConfigError("a refinement study needs at least two "
                          "subdivision levels, got %r" % (tuple(subdivs),))
    ax = [float(v) for v in semiaxes]
    pc = hyp.pinching_constants(ax, seed)
    bound = bd.newton_bound(2, 0.0, pc.alpha, pc.a, pc.sigma)
    meshes = dz.icosphere(subdivs, ax)
    levels = []
    mus = []
    u = None
    for sub, mesh in zip(subdivs, meshes):
        op = dz.assemble(mesh, dz.ellipsoid_newton1_coefficient(ax))
        if u is not None:   # the last rung's eigenvector, prolonged
            for a, b in mesh.parents[prev:]:
                u = np.concatenate([u, 0.5 * (u[a] + u[b])])
        r = spec.smallest_nonzero(op, k=1, seed=seed, start=u)
        u, prev = r.eigenvectors[:, 0], sub
        mus.append(r.mu1)
        levels.append({"subdiv": sub, "h": mesh.mean_edge,
                       "mu1": r.mu1, "residual": float(r.residuals[0]),
                       "iterations": r.diagnostics["iterations"],
                       "start_modes": r.diagnostics["start_modes"]})
    d = subdivs[-1] - subdivs[-2]
    step = (mus[-1] - mus[-2]) / (4.0 ** d - 1.0)
    err_est = abs(step)
    order = None
    if len(mus) > 2 and subdivs[-2] - subdivs[-3] == d:
        older, last = abs(mus[-2] - mus[-3]), abs(mus[-1] - mus[-2])
        if older > 0.0 and last > 0.0:
            order = math.log2(older / last) / d
    for lv in levels:
        rep = bd.compare(bound, lv["mu1"], err_est)
        lv.update(bound=bound, margin=rep.margin, verdict=rep.verdict)
    # rep is now the finest level's report
    sampled = [] if pc.constant_H else ["sigma"]
    return {"semiaxes": ax, "pinching": {**vars(pc), "sampled": sampled},
            "levels": levels, "error_estimate": err_est,
            "extrapolated_mu1": mus[-1] + step, "observed_order": order,
            "bound": bound, "vacuous": rep.vacuous,
            "mu1": mus[-1], "margin": rep.margin, "verdict": rep.verdict}


# ---------------------------------------------------------------------------
# suite runner

SUITE_NAMES = ("bochner", "divergence", "newton", "qa", "sphere-equality",
               "ellipsoid-compare")


CONFIG_DEFAULTS = {"solver": {"seed": str(DEFAULT_SEED)},
                   "suites": {"trials": str(TrialConfig.trials),
                              "samples": "200",
                              "subdivs": ",".join(map(str, DEFAULT_SUBDIVS))}}


def load_config(path=None):
    """Flat key = value config: the sections and keys of CONFIG_DEFAULTS,
    and nothing else."""
    cp = configparser.ConfigParser()
    cp.read_dict(CONFIG_DEFAULTS)
    if path is not None:
        if not cp.read(path):
            raise ConfigError("cannot read config file %r" % path)
        extra = [name for name in cp.sections() if name not in CONFIG_DEFAULTS]
        extra += ["[%s] %s" % (name, key) for name in CONFIG_DEFAULTS
                  for key in cp[name] if key not in CONFIG_DEFAULTS[name]]
        if extra:
            raise ConfigError("unknown config sections or keys: %s" % extra)
    _config_seed(cp)
    return cp


def _config_seed(cp):
    try:
        seed = cp.getint("solver", "seed")
    except ValueError as exc:
        raise ConfigError("bad [solver] seed: %s" % exc) from exc
    if seed < 0:
        raise ConfigError("[solver] seed must be non-negative, got %d" % seed)
    return seed


def run_suite(names, config=None):
    """Execute named suites; returns (exit_code, summary dict).  A
    ConfigError, in the config or a suite's inputs, returns EXIT_CONFIG."""
    try:
        cp = config if isinstance(config, configparser.ConfigParser) \
            else load_config(config)
        seed = _config_seed(cp)
        trials = cp.getint("suites", "trials")
        samples = cp.getint("suites", "samples")
        subdivs = tuple(int(s) for s in
                        cp.get("suites", "subdivs").split(",") if s.strip())
        names = list(names)
        bad = [n for n in names if n not in SUITE_NAMES]
        if bad:
            raise ConfigError("unknown suite(s): %s" % bad)
    except (ConfigError, ValueError) as exc:
        return EXIT_CONFIG, {"error": str(exc)}

    summary = {"suites": {}, "seed": seed}
    failures: List[str] = []
    code = EXIT_PASS
    for name in names:
        t0 = time.time()
        try:
            if name == "bochner":
                rep = bochner_suite(samples=samples, seed=seed)
                if rep["max_residual"] > RESIDUAL_TOL:
                    failures.append("bochner: max residual %g > %g"
                                    % (rep["max_residual"], RESIDUAL_TOL))
                if rep["max_c_spread"] > C_SPREAD_TOL:
                    failures.append("bochner: c spread %g > %g"
                                    % (rep["max_c_spread"], C_SPREAD_TOL))
                planted = {(c["manifold"], c["phi"]): c["planted"]
                           for c in rep["cases"]}
                for ctl, where in PLANTED_CASES.items():
                    for case in where:
                        if planted[case][ctl] <= RESIDUAL_TOL:
                            failures.append("bochner: planted %s on %s/%s "
                                            "NOT detected" % ((ctl,) + case))
            elif name == "divergence":
                rep = divergence_suite(seed=seed)
                if rep["max_defect"] > RESIDUAL_TOL:
                    failures.append("divergence: defect %g > %g"
                                    % (rep["max_defect"], RESIDUAL_TOL))
            elif name == "newton":
                rep = newton_inequality_trials(
                    TrialConfig(trials=trials, seed=seed))
                failures += trial_failures(name, rep)
                ctl = newton_inequality_trials(
                    TrialConfig(trials=min(trials, 2000), seed=seed),
                    planted=True)
                rep["planted_control"] = ctl
                failures += trial_failures(name, ctl, planted=True)
            elif name == "qa":
                rep = {sign: qa_bound_trials(
                    TrialConfig(trials=trials, seed=seed), kappa_sign=sign)
                    for sign in ("positive", "negative")}
                failures += trial_failures(name, rep)
                ctl = qa_bound_trials(TrialConfig(trials=min(trials, 2000),
                                                  seed=seed),
                                      kappa_sign="negative", planted=True)
                rep["planted_control"] = ctl
                failures += trial_failures(name, ctl, planted=True)
            elif name == "sphere-equality":
                rep = sphere_equality_suite()
                if not rep["all_equality"]:
                    failures.append("sphere-equality: non-equality verdict")
            elif name == "ellipsoid-compare":
                rep = ellipsoid_compare(subdivs=subdivs, seed=seed)
                if rep["verdict"] != bd.VERDICT_INEQUALITY:
                    failures.append("ellipsoid-compare: verdict %s"
                                    % rep["verdict"])
        except ConfigError as exc:
            return EXIT_CONFIG, {"error": "%s: %s" % (name, exc)}
        except SpectraError as exc:
            failures.append("%s: %s: %s" % (name, type(exc).__name__, exc))
            rep = {"error": str(exc), "error_type": type(exc).__name__}
            code = max(code, EXIT_NUMERICAL)
        rep = _jsonable(rep)
        rep["elapsed_s"] = round(time.time() - t0, 3)
        summary["suites"][name] = rep
    summary["failures"] = failures
    summary["pass"] = not failures
    if failures and code == EXIT_PASS:
        code = EXIT_ASSERTION
    return code, summary


def _jsonable(obj):
    return json.loads(json.dumps(obj, default=_json_default))


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError("not JSON serializable: %r" % type(o))
