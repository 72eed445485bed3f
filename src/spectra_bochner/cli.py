"""Command line interface.

Subcommands: verify (pointwise identity residuals), eig (discrete
eigenvalues), bound (closed-form lower bounds), check (named verification
suites / mesh validation), proptest (randomized inequality trials), report
(bound-vs-eigenvalue comparison tables).  A request that would check
nothing, or not what it names, exits 2: newton1 and --subdiv need a
--surface, --resolution a --manifold.  A vacuous bound (<= 0) exits 1.

Exit codes: 0 pass, 1 assertion failure, 2 usage or config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bd
from . import boxop
from . import discretize as dz
from . import geometry as geom
from . import harness as hz
from . import hypersurface as hyp
from . import spectral as spec
from .errors import (ConfigError, NoConvergence, FactorizationFailure,
                     SpectraError)


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, default=hz._json_default))
    else:
        _pretty(payload)


def _pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print("%s%s:" % (pad, k))
                _pretty(v, indent + 1)
            else:
                print("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            _pretty(v, indent)
            if isinstance(v, dict):
                print()
    else:
        print("%s%s" % (pad, obj))


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    if args.target == "bochner":
        m = geom.parse_manifold(args.manifold)
        phi = hz._suite_phi(m, args.phi, seed=args.seed)
        f = hz._suite_test_function(m, seed=args.seed + 1)
        try:
            cvals = [geom.spec_float(c) for c in args.c.split(",")]
        except ValueError as exc:
            raise ConfigError("bad --c %r: %s" % (args.c, exc)) from exc
        rng = np.random.default_rng(args.seed)
        pts = m.sample_points(args.samples, rng)
        res, = boxop.bochner_residual(m, [phi], f, pts, cvals)
        rs = np.array([r.residual for r in res])
        worst = float(np.max(rs, initial=0.0))
        rows = [{"point": [round(float(x), 6) for x in p],
                 "residuals": rs[:, i].tolist()} for i, p in enumerate(pts)]
        payload = {"manifold": args.manifold, "phi": args.phi,
                   "cvals": cvals, "samples": args.samples,
                   "max_residual": worst,
                   "points": rows if args.full else rows[:5]}
        _emit(payload, args.json)
        return hz.EXIT_PASS if worst <= args.tol else hz.EXIT_ASSERTION
    if args.target == "divergence":
        m = geom.parse_manifold(args.manifold)
        rep = geom.divergence_identity_suite(m, samples=args.samples,
                                             seed=args.seed)
        _emit(rep, args.json)
        worst = max(v for k, v in rep.items()
                    if k.startswith("item") and isinstance(v, float))
        return hz.EXIT_PASS if worst <= args.tol else hz.EXIT_ASSERTION
    raise ConfigError("unknown verify target %r" % args.target)


# ---------------------------------------------------------------------------
# eig

def _mesh_semiaxes(spec):
    """Semiaxes of the surface a spec names, if it can be meshed."""
    ax = hyp.parse_surface(spec).semiaxes
    if ax is None:
        raise ConfigError("cannot mesh surface %r" % spec)
    return ax


EIG_SUBDIV, EIG_RESOLUTION = 4, 64   # eig's defaults


def _eig_domain(args):
    if sum(map(bool, (args.mesh, args.surface, args.manifold))) != 1:
        raise ConfigError("eig needs exactly one of --mesh, --surface, "
                          "--manifold")
    for opt, needs in (("subdiv", "surface"), ("resolution", "manifold")):
        if getattr(args, opt) is not None and not getattr(args, needs):
            raise ConfigError("--%s needs --%s" % (opt, needs))
    if args.operator == "newton1" and not args.surface:
        raise ConfigError("--operator newton1 needs --surface: an OFF mesh "
                          "or a grid has no analytic P1")
    if args.mesh:
        return dz.read_off(args.mesh), dz.metric_coefficient()
    if args.surface:
        ax = _mesh_semiaxes(args.surface)
        subdiv = EIG_SUBDIV if args.subdiv is None else args.subdiv
        return dz.icosphere(subdiv, ax), (
            dz.ellipsoid_newton1_coefficient(ax) if args.operator == "newton1"
            else dz.metric_coefficient())
    m = geom.parse_manifold(args.manifold)
    if m.atlas_kind != geom.ATLAS_PERIODIC_BOX:
        raise ConfigError("--manifold eig path supports tori only")
    chart = m.chart()
    res = EIG_RESOLUTION if args.resolution is None else args.resolution
    grid = dz.PeriodicGrid(lengths=chart.hi - chart.lo, shape=(res,) * m.dim,
                           metric=chart.metric.comp)
    return grid, dz.grid_metric_coefficient(grid)


def cmd_eig(args):
    domain, provider = _eig_domain(args)
    op = dz.assemble(domain, provider)
    result = spec.smallest_nonzero(op, k=args.k, tol=args.tol, seed=args.seed)
    payload = {"eigenvalues": result.eigenvalues.tolist(),
               "residuals": result.residuals.tolist(),
               "diagnostics": result.diagnostics}
    if isinstance(domain, dz.SurfaceMesh):
        payload["mesh"] = {"vertices": domain.num_vertices,
                           "faces": domain.num_faces,
                           "euler_characteristic":
                               domain.euler_characteristic,
                           "mean_edge_length": domain.mean_edge,
                           "total_area": domain.total_area()}
    _emit(payload, args.json)
    return hz.EXIT_PASS


# ---------------------------------------------------------------------------
# bound

def cmd_bound(args):
    if args.kind == "schouten":
        val = bd.schouten_bound(args.n, args.R, args.K0, args.L0)
        payload = {"bound": val, "n": args.n, "R": args.R,
                   "K0": args.K0, "L0": args.L0,
                   "gamma": bd.schouten_gamma(args.n, args.R, args.K0,
                                              args.L0)}
    else:
        val = bd.newton_bound(args.n, args.kappa, args.alpha, args.a,
                              args.sigma)
        payload = {"bound": val, "n": args.n, "kappa": args.kappa,
                   "alpha": args.alpha, "a": args.a, "sigma": args.sigma}
    _emit(payload, args.json)
    return hz.EXIT_PASS


# ---------------------------------------------------------------------------
# check

def cmd_check(args):
    if args.mesh and args.suites is not None:
        raise ConfigError("check takes --mesh or --suites, not both")
    if args.mesh:
        mesh = dz.read_off(args.mesh)  # validation happens on construction
        payload = {"mesh": args.mesh, "vertices": mesh.num_vertices,
                   "faces": mesh.num_faces, "edges": mesh.num_edges,
                   "euler_characteristic": mesh.euler_characteristic,
                   "genus": mesh.genus, "total_area": mesh.total_area(),
                   "valid": True}
        _emit(payload, args.json)
        return hz.EXIT_PASS
    names = [s for s in (args.suites or "").split(",") if s]
    if not names:
        raise ConfigError("check needs --mesh or a suite in --suites")
    cfg = hz.load_config(args.config)
    if args.seed is not None:
        cfg["solver"]["seed"] = str(args.seed)
    code, summary = hz.run_suite(names, cfg)
    _emit(summary, args.json)
    return code


# ---------------------------------------------------------------------------
# proptest

def cmd_proptest(args):
    cfg = hz.TrialConfig(trials=args.trials, seed=args.seed)
    if args.which == "newton":
        rep = hz.newton_inequality_trials(cfg, planted=args.planted)
    else:
        rep = {sign: hz.qa_bound_trials(cfg, kappa_sign=sign,
                                        planted=args.planted)
               for sign in ("positive", "negative")}
    _emit(rep, args.json)
    failed = hz.trial_failures(args.which, rep, args.planted)
    return hz.EXIT_ASSERTION if failed else hz.EXIT_PASS


# ---------------------------------------------------------------------------
# report

def _parse_refine(txt):
    """Subdivision levels from 'lo..hi' or a comma list."""
    try:
        if ".." in txt:
            lo, hi = txt.split("..")
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(s) for s in txt.split(","))
    except ValueError as exc:
        raise ConfigError("bad --refine %r: %s" % (txt, exc)) from exc


def cmd_report(args):
    rep = hz.ellipsoid_compare(_mesh_semiaxes(args.surface),
                               _parse_refine(args.refine), args.seed)
    if args.json:
        _emit(rep, True)
    else:
        print("h,mu1,bound,margin,verdict")
        for lv in rep["levels"]:
            print("%.6g,%.10g,%.10g,%.10g,%s"
                  % (lv["h"], lv["mu1"], lv["bound"], lv["margin"],
                     lv["verdict"]))
        order = rep["observed_order"]
        print("extrapolated_mu1: %.10g, observed_order: %s"
              % (rep["extrapolated_mu1"],
                 "none" if order is None else "%.4g" % order),
              file=sys.stderr)
    if rep["vacuous"]:
        print(hz.VACUOUS_FAILURE % rep["bound"], file=sys.stderr)
        return hz.EXIT_ASSERTION
    return hz.EXIT_PASS if rep["verdict"] in (bd.VERDICT_INEQUALITY,
                                              bd.VERDICT_EQUALITY) \
        else hz.EXIT_ASSERTION


# ---------------------------------------------------------------------------
# parser

def build_parser():
    ap = argparse.ArgumentParser(
        prog="spectra-bochner",
        description="Curvature identities, eigenvalue bounds, and discrete "
                    "spectra of tensor-coefficient elliptic operators.")
    ap.add_argument("--config", default=None, help="config file path")
    ap.add_argument("--seed", type=int, default=None,
                    help="random seed (default: the config's [solver] seed "
                         "for check, else %d)" % hz.DEFAULT_SEED)
    ap.add_argument("--json", action="store_true", help="JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="pointwise identity residuals")
    v.add_argument("target", choices=["bochner", "divergence"])
    v.add_argument("--manifold", default="torus2:L=6.283185307179586")
    v.add_argument("--phi", default="metric",
                   choices=["metric", "schouten", "random-spd"])
    v.add_argument("--c", default=",".join("%g" % c for c in hz.CVALS))
    v.add_argument("--samples", type=int, default=50)
    v.add_argument("--tol", type=float, default=hz.RESIDUAL_TOL)
    v.add_argument("--full", action="store_true")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("eig", help="smallest nonzero eigenvalues")
    e.add_argument("--mesh", default=None, help="OFF file")
    e.add_argument("--surface", default=None, help="e.g. sphere:r=1")
    e.add_argument("--manifold", default=None, help="e.g. torus2:L=6.28...")
    e.add_argument("--operator", default="laplacian",
                   choices=["laplacian", "newton1"])
    e.add_argument("--subdiv", type=int, help="default %d" % EIG_SUBDIV)
    e.add_argument("--resolution", type=int,
                   help="default %d" % EIG_RESOLUTION)
    e.add_argument("--k", type=int, default=1)
    e.add_argument("--tol", type=float, default=1e-9)
    e.set_defaults(func=cmd_eig)

    b = sub.add_parser("bound", help="closed-form eigenvalue lower bounds")
    bsub = b.add_subparsers(dest="kind", required=True)
    bs = bsub.add_parser("schouten")
    bs.add_argument("--n", type=int, required=True)
    bs.add_argument("--R", type=float, required=True)
    bs.add_argument("--K0", type=float, required=True)
    bs.add_argument("--L0", type=float, required=True)
    bs.set_defaults(func=cmd_bound, kind="schouten")
    bl = bsub.add_parser("l1")
    bl.add_argument("--n", type=int, required=True)
    bl.add_argument("--kappa", type=float, required=True)
    bl.add_argument("--alpha", type=float, required=True)
    bl.add_argument("--a", type=float, required=True)
    bl.add_argument("--sigma", type=float, required=True)
    bl.set_defaults(func=cmd_bound, kind="l1")

    c = sub.add_parser("check", help="run verification suites / validate "
                                     "meshes")
    c.add_argument("--suites", default=None,
                   help="comma list from: %s" % ",".join(hz.SUITE_NAMES))
    c.add_argument("--mesh", default=None, help="OFF file to validate")
    c.set_defaults(func=cmd_check)

    p = sub.add_parser("proptest", help="randomized inequality trials")
    p.add_argument("which", choices=["newton", "qa"])
    p.add_argument("--trials", type=int, default=hz.TrialConfig.trials)
    p.add_argument("--planted", action="store_true",
                   help="plant violations (negative control)")
    p.set_defaults(func=cmd_proptest)

    r = sub.add_parser("report", help="bound vs eigenvalue comparison")
    r.add_argument("target", choices=["compare"])
    r.add_argument("--surface", default="ellipsoid:" + ",".join(
        "%g" % v for v in hz.SUITE_SEMIAXES))
    r.add_argument("--refine", default=",".join(map(str, hz.DEFAULT_SUBDIVS)),
                   help="e.g. 3..6 or 4,5")
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.seed is None:
            # check takes the config's seed, which defaults to DEFAULT_SEED
            if args.command != "check":
                args.seed = hz.DEFAULT_SEED
        elif args.seed < 0:
            raise ConfigError("--seed must be non-negative, got %d"
                              % args.seed)
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return hz.EXIT_CONFIG
    except (NoConvergence, FactorizationFailure) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return hz.EXIT_NUMERICAL
    except SpectraError as exc:
        print("failure: %s" % exc, file=sys.stderr)
        return hz.EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
