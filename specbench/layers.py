"""Per-layer metrics: which spans they read and which workloads they move.

Layers are the package's modules.  Every public function of each module is
wrapped (see tracer.py), plus ``SurfaceMesh.validate`` and scipy's
``eigsh`` at the name ``spectral`` calls it by.  A metric is per pass:
times are self time unless the ``stat`` says ``total``; ``exact`` metrics
are counts, identical in every traced pass of a seed.

``moves`` names the workloads whose ``wall_rel`` the metric should move when
that layer gets faster; ``flat`` names those where it should not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from tracer import public_functions

PACKAGE_LAYERS = ("geometry", "hypersurface", "boxop", "discretize",
                  "spectral", "bounds", "harness")

ALL = ("sphere-l1", "torus3-grid", "bochner-points", "prop-trials")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    stat: str           # how the value is read from one pass's spans
    span: str           # span the value reads
    moves: Tuple[str, ...]
    flat: Tuple[str, ...]
    exact: bool = False
    per: str = ""       # divisor span (calls) or counter, for per-unit stats


def _m(name, unit, stat, span, moves, flat, per="", exact=None):
    if exact is None:
        exact = unit == "count"
    return LayerMetric(name, unit, stat, span, tuple(moves), tuple(flat),
                       exact, per)


MESH = ("sphere-l1", "torus3-grid")
POINTWISE = ("bochner-points", "prop-trials")

METRICS = (
    _m("discretize.icosphere.s", "s", "self_s", "discretize.icosphere",
       ["sphere-l1"], ["torus3-grid"] + list(POINTWISE)),
    _m("discretize.validate.s", "s", "self_s", "discretize.validate",
       ["sphere-l1"], ["torus3-grid"] + list(POINTWISE)),
    _m("discretize.assemble.s", "s", "self_s", "discretize.assemble",
       MESH, POINTWISE),
    _m("discretize.assemble.us_per_element", "us", "self_us_per",
       "discretize.assemble", MESH, POINTWISE,
       per="discretize.assemble.elements"),
    _m("discretize.assemble.elements", "count", "counter",
       "discretize.assemble.elements", MESH, POINTWISE),
    _m("discretize.assemble.nnz", "count", "counter",
       "discretize.assemble.nnz", MESH, POINTWISE),
    _m("spectral.smallest_nonzero.s", "s", "total_s",
       "spectral.smallest_nonzero", ["torus3-grid"],
       ["sphere-l1"] + list(POINTWISE)),
    _m("spectral.eigsh.s", "s", "self_s", "spectral.eigsh", ["torus3-grid"],
       ["sphere-l1"] + list(POINTWISE)),
    _m("spectral.size", "count", "counter", "spectral.size", ["torus3-grid"],
       ["sphere-l1"] + list(POINTWISE)),
    _m("geometry.scalar_jets.s", "s", "self_s", "geometry.scalar_jets",
       ["bochner-points"], MESH + ("prop-trials",)),
    _m("geometry.tensor_jets.s", "s", "self_s", "geometry.tensor_jets",
       ["bochner-points"], MESH + ("prop-trials",)),
    _m("geometry.curvature_at.s", "s", "self_s", "geometry.curvature_at",
       ["bochner-points"], MESH + ("prop-trials",)),
    _m("geometry.metric_jets.per_residual", "ratio", "calls_per",
       "geometry.metric_jets", ["bochner-points"], MESH + ("prop-trials",),
       per="boxop.bochner_residual", exact=True),
    _m("geometry.christoffel_derivative.calls", "count", "calls",
       "geometry.christoffel_derivative", ["bochner-points"],
       MESH + ("prop-trials",)),
    _m("boxop.bochner_residual.calls", "count", "calls",
       "boxop.bochner_residual", ["bochner-points"],
       MESH + ("prop-trials",)),
    _m("boxop.bochner_residual.self_us", "us", "self_us_per_call",
       "boxop.bochner_residual", ["bochner-points"],
       MESH + ("prop-trials",)),
    _m("hypersurface.q_polynomial.calls", "count", "calls",
       "hypersurface.q_polynomial", ["prop-trials"],
       ("torus3-grid", "bochner-points")),
    _m("hypersurface.q_polynomial.us", "us", "total_us_per_call",
       "hypersurface.q_polynomial", ["prop-trials"],
       ("torus3-grid", "bochner-points")),
    _m("hypersurface.pinching_constants.s", "s", "self_s",
       "hypersurface.pinching_constants", ["sphere-l1"],
       ("torus3-grid", "bochner-points")),
    _m("harness.newton_inequality_trials.us_per_trial", "us", "self_us_per",
       "harness.newton_inequality_trials", ["prop-trials"], MESH,
       per="harness.newton_inequality_trials.trials"),
    _m("harness.qa_bound_trials.self_us_per_trial", "us", "self_us_per",
       "harness.qa_bound_trials", ["prop-trials"], MESH,
       per="harness.qa_bound_trials.trials"),
    _m("harness.bochner_suite.self_s", "s", "self_s", "harness.bochner_suite",
       ["bochner-points"], MESH + ("prop-trials",)),
    _m("bounds.compare.calls", "count", "calls", "bounds.compare", [], ALL),
)

# traced / untraced pass time minus 1, from wall_rel of alternating passes
OVERHEAD = LayerMetric("trace.overhead_rel", "ratio", "overhead", "", (),
                       ALL)


def _assemble_counts(args, kwargs, result):
    domain = args[0] if args else kwargs["domain"]
    cells = getattr(domain, "num_faces", None)
    if cells is None:
        cells = domain.num_nodes   # a periodic grid has one cell per node
    return {"discretize.assemble.elements": cells,
            "discretize.assemble.nnz": result.K.nnz}


def _trials(key):
    def count(args, kwargs, result):
        return {key: result["trials"]}
    return count


COUNTERS = {
    "discretize.assemble": _assemble_counts,
    "spectral.smallest_nonzero":
        lambda args, kwargs, result: {"spectral.size":
                                      result.diagnostics["size"]},
    "harness.newton_inequality_trials":
        _trials("harness.newton_inequality_trials.trials"),
    "harness.qa_bound_trials": _trials("harness.qa_bound_trials.trials"),
}


def targets(modules, surface_mesh, spectral_linalg):
    """Wrap targets: public functions of each layer module, the mesh
    validator and the eigensolver entry point ``spectral`` calls."""
    out = []
    for layer, module in zip(PACKAGE_LAYERS, modules):
        out += [(module, name, "%s.%s" % (layer, name))
                for module, name in public_functions(module)]
    out.append((surface_mesh, "validate", "discretize.validate"))
    out.append((spectral_linalg, "eigsh", "spectral.eigsh"))
    return out


def pass_values(agg, counts):
    """Every metric of METRICS for one traced pass."""
    def get(span, key):
        return agg.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for m in METRICS:
        if m.stat in ("self_s", "total_s"):
            val = get(m.span, m.stat)
        elif m.stat == "calls":
            val = get(m.span, "calls")
        elif m.stat == "counter":
            val = counts.get(m.span, 0)
        elif m.stat == "calls_per":
            val = ratio(get(m.span, "calls"), get(m.per, "calls"))
        elif m.stat == "self_us_per":
            val = 1e6 * ratio(get(m.span, "self_s"), counts.get(m.per, 0))
        elif m.stat == "self_us_per_call":
            val = 1e6 * ratio(get(m.span, "self_s"), get(m.span, "calls"))
        elif m.stat == "total_us_per_call":
            val = 1e6 * ratio(get(m.span, "total_s"), get(m.span, "calls"))
        else:
            raise ValueError("unknown stat %r" % m.stat)
        out[m.name] = val
    return out
