"""The benchmark's tracer wraps functions by name: every target it builds
from the package, as its worker builds them, must name a function that
exists, or a traced run stops before its first pass."""

import importlib
import sys
from pathlib import Path

import pytest

from spectra_bochner import discretize as dz, spectral as spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "specbench"))
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def worker_targets():
    """``layers.targets`` over the package modules, built as the
    benchmark worker builds them for ``--trace 1``."""
    mods = {name: importlib.import_module("spectra_bochner." + name)
            for name in layers.PACKAGE_LAYERS}
    return layers.targets(mods.values(), mods["discretize"].SurfaceMesh,
                          mods["spectral"].spla)


def unresolved(targets):
    """Span names of the targets whose owner has no such function."""
    return [span for owner, attr, span in targets
            if not callable(getattr(owner, attr, None))]


def test_every_target_resolves():
    targets = worker_targets()
    spans = {span for _, _, span in targets}
    assert {"spectral.eigsh", "discretize.validate",
            "spectral.smallest_nonzero", "discretize.assemble"} <= spans
    assert unresolved(targets) == []
    before = [getattr(owner, attr) for owner, attr, _ in targets]
    with Tracer(targets, layers.COUNTERS):
        assert [getattr(owner, attr).__wrapped__
                for owner, attr, _ in targets] == before
    # leaving the tracer puts every original back
    assert [getattr(owner, attr) for owner, attr, _ in targets] == before


@pytest.mark.parametrize("owner,attr,span", [
    (spec.spla, "eigsh", "spectral.eigsh"),
    (dz.SurfaceMesh, "validate", "discretize.validate")])
def test_planted_missing_target(monkeypatch, owner, attr, span):
    monkeypatch.delattr(owner, attr)
    assert unresolved(worker_targets()) == [span]
