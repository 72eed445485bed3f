"""The command-line scripts under scripts/, run through their ``main``."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sphere_convergence_extrapolates_across_skipped_levels(
        monkeypatch, capsys):
    # levels 1 and 3 are two halvings of h apart: the O(h^2) error falls
    # by 16, so Richardson divides by 15, not 3
    mod = load("sphere_convergence")
    monkeypatch.setattr(sys, "argv", ["sphere_convergence.py",
                                      "--levels", "1", "3"])
    mod.main()
    out = capsys.readouterr().out
    extrap = float(re.search(r"Richardson extrapolation: (\S+)", out)[1])
    assert abs(extrap - 2.0) < 1e-3


def test_sphere_convergence_rejects_repeated_levels(monkeypatch):
    mod = load("sphere_convergence")
    monkeypatch.setattr(sys, "argv", ["sphere_convergence.py",
                                      "--levels", "2", "2"])
    with pytest.raises(SystemExit) as exc:
        mod.main()
    assert exc.value.code == 2
