"""Every import under src/ is used, every SpectraError subclass is raised
or caught, every public function is called outside the tests, every
private helper and constant is named, and every dataclass default is
overridden somewhere, as is every defaulted function parameter: AST scans
standing in for a linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
# the code that may call the package: itself and the benchmark
USERS = MODULES + sorted((ROOT / "specbench").rglob("*.py"))


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nimport numpy as np\nfrom typing import Dict\n"
                   "x: Dict = np.zeros(1)\n")
    assert unused_imports(mod) == [(1, "os")]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def unused_errors(paths):
    """SpectraError subclasses defined in ``paths`` that no ``raise`` or
    ``except`` there names."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    bases = {node.name: [_name(b) for b in node.bases]
             for node in nodes if isinstance(node, ast.ClassDef)}

    def is_error(name):
        return name == "SpectraError" or any(is_error(b)
                                             for b in bases.get(name, ()))

    named = set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            named.add(_name(exc.func if isinstance(exc, ast.Call) else exc))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type
            named.update(_name(t) for t in
                         (types.elts if isinstance(types, ast.Tuple)
                          else [types]))
    return sorted(name for name in bases if name != "SpectraError"
                  and is_error(name) and name not in named)


def test_every_error_is_raised_or_caught():
    assert unused_errors(MODULES) == []


def test_scan_finds_an_unused_error(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class SpectraError(Exception):\n    pass\n\n\n"
        "class Raised(SpectraError):\n    pass\n\n\n"
        "class Caught(Raised):\n    pass\n\n\n"
        "class Planted(Raised):\n    pass\n\n\n"
        "class Other(Exception):\n    pass\n")
    (tmp_path / "mod.py").write_text(
        "from . import errors\n\n\n"
        "def f():\n    try:\n        raise errors.Raised('x')\n"
        "    except (errors.Caught, KeyError):\n        pass\n")
    assert unused_errors(sorted(tmp_path.glob("*.py"))) == ["Planted"]


def public_defs(path):
    """Qualified names of the module-level functions and class methods of
    ``path`` whose names do not start with an underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in tree.body:
        if isinstance(node, funcs):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out.extend("%s.%s" % (node.name, f.name) for f in node.body
                       if isinstance(f, funcs))
    return [q for q in out if not q.rsplit(".", 1)[-1].startswith("_")]


def dead_api(defined, users):
    """'module.name' of each public function or method defined in
    ``defined`` whose name no attribute in ``users`` carries, nor, for a
    module-level function, any Name: a method or property is reached only
    through attribute access, so a local variable of the same name is no
    use of it."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in users]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attrs | {node.id for node in nodes if isinstance(node, ast.Name)}
    return sorted("%s.%s" % (path.stem, q) for path in defined
                  for q in public_defs(path)
                  if q.rsplit(".", 1)[-1] not in (attrs if "." in q
                                                  else names))


# Public API that only the tests call: the identity checks and oracles
# listed in ROADMAP 5(c), min_sectional, and fd_order_study, the one
# finite-difference cross-check of the divergence identities.
TEST_ONLY = [
    "boxop.divergence_form_defect", "boxop.hessian_trace_defect",
    "geometry.min_ricci", "geometry.min_sectional", "harness.fd_order_study",
]


def test_no_dead_public_api():
    assert dead_api(MODULES, USERS) == sorted(TEST_ONLY)


def test_scan_finds_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    pass\n\n\n"
        "def _private():\n    pass\n\n\n"
        "def planted():\n    return used()\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def run(self):\n        pass\n\n"
        "    def idle(self):\n        pass\n\n"
        "    @property\n    def total(self):\n        return 0\n")
    # a local variable named like the property is no use of it
    (tmp_path / "user.py").write_text(
        "from mod import C, used\n\nused()\nC().run()\ntotal = 1\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert dead_api([tmp_path / "mod.py"], paths) == ["mod.C.idle",
                                                      "mod.C.total",
                                                      "mod.planted"]


def orphans(defined, users):
    """'module.name' of each module-level private function and UPPER_CASE
    constant in ``defined`` that no Name or attribute read in ``users``
    carries."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in users]
    read = {_name(node) for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)}
    out = []
    for path in defined:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name) and t.id.isupper()]
            out += ["%s.%s" % (path.stem, n) for n in names if n not in read]
    return sorted(out)


def test_no_orphaned_helpers_or_constants():
    assert orphans(MODULES, USERS) == []


def test_scan_finds_an_orphan(tmp_path):
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\nLO, HI = 0, 1\nSTALE: int = 2\n_cache = {}\n\n\n"
        "def _used():\n    return LIMIT\n\n\n"
        "def _planted():\n    pass\n\n\n"
        "def __getattr__(name):\n    pass\n\n\n"
        "def public():\n    return _used()\n")
    (tmp_path / "user.py").write_text(
        "import mod\n\nSTALE = mod.HI\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert orphans([tmp_path / "mod.py"], paths) == [
        "mod.LO", "mod.STALE", "mod._planted"]


def _is_dataclass(node):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def unset_defaults(defined, users):
    """'module.Class.field' of each dataclass field in ``defined`` with a
    default that no call in ``users`` passes: by keyword, by position, or
    as a keyword of ``replace``.  A ``*`` or ``**`` argument passes every
    field it could reach."""
    fields = {}            # class name -> [(field, has default, module)]
    for path in defined:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields[node.name] = [
                    (f.target.id, f.value is not None, path.stem)
                    for f in node.body if isinstance(f, ast.AnnAssign)
                    and isinstance(f.target, ast.Name)]
    passed = set()         # (class name or None for replace, field)
    for path in users:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee = _name(node.func)
            cls = None if callee == "replace" else callee
            if cls is not None and cls not in fields:
                continue
            keys = {k.arg for k in node.keywords}
            if cls is not None:
                npos = (len(fields[cls]) if any(isinstance(a, ast.Starred)
                                                for a in node.args)
                        else len(node.args))
                keys.update(f for f, _, _ in fields[cls][:npos])
                if None in keys:                          # **kwargs
                    keys.update(f for f, _, _ in fields[cls])
            passed.update((cls, k) for k in keys)
    return sorted("%s.%s.%s" % (mod, cls, f)
                  for cls, entries in fields.items()
                  for f, default, mod in entries
                  if default and (cls, f) not in passed
                  and (None, f) not in passed)


# Dataclass defaults that nothing overrides; each entry needs a reason.
UNSET_ALLOWED = []


def test_no_unset_dataclass_defaults():
    assert unset_defaults(MODULES, USERS) == sorted(UNSET_ALLOWED)


def _defaulted(func, method):
    """Names of the parameters of ``func`` that have defaults, and of its
    positional parameters in order, ``self`` dropped from a method's."""
    a = func.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    named = positional[len(positional) - len(a.defaults):]
    named += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return named, positional[1:] if method else positional


def unset_parameters(defined, users, skip=()):
    """'module.function.parameter' (a method with its class) of each
    defaulted parameter of a function in ``defined``, ``skip`` aside, that
    no call in ``users`` passes: by keyword, by position, or through a
    ``*`` or ``**`` argument.  A function whose name appears anywhere but
    as the thing called may be called from anywhere, so it counts as
    passed every parameter."""
    funcs = {}             # name -> [(qualified name, defaulted, positional)]
    for path in defined:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {f: c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                qual = ".".join([path.stem] + ([owner[node]] if node in owner
                                               else []) + [node.name])
                if qual[len(path.stem) + 1:] in skip:
                    continue
                name = (owner[node] if node.name == "__init__"
                        and node in owner else node.name)   # a constructor
                funcs.setdefault(name, []).append(
                    (qual, *_defaulted(node, node in owner)))
    passed, referenced = set(), set()
    for path in users:
        tree = ast.parse(path.read_text(), filename=str(path))
        callees = {id(n.func) for n in ast.walk(tree)
                   if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and id(node) not in callees:
                referenced.add(_name(node))
            if not isinstance(node, ast.Call):
                continue
            for qual, named, positional in funcs.get(_name(node.func), ()):
                keys = {k.arg for k in node.keywords}
                keys.update(positional[:len(node.args)])
                if None in keys or any(isinstance(a, ast.Starred)
                                       for a in node.args):
                    keys.update(named)
                passed.update((qual, k) for k in keys)
    return sorted("%s.%s" % (qual, k) for name, entries in funcs.items()
                  if name not in referenced
                  for qual, named, _ in entries for k in named
                  if (qual, k) not in passed)


# Defaulted parameters that no call in the package or the benchmark sets,
# each with its reason.
UNSET_PARAMETERS_ALLOWED = [
    # the console script calls main() with no argument; the tests pass argv
    "cli.main.argv",
    # run_suite takes the default; the acceptance tests run 25 points
    "harness.divergence_suite.samples",
]


def test_no_unset_parameters():
    skip = [q.split(".", 1)[1] for q in TEST_ONLY]
    assert unset_parameters(MODULES, USERS, skip) == sorted(
        UNSET_PARAMETERS_ALLOWED)


def test_scan_finds_an_unset_parameter(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
        "def g(x=0, y=1):\n    pass\n\n\n"
        "def h(x=0):\n    pass\n\n\n"
        "def spread(x=0, y=1):\n    pass\n\n\n"
        "def skipped(x=0):\n    pass\n\n\n"
        "class C:\n    def __init__(self, x=0, y=1):\n        pass\n\n"
        "    def m(self, x=0, y=1):\n        pass\n")
    (tmp_path / "user.py").write_text(
        "from mod import C, f, g, h, spread, skipped\n\n"
        "f(0, 5, e=1)\nC(y=2).m(2)\nspread(*[1])\nspread(**{})\n"
        "BUILDERS = {'g': g}\nh()\nskipped()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unset_parameters([tmp_path / "mod.py"], paths, ["skipped"]) == [
        "mod.C.__init__.x", "mod.C.m.y", "mod.f.c", "mod.f.d", "mod.h.x"]


def test_scan_finds_an_unset_default(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass, field, replace\n\n\n"
        "@dataclass(frozen=True)\n"
        "class C:\n    a: int\n    b: int = 1\n    c: int = 2\n"
        "    d: bool = True\n    e: list = field(default_factory=list)\n"
        "    f: int = 3\n\n\n"
        "@dataclass\nclass Plain:\n    g: int = 0\n\n\n"
        "class NotData:\n    h: int = 0\n")
    (tmp_path / "user.py").write_text(
        "from mod import C, Plain, NotData, replace\n\n"
        "x = C(0, 5, e=[])\nreplace(x, f=4)\nC(a=1, c=2)\n"
        "Plain(d=False)\nNotData()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unset_defaults([tmp_path / "mod.py"], paths) == ["mod.C.d",
                                                           "mod.Plain.g"]
