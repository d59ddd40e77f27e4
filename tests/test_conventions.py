"""Package-wide conventions.

* One scalar/array return convention: ``numerics.like_input`` gives a Python
  scalar for a 0-d input and the array otherwise.
* One JSON rule, ``numerics.jsonable``, and one output path: only
  ``curve_io`` writes files, JSON, CSV or stdout.
* scipy loads on first gaussian use: the one scipy import in ``src/`` is
  inside ``densities._scipy_special``, and a fresh process that evaluates
  no gaussian leaves scipy out of ``sys.modules``.
* One way to read a caller's number: only ``numerics`` casts a public
  function's own parameter, and a fuzz table gives every public callable
  that takes numbers complex, string, nan and bool inputs.
* Every public name resolves: everything in ``zonoid_lab.__all__``, every
  function the benchmark's tracer patches by name (``_TARGETS`` in
  ``perfbench/spans.py``), and every ``zonoid_lab`` attribute the benchmark
  workloads use, with every keyword they pass.  The benchmark files are read
  as text, so nothing under ``perfbench/`` is imported or written.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zonoid_lab
from zonoid_lab.numerics import jsonable, like_input

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def test_like_input_scalar_for_0d_input():
    out = like_input(np.array([0.25]), 3.0)
    assert type(out) is float and out == 0.25
    out = like_input(np.array(True), np.float64(1.0))
    assert type(out) is bool and out is True
    out = like_input(np.float64(-1.5), np.array(2.0))
    assert type(out) is float and out == -1.5


def test_like_input_array_for_array_input():
    arr = np.array([0.25])
    assert like_input(arr, np.array([3.0])) is arr
    arr = np.array([1.0, 2.0])
    assert like_input(arr, [0.0, 1.0]) is arr


@dataclasses.dataclass
class _Inner:
    witness: tuple
    value: float


@dataclasses.dataclass
class _Outer:
    values: np.ndarray
    inner: _Inner
    flag: np.bool_
    count: int = 2


def test_jsonable_rule():
    out = jsonable(_Outer(np.array([1.5, np.nan]), _Inner((1.0, 2.0), np.float64("nan")),
                          np.bool_(True)))
    assert out == {"values": [1.5, None], "inner": {"witness": [1.0, 2.0], "value": None},
                   "flag": True, "count": 2}
    assert list(out) == ["values", "inner", "flag", "count"]  # declaration order
    assert type(out["flag"]) is bool and type(out["inner"]["witness"][0]) is float
    assert jsonable(np.array(2.5)) == 2.5 and type(jsonable(np.array(2.5))) is float
    assert jsonable({"a": (np.int64(1), "s", None)}) == {"a": [1, "s", None]}
    assert jsonable(np.zeros((2, 1))) == [[0.0], [0.0]]


def test_public_names_resolve():
    missing = [name for name in zonoid_lab.__all__ if not hasattr(zonoid_lab, name)]
    assert missing == []


def _traced_targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no _TARGETS list in perfbench/spans.py")


def test_traced_targets_resolve():
    targets = _traced_targets()
    assert targets
    for module, attr in targets:
        obj = importlib.import_module("zonoid_lab." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def _chain(node):
    """("mod", "attr", ...) for a pure attribute chain mod.attr..., else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    return (node.id,) + tuple(reversed(parts))


def _workload_api_use():
    """The zonoid_lab attribute chains perfbench/workloads.py reads, and the
    keyword names of the calls it makes through them."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "zonoid_lab"
               for alias in node.names}
    chains, keywords = set(), set()
    for node in ast.walk(tree):
        chain = _chain(node)
        if chain and chain[0] in modules:
            chains.add(chain)
        if isinstance(node, ast.Call):
            chain = _chain(node.func)
            if chain and chain[0] in modules:
                keywords.update((chain, kw.arg) for kw in node.keywords if kw.arg)
    return chains, keywords


def _resolve(chain):
    obj = importlib.import_module("zonoid_lab." + chain[0])
    for part in chain[1:]:
        obj = getattr(obj, part)
    return obj


def test_workload_api_use_resolves():
    chains, keywords = _workload_api_use()
    assert len(chains) > 20 and keywords
    missing = []
    for chain in sorted(chains):
        try:
            _resolve(chain)
        except AttributeError:
            missing.append(".".join(chain))
    assert missing == []
    unknown = []
    for chain, name in sorted(keywords):
        params = inspect.signature(_resolve(chain)).parameters
        if name not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append(f"{'.'.join(chain)}({name}=...)")
    assert unknown == []


# ---------------------------------------------------------------------------
# One definition per input rule: only numerics checks grid order or the
# [0, 1] range of probabilities (``increasing_grid``, ``probabilities``)
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "zonoid_lab"


def _is_np_call(node, name):
    return isinstance(node, ast.Call) and _chain(node.func) == ("np", name)


def _is_const(node, value):
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


def _rule_breaches(source):
    """Line numbers where ``source`` compares np.diff(...) with 0, or tests
    one array with np.isnan, < 0.0 and > 1.0, or with >= 0.0 and <= 1.0, in
    one boolean expression."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            if (any(_is_np_call(o, "diff") for o in operands)
                    and any(_is_const(o, 0) for o in operands)):
                lines.add(node.lineno)
        if isinstance(node, ast.BoolOp) or (isinstance(node, ast.BinOp)
                                            and isinstance(node.op, (ast.BitOr, ast.BitAnd))):
            nan, below, above, at_least, at_most = set(), set(), set(), set(), set()
            for sub in ast.walk(node):
                if _is_np_call(sub, "isnan") and sub.args:
                    nan.add(ast.dump(sub.args[0]))
                if isinstance(sub, ast.Compare) and len(sub.ops) == 1:
                    left, op, right = sub.left, sub.ops[0], sub.comparators[0]
                    for kind, value, found in ((ast.Lt, 0, below), (ast.Gt, 1, above),
                                               (ast.GtE, 0, at_least), (ast.LtE, 1, at_most)):
                        if isinstance(op, kind) and _is_const(right, value):
                            found.add(ast.dump(left))
            if nan & below & above or at_least & at_most:
                lines.add(node.lineno)
    return sorted(lines)


def test_rule_guard_sees_both_rules():
    assert _rule_breaches("if np.any(np.diff(x) <= 0.0): pass") == [1]
    assert _rule_breaches("ok = 0 < np.diff(x)") == [1]
    assert _rule_breaches("bad = np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0)") == [1]
    assert _rule_breaches("bad = np.isnan(q) | (q < 0.0) | (q > 1.0)") == [1]
    assert _rule_breaches("bad = np.any(np.isnan(p)) or np.any(q < 0.0) or np.any(p > 1.0)") == []
    assert _rule_breaches("gaps = np.diff(vals) > slack") == []


def test_rule_guard_sees_the_interval_form():
    assert _rule_breaches("if not ((p >= 0.0) & (p <= 1.0)).all(): pass") == [1]
    assert _rule_breaches("ok = np.all((q >= 0) & (q <= 1))") == [1]
    assert _rule_breaches("ok = 0.0 <= p and p <= 1.0") == []  # a scalar's chained test
    assert _rule_breaches("ok = (p >= 0.0) & (q <= 1.0)") == []


def test_only_numerics_writes_the_grid_and_probability_rules():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaches = {path.name: _rule_breaches(path.read_text())
                for path in modules if path.name != "numerics.py"}
    assert {name: lines for name, lines in breaches.items() if lines} == {}


# ---------------------------------------------------------------------------
# One quadrature kernel and one minimiser, numerics.gauss_kronrod and
# numerics.golden_section_min: no scipy.integrate or scipy.optimize in src/
# ---------------------------------------------------------------------------

_KERNEL_MODULES = ("integrate", "optimize")


def _scipy_imports(source: str):
    """Line numbers of the imports of scipy.integrate or scipy.optimize, or
    of a submodule of either, in a module's source."""
    def banned(name):
        return any(name == f"scipy.{m}" or name.startswith(f"scipy.{m}.") for m in _KERNEL_MODULES)

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(banned(a.name) for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if banned(node.module) or (node.module == "scipy" and
                                       any(a.name in _KERNEL_MODULES for a in node.names)):
                lines.add(node.lineno)
    return sorted(lines)


def test_scipy_guard_sees_every_import_form():
    for m in _KERNEL_MODULES:
        assert _scipy_imports(f"import scipy.{m}") == [1]
        assert _scipy_imports(f"import scipy.{m} as si") == [1]
        assert _scipy_imports(f"from scipy import {m}") == [1]
        assert _scipy_imports(f"from scipy import special, {m}") == [1]
        assert _scipy_imports(f"from scipy.{m} import quad") == [1]
        assert _scipy_imports(f"from scipy.{m}.elementwise import find_minimum") == [1]
        assert _scipy_imports(f"def f():\n    from scipy import {m}\n") == [2]
        assert _scipy_imports(f"x = 'scipy.{m}'  # {m} the pieces") == []
    assert _scipy_imports("from scipy import special\nimport numpy as np") == []
    assert _scipy_imports("import scipy.optimizer\nfrom scipy import stats") == []


def test_no_module_imports_scipy_integrate_or_optimize():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaches = {path.name: _scipy_imports(path.read_text()) for path in modules}
    assert {name: lines for name, lines in breaches.items() if lines} == {}


# ---------------------------------------------------------------------------
# scipy on first gaussian use: the one scipy import in src/ is the function
# densities._scipy_special, so a process that evaluates no gaussian never
# loads scipy
# ---------------------------------------------------------------------------

def _scipy_import_sites(source: str):
    """(enclosing function or None, line) of each import of scipy or of a
    scipy submodule in a module's source; None for an import at module
    level, in a class body or under an ``if``."""
    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) and any(is_scipy(a.name) for a in child.names):
                sites.append((func, child.lineno))
            elif (isinstance(child, ast.ImportFrom) and not child.level and child.module
                  and is_scipy(child.module)):
                sites.append((func, child.lineno))
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else func)
            visit(child, inner)

    visit(ast.parse(source), None)
    return sites


def test_scipy_site_guard_sees_every_form():
    assert _scipy_import_sites("import scipy") == [(None, 1)]
    assert _scipy_import_sites("import numpy, scipy.special as sp") == [(None, 1)]
    assert _scipy_import_sites("from scipy import special") == [(None, 1)]
    assert _scipy_import_sites("from scipy.special import ndtr") == [(None, 1)]
    assert _scipy_import_sites("if True:\n    import scipy\n") == [(None, 2)]
    assert _scipy_import_sites("class A:\n    from scipy import stats\n") == [(None, 2)]
    assert _scipy_import_sites("def f():\n    from scipy import special\n") == [("f", 2)]
    assert _scipy_import_sites("def f():\n    def g():\n        import scipy\n") == [("g", 3)]
    assert _scipy_import_sites("import scipyx\nfrom .scipy import a\nx = 'scipy'") == []


def test_the_one_scipy_import_is_the_gaussian_accessor():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    sites = {(path.name, func) for path in modules
             for func, _ in _scipy_import_sites(path.read_text())}
    assert sites == {("densities.py", "_scipy_special")}


# the seven cli-batch calls that evaluate no gaussian, plus a logistic family
# price; then one gaussian cdf
_NO_GAUSSIAN_RUN = """
import contextlib, io, sys
from zonoid_lab import cli
from zonoid_lab.densities import DensityModel
from zonoid_lab.pricing import family_prices
family_prices("geometric", DensityModel.logistic(), 1.2, 0.6, [0.8, 1.0, 1.3])
path = sys.argv[1]
runs = [
    ["price", "--family=linear", "--density=logistic", "--s0=0.2", "--sigma=0.6", "--t=1.5",
     "--k-grid=-1:1:21"],
    ["boundary", "--family=linear", "--density=logistic", "--s0=0.2", "--sigma=0.6", "--t=1.5",
     "--out=" + path],
    ["calls", "--boundary=" + path, "--mean=0.2", "--k-grid=-1:1:21"],
    ["boundary", "--family=linear", "--density=logistic", "--s0=0.2", "--sigma=0.6", "--t=1.5",
     "--format=json"],
    ["certify", "--family=geometric", "--density=logistic", "--s=1.2", "--y-kind=linear",
     "--y-scale=0.8"],
    ["certify", "--family=linear", "--density=cauchy", "--s=0.3"],
    ["implied", "--density=logistic", "--c=0.3", "--k=1.1"],
    ["density-check", "--density", "logistic"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, "scipy" in sys.modules)
DensityModel.gaussian().cdf(0.5)
print("scipy.special" in sys.modules)
"""


def test_no_gaussian_no_scipy(tmp_path):
    out = subprocess.run([sys.executable, "-c", _NO_GAUSSIAN_RUN, str(tmp_path / "b.csv")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[0, 0, 0, 0, 0, 2, 0, 0] False", "True"]


# ---------------------------------------------------------------------------
# One output path: only curve_io writes (json.dump, json.dumps, csv.writer,
# builtin open, sys.stdout.write); reading (json.loads, csv.reader) is free
# ---------------------------------------------------------------------------

_WRITERS = {"json.dump", "json.dumps", "csv.writer", "builtins.open", "sys.stdout.write"}


def _writer_calls(source: str):
    """Line numbers of the calls in a module's source that write output,
    through any import form or alias."""
    tree = ast.parse(source)
    names = {"open": "builtins.open"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        chain = (func.id,) if isinstance(func, ast.Name) else _chain(func)
        if chain and ".".join((names.get(chain[0], chain[0]),) + chain[1:]) in _WRITERS:
            lines.add(node.lineno)
    return sorted(lines)


def test_writer_guard_sees_every_form():
    assert _writer_calls("json.dump(x, fh)") == [1]
    assert _writer_calls("import json as j\ntext = j.dumps(x)") == [2]
    assert _writer_calls("from json import dump\ndump(x, fh)") == [2]
    assert _writer_calls("w = csv.writer(fh)") == [1]
    assert _writer_calls("from csv import writer as w\nw(fh).writerow(r)") == [2]
    assert _writer_calls("with open(path, 'w') as fh:\n    pass") == [1]
    assert _writer_calls("def f(path):\n    return open(path)") == [2]
    assert _writer_calls("sys.stdout.write(text)") == [1]
    assert _writer_calls("from sys import stdout\nstdout.write(text)") == [2]
    assert _writer_calls("spec = json.loads(text)\nrows = csv.reader(fh)") == []
    assert _writer_calls("os.open(os.devnull, os.O_WRONLY)\nprint(m, file=sys.stderr)") == []
    assert _writer_calls("sys.stdout.flush()\nfh.write(text)") == []


def test_only_curve_io_writes():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaches = {path.name: _writer_calls(path.read_text())
                for path in modules if path.name != "curve_io.py"}
    assert {name: lines for name, lines in breaches.items() if lines} == {}
    assert _writer_calls((SRC / "curve_io.py").read_text())  # the guard sees the writers


# ---------------------------------------------------------------------------
# Evaluate, then select: outside the numerics kernels (whose solvers keep
# active-set updates) no module scatters into an array through a mask or an
# index array; it evaluates every element and picks with np.where
# ---------------------------------------------------------------------------

def _fixed_index(node):
    """A slice, an integer constant (negative allowed) or a string constant."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Slice) or (isinstance(node, ast.Constant)
                                           and type(node.value) in (int, str))


def _scatter_targets(source: str):
    """Line numbers of the assignments in ``source`` whose target is
    subscripted by anything but a fixed index."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and not _fixed_index(sub.slice):
                    lines.add(sub.lineno)
    return sorted(lines)


def test_scatter_guard_sees_every_form():
    assert _scatter_targets("out[mask] = s - k[mask]") == [1]
    assert _scatter_targets("out[~m] = 0.0") == [1]
    assert _scatter_targets("out[i] = 0.0") == [1]
    assert _scatter_targets("x.flat[at[done]] = a[done]") == [1]
    assert _scatter_targets("out[m] += 1.0") == [1]
    assert _scatter_targets("a, b[m] = 1.0, 2.0") == [1]
    assert _scatter_targets("out: np.ndarray\nout[m]: float = 0.0") == [2]
    assert _scatter_targets("def f(out, m):\n    out[m > 0] = 1.0\n") == [2]
    assert _scatter_targets("out[:k] = 0.0\na[-1] = 1.0\nd['key'] = v\nz[0::2] = base") == []
    assert _scatter_targets("b[1:], c[2] = x, y\nv = x[mask]\nout = np.where(m, a, b)") == []


def test_only_numerics_scatters_through_masks():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaches = {path.name: _scatter_targets(path.read_text())
                for path in modules if path.name != "numerics.py"}
    assert {name: lines for name, lines in breaches.items() if lines} == {}
    assert _scatter_targets((SRC / "numerics.py").read_text())  # the guard sees the kernels


# ---------------------------------------------------------------------------
# The peacock certificate reads its one boundary matrix in zonoid space:
# certify_peacock calls no conjugate transform back to call space
# ---------------------------------------------------------------------------

_CONJUGATES = {"legendre_min", "calls_from_upper_boundary", "call_surface"}


def _conjugate_calls(source: str, function: str = "certify_peacock"):
    """Line numbers of the calls, by bare name or as an attribute, of a
    conjugate transform inside ``function``'s body in a module's source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in _CONJUGATES:
                        lines.add(sub.lineno)
    return sorted(lines)


def test_conjugate_guard_sees_every_form():
    assert _conjugate_calls("def certify_peacock(s):\n    legendre_min(p, -r, k)") == [2]
    assert _conjugate_calls("def certify_peacock(s):\n    numerics.legendre_min(p, r, k)") == [2]
    assert _conjugate_calls("def certify_peacock(s):\n    zonoid.calls_from_upper_boundary(b)") == [2]
    assert _conjugate_calls("def certify_peacock(s):\n    def rows():\n"
                            "        return call_surface(s, t, k)\n") == [3]
    assert _conjugate_calls("def boundary_surface(s):\n    legendre_min(p, r, k)") == []
    assert _conjugate_calls("def certify_peacock(s):\n    boundary_surface(s, t, p)") == []


def test_certify_peacock_calls_no_conjugate_transform():
    source = (SRC / "peacocks.py").read_text()
    assert "def certify_peacock(" in source
    assert _conjugate_calls(source) == []


# ---------------------------------------------------------------------------
# The Monte Carlo blocks run in the package's own thread pool: mc calls no
# BLAS-backed routine, whose own threads would oversubscribe the pool
# ---------------------------------------------------------------------------

_BLAS = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


def _blas_calls(source: str):
    """Line numbers of the BLAS-backed calls in a module's source: np.dot,
    np.matmul, np.inner, np.vdot, np.tensordot, np.einsum, their array-method
    forms (x.dot(y)), anything under np.linalg, and the ``@`` operator."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute):
            chain = _chain(node)
            if node.attr in _BLAS or (chain and "linalg" in chain[1:]):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {a.name for a in node.names} if node.module == "numpy" else set()
            if node.module.startswith("numpy.linalg") or names & (_BLAS | {"linalg"}):
                lines.add(node.lineno)
    return sorted(lines)


def test_blas_guard_sees_every_form():
    assert _blas_calls("m2 = np.dot(d, d)") == [1]
    assert _blas_calls("m2 = d.dot(d)") == [1]
    assert _blas_calls("y = numpy.matmul(a, b)") == [1]
    assert _blas_calls("y = a @ b") == [1]
    assert _blas_calls("a @= b") == [1]
    assert _blas_calls("s = np.inner(a, b) + np.vdot(a, b)") == [1]
    assert _blas_calls("s = np.tensordot(a, b, 1)") == [1]
    assert _blas_calls("s = np.einsum('i,i', a, a)") == [1]
    assert _blas_calls("r = np.linalg.norm(d)") == [1]
    assert _blas_calls("def f(d):\n    return np.linalg.lstsq(a, b)[0]\n") == [2]
    assert _blas_calls("from numpy.linalg import norm") == [1]
    assert _blas_calls("from numpy import dot") == [1]
    assert _blas_calls("m2 = np.sum(d * d)\ns = np.cumsum(v)\nr = np.add.reduceat(v, i)") == []
    assert _blas_calls("dots = 3\nx = 'np.dot(d, d)'\nfrom numpy import sort") == []


def test_mc_calls_no_blas():
    source = (SRC / "mc.py").read_text()
    assert "_block_map" in source
    assert _blas_calls(source) == []


# ---------------------------------------------------------------------------
# One way to read a caller's number: outside numerics (and the CLI's text
# parsers), no public function or method applies float(p), np.asarray(p,
# dtype=...) or np.array(p, dtype=...) to one of its own parameters p; it
# goes through real_scalar, as_float_array, probabilities or increasing_grid
# ---------------------------------------------------------------------------

# (module, function): why the cast stays
_CAST_ALLOWED = {
    ("curve_io.py", "format_float"): "formats a value the writers hand it; it reads no input",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _parameter_casts(source: str):
    """(function, line) of each float(p), np.asarray(p, dtype=...) or
    np.array(p, dtype=...) (dtype by keyword or second argument) that a
    public function or method applies to one of its own parameters p (self
    and cls aside).  Nested functions and lambdas are private, and skipped."""
    sites = []

    def casts(func):
        args = func.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs} - {"self", "cls"}
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                continue
            chain = (node.func.id,) if isinstance(node.func, ast.Name) else _chain(node.func)
            typed = len(node.args) > 1 or any(kw.arg == "dtype" for kw in node.keywords)
            if chain == ("float",) or (chain in (("np", "asarray"), ("np", "array")) and typed):
                sites.append((func.name, node.lineno))

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and _is_public(child.name):
                visit(child)
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _is_public(child.name)):
                casts(child)

    visit(ast.parse(source))
    return sorted(sites, key=lambda site: site[1])


def test_cast_guard_sees_every_form():
    assert _parameter_casts("def f(x):\n    return float(x)") == [("f", 2)]
    assert _parameter_casts("def f(x):\n    y = np.asarray(x, dtype=np.float64)") == [("f", 2)]
    assert _parameter_casts("def f(x):\n    y = np.array(x, np.float64)") == [("f", 2)]
    assert _parameter_casts("class A:\n    def m(self, p):\n        return float(p)") == [("m", 3)]
    assert _parameter_casts("class A:\n    @classmethod\n    def m(cls, *, mean):\n"
                            "        return cls(float(mean))") == [("m", 4)]
    assert _parameter_casts("class A:\n    def __call__(self, k):\n"
                            "        return np.asarray(k, dtype=float)") == [("__call__", 3)]
    assert _parameter_casts("def f(x):\n    if x:\n        return [float(x)]") == [("f", 3)]
    # not a parameter, not public, not a typed cast, or a nested function's own
    assert _parameter_casts("def f(x):\n    return float(y) + float(x[0]) + float(x + 1)") == []
    assert _parameter_casts("def _f(x):\n    return float(x)") == []
    assert _parameter_casts("class _A:\n    def m(self, x):\n        return float(x)") == []
    assert _parameter_casts("def f(x):\n    return np.asarray(x) + float(self)") == []
    assert _parameter_casts("def f(x):\n    g = lambda x: float(x)\n"
                            "    def h(x):\n        return float(x)") == []


def test_only_numerics_reads_a_callers_number():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    sites = {(path.name, func) for path in modules if path.name not in ("numerics.py", "cli.py")
             for func, _ in _parameter_casts(path.read_text())}
    assert sites == set(_CAST_ALLOWED)


# ---------------------------------------------------------------------------
# The input rule, fuzzed: every ``__all__`` callable that takes numbers
# answers a complex array or number, a string, nan, a bool where it takes one
# real scalar, and a caller's function whose values are complex or strings,
# with a ZonoidLabError (warnings are errors; a bool array reads as 0 and 1)
# ---------------------------------------------------------------------------

# __all__ names that take no number of the caller's own, and why
_NO_NUMBERS = {
    **{name: "an exception class" for name in (
        "DomainError", "RangeError", "SingularCurvatureError", "UnsupportedError",
        "ValidationError", "ZonoidLabError")},
    **{name: "a result record the package fills from its own computations" for name in (
        "ConcavityReport", "KellererReport", "LocalVolResult", "McEstimate",
        "McPropositionReport", "PeacockCertificate")},
    "implied_y_root": "takes an ImpliedQuery, whose numbers have their row",
    "implied_y_minimization": "takes an ImpliedQuery, whose numbers have their row",
    "simulate_terminal": "takes a SimConfig, whose numbers have their row",
}

_BAD_ARRAYS = (np.array([0.5 + 1j]), 0.5 + 0j, "0.5", math.nan)
_BAD_SCALARS = _BAD_ARRAYS + (True,)


def _bad_callables(fn):
    """A caller's function whose values are complex, and one whose values are strings."""
    return (lambda *a: fn(*a) + 0.3j, lambda *a: np.asarray(fn(*a)).astype(str))


def _fuzz_fixtures():
    from scipy.stats import norm

    gauss, logistic = zonoid_lab.DensityModel.gaussian(), zonoid_lab.DensityModel.logistic()
    custom = dict(pdf=norm.pdf, pdf_prime=lambda x: -x * norm.pdf(x), cdf=norm.cdf,
                  quantile=norm.ppf)
    dist = zonoid_lab.DiscreteDistribution([0.5, 1.0, 2.0], [0.25, 0.5, 0.25])
    linear = zonoid_lab.PeacockSpec("linear", gauss, 1.0, zonoid_lab.TimeChange.sqrt())
    tgrid = np.linspace(0.5, 1.5, 11)
    return dict(gauss=gauss, logistic=logistic, custom=custom, dist=dist, linear=linear,
                calls=zonoid_lab.call_surface(linear, tgrid, np.linspace(0.0, 2.0, 41)),
                zonoid=zonoid_lab.boundary_surface(linear, tgrid, np.linspace(0.0, 1.0, 41)),
                config=zonoid_lab.SimConfig("bachelier", 1.0, 2000, 7),
                boundary_fn=lambda p: 0.5 * p * (3.0 - p))


def _fuzz_rows(fx):
    """name -> (call, valid arguments, kind of each argument fuzzed: scalar,
    array or callable).  A name is an ``__all__`` name, or one with a method
    or classmethod after a dot."""
    z, g, dist, lin = zonoid_lab, fx["gauss"], fx["dist"], fx["linear"]
    custom = fx["custom"]
    ps, ks = np.linspace(0.0, 1.0, 11), np.linspace(-1.0, 3.0, 21)
    curve = dist.call_curve()
    x = np.array([0.3, -0.4])

    def density_method(method, arg="x", value=x):
        return (lambda **kw: getattr(fx["logistic"], method)(*kw.values()), {arg: value},
                {arg: "array"})

    def family(name, kind=None):
        fn = getattr(z, name)
        head = (kind,) if kind else ()
        return (lambda s, y, k: fn(*head, g, s, y, k), dict(s=1.0, y=0.5, k=[0.8, 1.2]),
                dict(s="scalar", y="scalar", k="array"))

    def run_custom(location, scale, **fns):
        m = z.DensityModel.custom(location=location, scale=scale, **fns)
        return [getattr(m, e)(x) for e in ("pdf", "pdf_prime", "cdf", "log_pdf", "log_slope")] + [
            m.quantile([0.2, 0.7])]

    return {
        "CallCurve": (lambda mean, k_lo, k_hi: z.CallCurve(mean, k_lo, k_hi, fn=curve)(x),
                      dict(mean=curve.mean, k_lo=-1.0, k_hi=3.0),
                      dict(mean="scalar", k_lo="scalar", k_hi="scalar")),
        "CallCurve.from_function": (
            lambda fn, mean, k_lo, k_hi: z.CallCurve.from_function(fn, mean, (k_lo, k_hi))(x),
            dict(fn=curve, mean=curve.mean, k_lo=-1.0, k_hi=3.0),
            dict(fn="callable", mean="scalar", k_lo="scalar", k_hi="scalar")),
        "CallCurve.from_grid": (z.CallCurve.from_grid,
                                dict(strikes=ks, values=curve(ks), mean=curve.mean),
                                dict(strikes="array", values="array", mean="scalar")),
        "CallCurve.__call__": (curve, dict(k=x), dict(k="array")),
        "DensityModel": (z.DensityModel, dict(family="gaussian", location=0.0, scale=1.0),
                         dict(location="scalar", scale="scalar")),
        "DensityModel.from_spec": (
            lambda location, scale: z.DensityModel.from_spec(
                {"family": "logistic", "location": location, "scale": scale}),
            dict(location=0.0, scale=1.0), dict(location="scalar", scale="scalar")),
        "DensityModel.custom": (run_custom, dict(location=0.0, scale=1.0, **custom),
                                dict(location="scalar", scale="scalar",
                                     **{name: "callable" for name in custom})),
        **{f"DensityModel.{m}": density_method(m) for m in (
            "pdf", "pdf_prime", "cdf", "log_pdf", "log_slope", "log_curvature")},
        "DensityModel.quantile": density_method("quantile", "p", ps),
        "DensityModel.ratio_range": density_method("ratio_range", "y", [0.5, 2.0]),
        "DiscreteDistribution": (z.DiscreteDistribution,
                                 dict(atoms=[0.5, 1.0], weights=[0.25, 0.75]),
                                 dict(atoms="array", weights="array")),
        "DiscreteDistribution.call_value": (dist.call_value, dict(k=x), dict(k="array")),
        "DiscreteDistribution.boundary_curve": (dist.boundary_curve, dict(pgrid=ps),
                                                dict(pgrid="array")),
        "G_map": (lambda p: z.G_map(g, p), dict(p=ps), dict(p="array")),
        "H_map": (lambda y, p: z.H_map(g, y, p), dict(y=0.3, p=ps), dict(y="array", p="array")),
        "ImpliedQuery": (lambda c, k: z.ImpliedQuery(g, c, k), dict(c=0.3, k=1.1),
                         dict(c="scalar", k="scalar")),
        "ModelParams": (z.ModelParams, dict(s0=1.0, sigma=0.4, t=1.0),
                        dict(s0="scalar", sigma="scalar", t="scalar")),
        "PeacockSpec": (lambda s: z.PeacockSpec("geometric", g, s, z.TimeChange.sqrt()),
                        dict(s=1.0), dict(s="scalar")),
        "SimConfig": (lambda t, n_paths, seed: z.SimConfig("bachelier", t, n_paths, seed),
                      dict(t=1.0, n_paths=10, seed=3),
                      dict(t="scalar", n_paths="scalar", seed="scalar")),
        "SurfaceGrid": (lambda times, axis, values: z.SurfaceGrid(times, axis, values,
                                                                  "zonoid-space"),
                        dict(times=[0.5, 1.0], axis=[0.0, 1.0], values=np.zeros((2, 2))),
                        dict(times="array", axis="array", values="array")),
        "TimeChange": (lambda scale: z.TimeChange("linear", scale), dict(scale=2.0),
                       dict(scale="scalar")),
        "TimeChange.from_table": (lambda times, values: z.TimeChange.from_table(
            times, values).value(1.0), dict(times=[0.0, 1.0, 2.0], values=[0.0, 1.0, 1.5]),
            dict(times="array", values="array")),
        "TimeChange.value": (z.TimeChange.sqrt().value, dict(t=1.0), dict(t="scalar")),
        "TimeChange.derivative": (z.TimeChange.sqrt().derivative, dict(t=1.0), dict(t="scalar")),
        "ZonoidBoundary": (lambda mean: z.ZonoidBoundary(mean, fn=fx["boundary_fn"])(ps),
                           dict(mean=1.0), dict(mean="scalar")),
        "ZonoidBoundary.from_function": (
            lambda fn, mean: z.ZonoidBoundary.from_function(fn, mean)(ps),
            dict(fn=fx["boundary_fn"], mean=1.0), dict(fn="callable", mean="scalar")),
        "ZonoidBoundary.from_grid": (z.ZonoidBoundary.from_grid,
                                     dict(probs=ps, values=0.5 * ps, mean=0.5),
                                     dict(probs="array", values="array", mean="scalar")),
        "ZonoidBoundary.__call__": (dist.boundary_curve(), dict(p=ps), dict(p="array")),
        "ZonoidBoundary.lower": (dist.boundary_curve().lower, dict(p=ps), dict(p="array")),
        "bachelier_call": (lambda k: z.bachelier_call(z.ModelParams(0.0, 1.0, 1.0), k),
                           dict(k=x), dict(k="array")),
        "black_scholes_call": (lambda k: z.black_scholes_call(z.ModelParams(1.0, 0.4, 1.0), k),
                               dict(k=[0.8, 1.2]), dict(k="array")),
        "boundary_from_quantile_integral": (lambda p: z.boundary_from_quantile_integral(dist, p),
                                            dict(p=ps), dict(p="array")),
        "boundary_surface": (lambda tgrid, pgrid: z.boundary_surface(lin, tgrid, pgrid),
                             dict(tgrid=[0.5, 1.0], pgrid=ps),
                             dict(tgrid="array", pgrid="array")),
        "call_surface": (lambda tgrid, kgrid: z.call_surface(lin, tgrid, kgrid),
                         dict(tgrid=[0.5, 1.0], kgrid=ks), dict(tgrid="array", kgrid="array")),
        "calls_from_upper_boundary": (
            lambda kgrid: z.calls_from_upper_boundary(dist.boundary_curve(), kgrid),
            dict(kgrid=ks), dict(kgrid="array")),
        "certify_peacock": (lambda tgrid, pgrid: z.certify_peacock(lin, tgrid, pgrid),
                            dict(tgrid=[0.5, 1.0], pgrid=ps), dict(tgrid="array", pgrid="array")),
        "check_arithmetic_symmetry": (
            lambda kgrid: z.check_arithmetic_symmetry(z.linear_family_curve(g, 0.0, 1.0), kgrid),
            dict(kgrid=[-0.4, 0.3]), dict(kgrid="array")),
        "check_convex_order": (
            lambda kgrid: z.check_convex_order(curve, curve, kgrid), dict(kgrid=ks),
            dict(kgrid="array")),
        "check_geometric_symmetry": (
            lambda kgrid: z.check_geometric_symmetry(z.geometric_family_curve(g, 1.0, 0.5),
                                                     kgrid),
            dict(kgrid=[0.8, 1.25]), dict(kgrid="array")),
        "check_log_concavity": (lambda grid: z.check_log_concavity(g, grid),
                                dict(grid=np.linspace(-3.0, 3.0, 61)), dict(grid="array")),
        "discrete_upper_boundary": (lambda p: z.discrete_upper_boundary(dist, p), dict(p=ps),
                                    dict(p="array")),
        "dupire_from_boundary": (lambda t, p: z.dupire_from_boundary(fx["zonoid"], t, p),
                                 dict(t=1.0, p=0.5), dict(t="scalar", p="scalar")),
        "dupire_from_calls": (lambda t, k: z.dupire_from_calls(fx["calls"], t, k),
                              dict(t=1.0, k=1.0), dict(t="scalar", k="scalar")),
        "empirical_call_curve": (z.empirical_call_curve,
                                 dict(sample=[0.1, 0.4, 0.9], kgrid=[0.0, 0.5, 1.0]),
                                 dict(sample="array", kgrid="array")),
        "exact_boundary": (lambda t, p: z.exact_boundary("bachelier", t, p),
                           dict(t=1.0, p=ps), dict(t="scalar", p="array")),
        "family_call_geometric": family("family_call_geometric"),
        "family_call_geometric_with_flag": family("family_call_geometric_with_flag"),
        "family_call_linear": family("family_call_linear"),
        "family_call_linear_with_flag": family("family_call_linear_with_flag"),
        "family_prices": family("family_prices", "geometric"),
        "survival": family("survival", "linear"),
        "survival_geometric": family("survival_geometric"),
        "survival_linear": family("survival_linear"),
        "generator_limit_check": (lambda ygrid, pgrid: z.generator_limit_check(g, ygrid, pgrid),
                                  dict(ygrid=[1e-2, 1e-3], pgrid=[0.2, 0.5]),
                                  dict(ygrid="array", pgrid="array")),
        "geometric_family_curve": (lambda s, y: z.geometric_family_curve(g, s, y)(x + 1.0),
                                   dict(s=1.0, y=0.5), dict(s="scalar", y="scalar")),
        "linear_family_curve": (lambda s, y: z.linear_family_curve(g, s, y)(x),
                                dict(s=1.0, y=0.5), dict(s="scalar", y="scalar")),
        "group_property_check": (lambda y1, y2, pgrid: z.group_property_check(g, y1, y2, pgrid),
                                 dict(y1=0.2, y2=-0.1, pgrid=[0.3, 0.6]),
                                 dict(y1="scalar", y2="scalar", pgrid="array")),
        "inverse_boundary_positive": (lambda q: z.inverse_boundary_positive(curve, q),
                                      dict(q=0.5), dict(q="scalar")),
        "inverse_log_slope": (lambda w: z.inverse_log_slope(fx["logistic"], w), dict(w=x),
                              dict(w="array")),
        "inverse_ratio": (lambda y, r: z.inverse_ratio(g, y, r), dict(y=0.5, r=[0.8, 1.2]),
                          dict(y="array", r="array")),
        "localvol_geometric_closed": (
            lambda s0, t, k: z.localvol_geometric_closed(g, z.TimeChange.sqrt(), s0, t, k),
            dict(s0=1.0, t=1.0, k=1.2), dict(s0="scalar", t="scalar", k="scalar")),
        "localvol_linear_closed": (
            lambda s0, t, k: z.localvol_linear_closed(g, z.TimeChange.sqrt(), s0, t, k),
            dict(s0=1.0, t=1.0, k=1.2), dict(s0="scalar", t="scalar", k="scalar")),
        "mc_call": (lambda k: z.mc_call(fx["config"], k), dict(k=0.5), dict(k="scalar")),
        "mc_check_propositions": (
            lambda pgrid, kgrid: z.mc_check_propositions(fx["config"], pgrid, kgrid),
            dict(pgrid=[0.2, 0.5, 0.8], kgrid=np.linspace(-6.0, 6.0, 61)),
            dict(pgrid="array", kgrid="array")),
        "normalized_call": (lambda y, k: z.normalized_call(g, y, k), dict(y=0.5, k=1.1),
                            dict(y="scalar", k="scalar")),
        "project_convex_decreasing": (z.project_convex_decreasing,
                                      dict(strikes=ks, values=curve(ks)),
                                      dict(strikes="array", values="array")),
        "recover_F_from_G": (
            z.recover_F_from_G,
            dict(gen=lambda q: z.G_map(g, q), anchor=0.0, p0=0.5, pgrid=[0.3, 0.6]),
            dict(gen="callable", anchor="scalar", p0="scalar", pgrid="array")),
        "recover_F_from_H": (
            z.recover_F_from_H,
            dict(h_handle=lambda y, p: z.H_map(g, y, p), anchor=0.0, p0=0.5, x=[0.5, 1.0]),
            dict(h_handle="callable", anchor="scalar", p0="scalar", x="array")),
        "surface_boundary": (lambda t, p: z.surface_boundary(lin, t, p), dict(t=1.0, p=ps),
                             dict(t="scalar", p="array")),
        "upper_boundary_from_calls": (lambda pgrid: z.upper_boundary_from_calls(curve, pgrid),
                                      dict(pgrid=ps), dict(pgrid="array")),
        "vega_integral": (lambda y, k: z.vega_integral(g, y, k), dict(y=0.5, k=1.1),
                          dict(y="scalar", k="scalar")),
    }


_FUZZ_FIXTURES = _fuzz_fixtures()
_FUZZ_ROWS = _fuzz_rows(_FUZZ_FIXTURES)


def test_every_public_name_has_a_fuzz_row():
    rows = {name.split(".")[0] for name in _FUZZ_ROWS}
    assert rows <= set(zonoid_lab.__all__)
    assert not rows & set(_NO_NUMBERS)
    assert sorted(set(zonoid_lab.__all__) - rows - set(_NO_NUMBERS)) == []


@pytest.mark.parametrize("name", sorted(_FUZZ_ROWS))
def test_bad_numbers_raise_a_typed_error(name):
    call, valid, kinds = _FUZZ_ROWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**valid)  # the row's valid arguments pass
        failures = []
        for arg, kind in kinds.items():
            bad = {"scalar": _BAD_SCALARS, "array": _BAD_ARRAYS}.get(kind)
            for value in bad or _bad_callables(valid[arg]):
                try:
                    out = call(**{**valid, arg: value})
                except zonoid_lab.ZonoidLabError:
                    continue
                except Exception as exc:  # an untyped error fails the row
                    out = exc
                failures.append(f"{arg}={value!r}: {out!r}"[:160])
    assert failures == []
