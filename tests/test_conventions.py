"""Package-wide conventions.

* One scalar/array return convention: ``numerics.like_input`` gives a Python
  scalar for a 0-d input and the array otherwise.
* One JSON rule, ``numerics.jsonable``, and one output path: only
  ``curve_io`` writes files, JSON, CSV or stdout.
* scipy loads on first gaussian use: the one scipy import in ``src/`` is
  inside ``densities._scipy_special``, and a fresh process that evaluates
  no gaussian leaves scipy out of ``sys.modules``.
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
import subprocess
import sys
from pathlib import Path

import numpy as np

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
