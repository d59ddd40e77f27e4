"""Package-wide conventions.

* One scalar/array return convention: ``numerics.like_input`` gives a Python
  scalar for a 0-d input and the array otherwise.
* Every public name resolves: everything in ``zonoid_lab.__all__``, and every
  function the benchmark's tracer patches by name (``_TARGETS`` in
  ``perfbench/spans.py``, read as text so nothing under ``perfbench/`` is
  imported or written).
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import zonoid_lab
from zonoid_lab.numerics import like_input

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
