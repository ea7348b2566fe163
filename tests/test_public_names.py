"""Every public name of combcert is used by the package or the benchmark.

A name in a module's ``__all__`` counts as used when it appears as a name or
an attribute anywhere in ``src/combcert`` or ``perfbench/*.py``, or as a
function the benchmark wraps by name (``perfbench/spans.py`` ``TARGETS``).
Its own definition, its imports and its ``__all__`` entry do not count, so a
helper that only tests call fails here and is a candidate for deletion."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "combcert"
PERFBENCH = ROOT / "perfbench"

# matrix_from_wire reads the ``--embed-matrices`` payloads back; no record
# needs to, but it is the reader of that wire format and the wire round-trip
# test checks the format through it
EXEMPT = {"matrix_from_wire"}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {fn_name for _, fn_name, _ in module.TARGETS}


def test_every_public_name_is_used_outside_the_tests():
    modules = sorted(PACKAGE.rglob("*.py"))
    used = _span_targets()
    for path in [*modules, *PERFBENCH.glob("*.py")]:
        used.update(_uses(ast.parse(path.read_text())))
    unused = [
        f"{path.relative_to(PACKAGE)}:{name}"
        for path in modules
        for name in _exported(ast.parse(path.read_text()))
        if name not in used and name not in EXEMPT
    ]
    assert not unused, f"public names no record or benchmark uses: {unused}"
