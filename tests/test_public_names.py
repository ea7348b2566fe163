"""Every public name and every class member of combcert is used by the
package or the benchmark.

A name in a module's ``__all__`` counts as used when it appears as a name or
an attribute anywhere in ``src/combcert`` or ``perfbench/*.py``, or as a
function the benchmark wraps by name (``perfbench/spans.py`` ``TARGETS``).
Its own definition, its imports and its ``__all__`` entry do not count, so a
helper that only tests call fails here and is a candidate for deletion.

A class member (a field, property or method of a class defined in
``src/combcert``) counts as read when an attribute of its name is loaded, or
its name appears as a string (as the names ``_fields`` takes do), anywhere
in ``src/combcert`` or ``perfbench/*.py``. The name argument of a
``setattr`` call is a write, not a read, and neither is an attribute loaded
off an imported module (``np.random``, ``np.linalg.norm``), which names no
class member. A result field that no record, verdict or benchmark reads
fails here."""

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
# report documents: ``asdict`` serializes every field of these
EXEMPT_CLASSES = {"CheckRecord", "VerificationReport"}


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


def _setattr_names(tree):
    """ids of the string nodes that name the attribute a setattr call writes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("setattr", "__setattr__"):
                yield id(node.args[1])


def _module_names(tree):
    """The names ``import`` statements bind to modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _off_module(node, modules):
    """Whether an attribute is loaded off a dotted chain rooted at an
    imported module."""
    value = node.value
    while isinstance(value, ast.Attribute):
        value = value.value
    return isinstance(value, ast.Name) and value.id in modules


def _reads(tree):
    writes = set(_setattr_names(tree))
    modules = set(_module_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not _off_module(node, modules):
                yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in writes:
            yield node.value


def _members(cls):
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            yield node.name


def test_every_class_member_is_read_outside_the_tests():
    modules = sorted(PACKAGE.rglob("*.py"))
    read = set()
    for path in [*modules, *PERFBENCH.glob("*.py")]:
        read.update(_reads(ast.parse(path.read_text())))
    unread = [
        f"{path.relative_to(PACKAGE)}:{cls.name}.{name}"
        for path in modules
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and cls.name not in EXEMPT_CLASSES
        for name in _members(cls)
        if name not in read
    ]
    assert not unread, f"class members no record, verdict or benchmark reads: {unread}"
