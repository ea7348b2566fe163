"""Every name a module of combcert or a test module imports is used in that
module.

Package ``__init__`` modules are skipped: they import to re-export. A name
counts as used when it appears as a name anywhere in the module (the base
of an attribute and annotations included). Imports inside functions are
checked too; ``from __future__`` imports are not names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "combcert"
TESTS = ROOT / "tests"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.relative_to(ROOT)}:{name}" for name in _imported(tree) if name not in used
        ]
    assert not unused, f"imported but unused: {unused}"
