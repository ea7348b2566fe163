"""The benchmark under perfbench/ reaches into combcert by name: spans.py
wraps the functions in its TARGETS table, and micro.py imports and calls
layer functions directly. These tests fail when a rename or a signature
change would break either, without running the benchmark."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves_to_a_function():
    targets = _load_spans().TARGETS
    assert targets
    for module_name, fn_name, _ in targets:
        fn = getattr(importlib.import_module(module_name), fn_name, None)
        assert inspect.isfunction(fn), f"{module_name}.{fn_name}"


def test_micro_benchmark_imports_exist_with_their_call_shapes():
    tree = ast.parse((PERFBENCH / "micro.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.startswith("combcert"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert {"certify_comb", "psd_check", "gamma_twirl_weingarten"} <= set(imported)

    checked = 0
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        # binding placeholders checks the argument count and keyword names
        inspect.signature(target).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        checked += 1
    assert checked >= 15

