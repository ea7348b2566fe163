"""The benchmark under perfbench/ reaches into combcert by name: spans.py
wraps the functions in its TARGETS table, and micro.py imports and calls
layer functions directly. These tests fail when a rename or a signature
change would break either, without running the benchmark."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_importing_the_cli_loads_every_span_target_module():
    # spans.py imports combcert.cli and then looks each target module up in
    # sys.modules, so a module the CLI imports lazily leaves traced runs
    # without a report; a fresh interpreter shows what the import loads
    modules = {module_name for module_name, _, _ in _load_spans().TARGETS}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import json, sys; import combcert.cli; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    missing = modules - set(json.loads(done.stdout))
    assert not missing, f"span target modules not loaded by importing combcert.cli: {missing}"


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

