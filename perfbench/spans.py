"""Per-layer spans around combcert's public functions, recorded from outside.

Run as a script, it executes the ``combcert`` command line with every
function in ``TARGETS`` wrapped, then writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json verify --suite hard ...

The exit code is the command's own. A function is wrapped at every module
binding of it (``from .linalg import herm_eig`` in ``suites`` or
``hard.twirl`` makes a second binding that patching ``combcert.linalg``
alone would miss). Each thread keeps its own span stack, so spans recorded
by the ``--jobs`` thread pool nest under their own thread's parent.

Importing this module imports neither numpy nor combcert; ``layer_totals``
is what run.py uses to reduce a spans file.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time

# (defining module, function, layer the span is charged to)
TARGETS = (
    ("combcert.linalg", "herm_eig", "linalg.herm_eig"),
    ("combcert.linalg", "psd_check", "linalg.psd_check"),
    ("combcert.linalg", "partial_trace", "linalg.partial_trace"),
    ("combcert.linalg", "haar_unitary", "linalg.haar_sampling"),
    ("combcert.linalg", "haar_unitary_batch", "linalg.haar_sampling"),
    ("combcert.linalg", "trace_norm", "linalg.trace_norm"),
    ("combcert.channels", "random_channel", "channels"),
    ("combcert.channels", "choi_operator", "channels"),
    ("combcert.channels", "kraus_rank", "channels"),
    ("combcert.combs", "certify_comb", "combs.certify_comb"),
    ("combcert.combs", "link_product", "combs.link_product"),
    ("combcert.combs", "random_tester", "combs.tester"),
    ("combcert.combs", "validate_tester", "combs.tester"),
    ("combcert.combs", "success_probability", "combs.tester"),
    ("combcert.hard.instance", "gamma_state", "hard.instance"),
    ("combcert.hard.instance", "gamma_outer", "hard.instance"),
    ("combcert.hard.instance", "gamma_recursion_residual", "hard.instance"),
    ("combcert.hard.instance", "hard_vector_expansion", "hard.instance"),
    ("combcert.hard.instance", "kron_power", "hard.instance"),
    ("combcert.hard.twirl", "commutant_projector", "hard.twirl.commutant_projector"),
    ("combcert.hard.twirl", "gamma_twirl_weingarten", "hard.twirl.weingarten"),
    ("combcert.hard.twirl", "gamma_twirl_monte_carlo", "hard.twirl.monte_carlo"),
    ("combcert.hard.facts", "summand_chain", "hard.facts.summand_chain"),
    ("combcert.hard.domination", "domination_check", "hard.domination.domination_check"),
    ("combcert.net", "f_operator", "net.f_operator"),
    ("combcert.net", "moment_audit", "net.moment_audit"),
    ("combcert.net", "lipschitz_audit", "net.lipschitz_audit"),
    ("combcert.net", "separation_audit", "net.separation_audit"),
    ("combcert.suites", "run_combs_suite", "suites.run"),
    ("combcert.suites", "run_hard_suite", "suites.run"),
    ("combcert.suites", "run_net_suite", "suites.run"),
    ("combcert.report", "write_report", "report.write"),
)


def _herm_eig_dim(bound):
    return {"dim": int(bound.arguments["x"].shape[0])}


def _projector_key(bound):
    a = bound.arguments
    spec = a["spec"]
    spec_id = hashlib.sha256(spec.v0.tobytes() + spec.delta.tobytes()).hexdigest()[:16]
    return {"key": f"{spec.d1}-{spec.d2}-{spec_id}-{a['n']}-{a['seed']}"}


# span attributes that the exact counters are computed from
ATTRIBUTES = {
    "herm_eig": _herm_eig_dim,
    "commutant_projector": _projector_key,
}


class Tracer:
    """Spans kept in memory: (id, parent id, layer, start, end, thread, attrs)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer, attributes=None):
        signature = inspect.signature(fn) if attributes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if attributes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attributes(bound)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, parent, layer, start, end, threading.get_ident(), attrs)
                )

        return traced


def instrument(tracer):
    """Wrap every target at every binding in a loaded combcert module.

    Returns {"module.function": number of bindings replaced}."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "combcert" or name.startswith("combcert."))]
    patched = {}
    for module_name, fn_name, layer in TARGETS:
        original = getattr(sys.modules[module_name], fn_name)
        wrapper = tracer.wrap(original, layer, ATTRIBUTES.get(fn_name))
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    count += 1
        patched[f"{module_name}.{fn_name}"] = count
    return patched


def layer_totals(spans):
    """Per-layer calls, busy seconds and self seconds, plus the exact counters
    (counts that must repeat exactly between runs at one seed).

    Self time is a span's duration minus the durations of its direct
    children; children run on the parent's thread inside its interval."""
    child_time = {}
    for span_id, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    layers = {}
    dim3_sum = 0
    projector_keys = set()
    for span_id, _, layer, start, end, _, attrs in spans:
        entry = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        if attrs and "dim" in attrs:
            dim3_sum += attrs["dim"] ** 3
        if attrs and "key" in attrs:
            projector_keys.add(attrs["key"])
    counters = {
        "linalg.herm_eig.calls": layers.get("linalg.herm_eig", {}).get("calls", 0),
        "linalg.herm_eig.dim3_sum": dim3_sum,
        "hard.twirl.commutant_projector.calls":
            layers.get("hard.twirl.commutant_projector", {}).get("calls", 0),
        "hard.twirl.commutant_projector.unique_keys": len(projector_keys),
        "hard.facts.summand_chain.calls":
            layers.get("hard.facts.summand_chain", {}).get("calls", 0),
        "net.f_operator.calls": layers.get("net.f_operator", {}).get("calls", 0),
    }
    return layers, counters


def main(argv):
    if len(argv) < 2:
        print("usage: spans.py SPANS.json COMBCERT-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    from combcert import cli  # imports every combcert module

    tracer = Tracer()
    patched = instrument(tracer)
    unpatched = [name for name, count in patched.items() if count == 0]
    if unpatched:
        print(f"spans: no binding found for {unpatched}", file=sys.stderr)
        return 2
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"bindings": patched, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
