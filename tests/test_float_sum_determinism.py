"""A report's digest does not depend on how the builtin ``sum`` rounds floats.

From Python 3.12 the builtin ``sum`` of floats compensates its rounding
(Neumaier), so a float total that reached a record through ``sum`` would move
in its last bits between 3.11 and 3.12. Every float reduction that reaches a
record adds left to right instead; this test runs the hard suite once as is
and once with ``sum`` replaced by 3.12's compensated rule, on whatever
interpreter runs it, and asks for one digest."""

import builtins
import functools
import math
import operator

from combcert.report import report_digest
from combcert.suites import run_hard_suite

_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum``, Neumaier-compensated when there are terms, every
    one a float, and the start is a number, as Python 3.12 adds."""
    items = list(iterable)
    if not items or not isinstance(start, (int, float)) or any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_hard_digest_does_not_depend_on_the_builtin_float_sum(monkeypatch):
    # the patched sum does move a left-to-right total
    terms = [0.1] * 10
    assert functools.reduce(operator.add, terms) == 0.9999999999999999
    assert _compensated_sum(terms) == 1.0
    plain = report_digest(run_hard_suite(seed=7).to_dict())
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    compensated = report_digest(run_hard_suite(seed=7).to_dict())
    assert compensated == plain
