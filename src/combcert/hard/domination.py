"""Certifying the weighted-twirl domination of the hard-family vectors.

For the admissible parameter window, the weighted sum sum_i lambda_i Gamma_i
dominates |V(U)><V(U)|^{(x) n} for every group element U. The certificate is
numeric and two-route: the scalar form q(U) = sum_i <v|Gamma_i^+|v> / lambda_i
<= 1 together with a support check, and the direct minimum eigenvalue of the
difference operator. Every float sum here (q(U) and the weight total) adds
its terms left to right, so the values do not depend on the Python version's
builtin ``sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, inf, log, sqrt
from typing import NamedTuple

import numpy as np

from ..linalg import haar_from_ginibre, herm_eigvals, pseudo_inverse, rank_mask, support_projector
from .instance import HardInstanceSpec, gamma_state
from .twirl import gamma_twirl

__all__ = [
    "DIFF_CHECK_TOL",
    "EIG_TOL",
    "Q_BOUND",
    "SPAN_RANK_TOL",
    "SUPPORT_TOL",
    "TRACE_MARGIN_TOL",
    "WEIGHT_BUDGET_CONSTANT",
    "DominationResult",
    "admissible_window",
    "budget_exponent",
    "check_admissible",
    "LambdaSchedule",
    "domination_check",
    "lambda_schedule",
    "largest_round",
    "symmetric_span_dim",
    "twirl_trace_bound",
]

WEIGHT_BUDGET_CONSTANT = 2 * exp(4.0)
# domination_check's bounds: the largest sampled q(U); the least
# lambda_min(sum_i lambda_i Gamma_i - |v><v|) / lambda_total, negated; the
# largest relative norm of v outside the support of the weighted sum; and the
# largest gamma_i^dagger Gamma_i^+ gamma_i - C(d1 d2 + i - 2, i)
Q_BOUND = 1.0 + 1e-9
EIG_TOL = 1e-8
SUPPORT_TOL = 1e-9
TRACE_MARGIN_TOL = 1e-6
# the Hermiticity check on domination_check's difference operators
DIFF_CHECK_TOL = 1e-8
# symmetric_span_dim counts the sampled Gram's eigenvalues above this
# fraction of the largest
SPAN_RANK_TOL = 1e-8


def admissible_window(d1: int, d2: int, eps: float) -> float:
    """Largest admissible round count d1*d2 / (B*eps^2), B = 2e^4; the weight
    schedule is valid for 1 <= n <= this bound."""
    return d1 * d2 / (WEIGHT_BUDGET_CONSTANT * eps**2)


def largest_round(d1: int, d2: int, eps: float, max_n: float = inf) -> int:
    """The largest round count n <= max_n inside the weight-schedule window
    [1, admissible_window(d1, d2, eps)]; below 1 when no n is."""
    return int(min(max_n, admissible_window(d1, d2, eps)))


def budget_exponent(d1: int, d2: int, n: int, eps: float) -> float:
    """sqrt(8*n*eps^2*d1*d2): the exponent in the weight schedule's flat head
    and sum bound, and each summand chain's budget below i = d1*d2."""
    return sqrt(8.0 * n * eps**2 * (d1 * d2))


def check_admissible(d1: int, d2: int, n: int, eps: float) -> None:
    """Raise ValueError unless d1*d2 >= 2, 0 < eps < 1 and n lies in the
    weight-schedule window [1, admissible_window(d1, d2, eps)]."""
    d = d1 * d2
    if d < 2:
        raise ValueError(f"need d1*d2 >= 2, got {d}")
    if not 0 < eps < 1:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    n_max = admissible_window(d1, d2, eps)
    if not 1 <= n <= n_max:
        raise ValueError(
            f"round count n={n} outside the admissible window [1, {n_max:.6g}] "
            f"for d1*d2={d}, eps={eps}"
        )


@dataclass(frozen=True, eq=False)
class LambdaSchedule:
    """Weights lambda_0..lambda_n with their closed-form sum bound.

    ``log_weights`` is the exact log-domain form as a float array;
    ``weights`` is its exponential, entry by entry with ``math.exp``, and
    underflows to zero deep in the geometric tail, so log-domain consumers
    should prefer ``log_weights``.
    """

    log_weights: np.ndarray
    sum_bound: float

    @property
    def weights(self) -> np.ndarray:
        logs = self.log_weights
        return np.fromiter(map(exp, logs.tolist()), dtype=float, count=logs.size)

    @property
    def total(self) -> float:
        """The weights added left to right."""
        return float(np.cumsum(self.weights)[-1])


def lambda_schedule(d1: int, d2: int, n: int, eps: float) -> LambdaSchedule:
    """Weight schedule: a flat head of 2*d1*d2*exp(sqrt(8*n*eps^2*d1*d2)) for
    i < d1*d2 and a geometric tail exp(-i) beyond, valid when
    1 <= n <= d1*d2 / (B*eps^2) with B = 2e^4."""
    check_admissible(d1, d2, n, eps)
    d = d1 * d2
    exponent = budget_exponent(d1, d2, n, eps)
    log_head = log(2.0 * d) + exponent
    i = np.arange(n + 1)
    sum_bound = 3.0 * d1**2 * d2**2 * exp(exponent)
    sched = LambdaSchedule(log_weights=np.where(i < d, log_head, -i), sum_bound=sum_bound)
    if sched.total > sum_bound:
        raise ValueError(
            f"weight sum {sched.total:.6g} exceeds its closed-form bound {sum_bound:.6g}"
        )
    return sched


class DominationResult(NamedTuple):
    """Evidence that sum_i lambda_i Gamma_i >= |v(U)><v(U)| over sampled U."""

    max_quadratic_form: float
    quadratic_forms: tuple[float, ...]
    max_support_residual: float
    min_eig_ratio: float
    trace_bound_margin: float
    lambda_total: float
    lambda_sum_bound: float
    ok: bool


def twirl_trace_bound(x: np.ndarray, twirled: np.ndarray) -> float:
    """tr(twirled^+ x), the scalar that the support dimension of the twirl
    bounds from above: for x PSD with twirled = E[g x g^dagger] over a unitary
    group, tr(twirled^+ x) <= rank(twirled)."""
    return float(np.trace(pseudo_inverse(twirled) @ x).real)


def symmetric_span_dim(d: int, m: int, rng: np.random.Generator) -> int:
    """Numeric dimension of span{phi^{(x) m} : phi in C^d} via a sampled Gram
    matrix of five more vectors than the closed form binom(d+m-1, m)."""
    count = comb(d + m - 1, m) + 5
    # one draw in the order of per-vector real-then-imaginary draws
    parts = rng.standard_normal((count, 2, d))
    phi = parts[:, 0] + 1j * parts[:, 1]
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    vecs = _kron_power_rows(phi, m)
    gram = vecs @ vecs.conj().T
    vals = herm_eigvals(gram)
    return int(np.count_nonzero(rank_mask(vals, SPAN_RANK_TOL)))


def _kron_power_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """kron_power(row, n) of each row of a 2-d array, as the rows of the
    result, bit for bit."""
    out = np.ones((len(rows), 1), dtype=rows.dtype)
    for _ in range(n):
        out = (out[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return out


def domination_check(
    spec: HardInstanceSpec,
    n: int,
    eps: float,
    n_samples: int = 20,
    seed: int = 0,
) -> DominationResult:
    """Certify sum_i lambda_i Gamma_i >= |v(U)><v(U)|^{(x)n} on Haar samples U.

    The quadratic form q(U) = sum_i c_i(U)-weighted Gamma_i^+ energies is a
    group invariant, so the sampled values double as an invariance probe; the
    direct eigenvalue route on the difference operator is kept as an
    independent second reading.
    """
    d1, d2 = spec.d1, spec.d2
    sched = lambda_schedule(d1, d2, n, eps)
    rng = np.random.default_rng(seed)

    gammas = [gamma_twirl(spec, n, i, seed=seed) for i in range(n + 1)]
    pinvs = [pseudo_inverse(g) for g in gammas]

    trace_margin = -np.inf
    for i in range(n + 1):
        g_vec = gamma_state(spec, n, i)
        bound = comb(d1 * d2 + i - 2, i)
        val = float((g_vec.conj() @ (pinvs[i] @ g_vec)).real)
        trace_margin = max(trace_margin, val - bound)

    weights = sched.weights.tolist()
    weighted = sum(w * g for w, g in zip(weights, gammas))
    lam_total = sched.total
    joint_support = support_projector(weighted)

    # the per-sample stream: real then imaginary part of each Ginibre matrix
    k = spec.rotor_dim
    parts = rng.standard_normal((n_samples, 2, k, k))
    u = haar_from_ginibre(parts[:, 0] + 1j * parts[:, 1])
    v = _kron_power_rows(spec.member(eps, u).reshape(n_samples, -1), n)

    # pseudo-inverses vanish off their support, so each term reads the
    # energy of the v-component inside the matching twirl support
    q = np.zeros(n_samples)
    for pinv, w in zip(pinvs, weights):
        q += (v.conj()[:, None, :] @ (pinv @ v[:, :, None]))[:, 0, 0].real / w
    residuals = np.linalg.norm(v - v @ joint_support.T, axis=1) / np.linalg.norm(v, axis=1)
    diff = weighted - v[:, :, None] * v.conj()[:, None, :]
    min_eigs = herm_eigvals(diff, check_tol=DIFF_CHECK_TOL)[:, 0]

    q_values = q.tolist()
    max_q = max(q_values)
    max_support_residual = float(residuals.max())
    min_eig_ratio = float((min_eigs / lam_total).min())
    ok = (
        max_q <= Q_BOUND
        and max_support_residual <= SUPPORT_TOL
        and min_eig_ratio >= -EIG_TOL
        and trace_margin <= TRACE_MARGIN_TOL
    )
    return DominationResult(
        max_quadratic_form=max_q,
        quadratic_forms=tuple(q_values),
        max_support_residual=max_support_residual,
        min_eig_ratio=min_eig_ratio,
        trace_bound_margin=trace_margin,
        lambda_total=lam_total,
        lambda_sum_bound=sched.sum_bound,
        ok=ok,
    )
