"""Certifying the weighted-twirl domination of the hard-family vectors.

For the admissible parameter window, the weighted sum sum_i lambda_i Gamma_i
dominates |V(U)><V(U)|^{(x) n} for every group element U. The certificate is
numeric and two-route, both read from the Gamma_i on their sectors of
Sym^n(M) (:mod:`.modes`): the scalar form
q(U) = sum_i <v|Gamma_i^+|v> / lambda_i <= 1 together with a support check,
and the minimum eigenvalue of the difference operator. The largest
sampled q(U) must also equal its closed form, which a wrongly normalized
Gamma_i moves off. Every float sum here (q(U), its closed form and the
weight total) adds its terms left to right, so the values do not depend on
the Python version's builtin ``sum``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, inf, log, sqrt
from typing import NamedTuple

import numpy as np

from ..linalg import frobenius, haar_from_ginibre, herm_eigvals, pseudo_inverse, rank_mask
from .instance import HardInstanceSpec
from .modes import gamma_modes, mode_isometry, power_coords
from .twirl import gamma_twirl_modes

__all__ = [
    "EIG_TOL",
    "Q_BOUND",
    "Q_CLOSED_FORM_TOL",
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
# the largest relative gap between a sampled q(U) and its closed form
Q_CLOSED_FORM_TOL = 1e-12
# _least_eigenvalue's halvings of its bracket, of width |a|^2 <= ||v||^{2n}:
# 100 take it below 1e-28 of that width
BISECTION_STEPS = 100
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
    q_closed_form: float
    max_support_residual: float
    min_eig_ratio: float
    support_margin: float
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
    matrix of five more vectors than the closed form binom(d+m-1, m), read as
    <phi_a, phi_b>^m: count^2 entries, and no d^m-long phi^{(x) m}."""
    count = comb(d + m - 1, m) + 5
    # one draw in the order of per-vector real-then-imaginary draws
    parts = rng.standard_normal((count, 2, d))
    phi = parts[:, 0] + 1j * parts[:, 1]
    phi /= frobenius(phi[:, None])[:, None]
    vals = herm_eigvals((phi @ phi.conj().T) ** m)
    return int(np.count_nonzero(rank_mask(vals, SPAN_RANK_TOL)))


def domination_check(
    spec: HardInstanceSpec,
    n: int,
    eps: float,
    n_samples: int = 20,
    seed: int = 0,
) -> DominationResult:
    """Certify sum_i lambda_i Gamma_i >= |v(U)><v(U)|^{(x)n} on Haar samples U,
    in the occupation coordinates of Sym^n(M) (:mod:`.modes`), where
    Gamma_i = B_i diag(s_i) B_i^dagger sits on sector i
    (:func:`gamma_twirl_modes`); no slot-space operator or vector is formed.

    Each member's mode coordinates (a, b) = J^dagger vec V(U) give v's
    sector-i coordinates sqrt(C(n, i)) a^{n-i} b^{(x) i}, and c_i = B_i^dagger
    of those. q(U) is sum_i ||s_i^{-1/2} c_i||^2 / lambda_i, a group invariant
    whose largest sample must equal the closed form. The part o of v outside
    Sym^n(M) has ||o||^2 = ||v||^{2n} - ||J J^dagger v||^{2n} for the member's
    own residual v - J J^dagger v, and the support residual is ||o|| over
    ||v||^n; each B_i must span its sector, so Sym^n(M) is the support of
    the weighted sum W. In the orthonormal frame (F, o / ||o||),
    F = [B_0 ... B_n], W - vv^dagger is diag(lambda_i s_i, 0) - a a^dagger
    with a = (c, ||o||), and 0 off it: its least eigenvalue over lambda_total
    is min_eig_ratio, and that of the F block alone, on the support, is
    support_margin (:func:`_least_eigenvalue`).
    """
    d1, d2 = spec.d1, spec.d2
    sched = lambda_schedule(d1, d2, n, eps)

    # the per-sample stream: real then imaginary part of each Ginibre matrix
    k = spec.rotor_dim
    parts = np.random.default_rng(seed).standard_normal((n_samples, 2, k, k))
    members = spec.member(eps, haar_from_ginibre(parts[:, 0] + 1j * parts[:, 1])).reshape(n_samples, -1)
    jm = mode_isometry(spec).reshape(d1 * d2, -1)
    coords = members @ jm.conj()
    norm2 = (np.abs(members) ** 2).sum(axis=1)
    off = (np.abs(members - coords @ jm.T) ** 2).sum(axis=1) / norm2
    # ||o||^2 / ||v||^{2n} = 1 - (1 - off)^n, without cancellation
    outside = np.sqrt(-np.expm1(n * np.log1p(-off)))

    q = np.zeros(n_samples)
    weights2, spectrum, trace_margin, closed = [], [], -np.inf, 0.0
    for i, w in enumerate(sched.weights.tolist()):
        gamma = gamma_twirl_modes(spec, n, i, seed=seed)
        if gamma.vecs.shape[1] < gamma.vecs.shape[0]:
            raise ValueError(f"Gamma_{i} has rank {gamma.vecs.shape[1]} on a sector of "
                             f"dimension {gamma.vecs.shape[0]}")
        # einsum's own loop, not BLAS: B_i^dagger x sums in one order at any thread count
        g_energy = float(_energy(np.einsum("k,kr->r", gamma_modes(spec, n, i), gamma.vecs.conj()), gamma.vals))
        trace_margin = max(trace_margin, g_energy - comb(d1 * d2 + i - 2, i))
        v_i = np.sqrt(comb(n, i)) * coords[:, :1] ** (n - i) * power_coords(coords[:, 1:], i)
        c_i = np.einsum("sk,kr->sr", v_i, gamma.vecs.conj())  # the rows c_i = B_i^dagger v
        q += _energy(c_i, gamma.vals) / w
        weights2.append(np.abs(c_i) ** 2)
        spectrum.append(w * gamma.vals)
        # the value every q(U) takes: t_i = gamma_i^dagger Gamma_i^+ gamma_i = C(k d1 + i - 1, i)
        closed += comb(n, i) * (1 - eps**2) ** (n - i) * eps ** (2 * i) * comb(k * d1 + i - 1, i) / w

    spectrum, weights2 = np.concatenate(spectrum), np.hstack(weights2)
    support = _least_eigenvalue(spectrum, weights2)
    # with rank W below D^n, the frame gains o / ||o|| (at 0 in W), and
    # W - vv^dagger is 0 off the frame
    o2 = outside**2 * norm2**n
    whole = support if len(spectrum) == (d1 * d2) ** n else _least_eigenvalue(
        np.append(spectrum, 0.0), np.hstack([weights2, o2[:, None]]))

    q_values = q.tolist()
    max_q = max(q_values)
    max_support_residual = float(outside.max())
    min_eig_ratio = float(whole.min() / sched.total)
    ok = (
        max_q <= Q_BOUND
        and abs(max_q - closed) <= Q_CLOSED_FORM_TOL * closed
        and max_support_residual <= SUPPORT_TOL
        and min_eig_ratio >= -EIG_TOL
        and trace_margin <= TRACE_MARGIN_TOL
    )
    return DominationResult(
        max_quadratic_form=max_q,
        quadratic_forms=tuple(q_values),
        q_closed_form=closed,
        max_support_residual=max_support_residual,
        min_eig_ratio=min_eig_ratio,
        support_margin=float(support.min() / sched.total),
        trace_bound_margin=trace_margin,
        lambda_total=sched.total,
        lambda_sum_bound=sched.sum_bound,
        ok=ok,
    )


def _least_eigenvalue(d: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """lambda_min(diag(d) - a a^dagger) for each row of a2 = |a|^2, with d >= 0,
    by bisection on its secular equation, in elementwise arithmetic whose
    sums do not depend on the BLAS thread count.

    lambda_min lies in [d_min - |a|^2, d_min], and below an x < d_min exactly
    when sum_j |a_j|^2 / (d_j - x) > 1 (the matrix determinant lemma, with at
    most one eigenvalue below d_min). The upper end is returned, so an
    eigenvalue d_min that a leaves in place comes back exactly.
    """
    hi = np.full(len(a2), d.min())
    lo = hi - a2.sum(axis=1)
    # a midpoint that rounds onto d_min divides by 0 and leaves the bracket as it is
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(BISECTION_STEPS):
            mid = (lo + hi) / 2
            below = (a2 / (d - mid[:, None])).sum(axis=1) > 1
            hi, lo = np.where(below, mid, hi), np.where(below, lo, mid)
    return hi


def _energy(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """||s^{-1/2} c||^2 over the last axis: x^dagger B diag(s)^+ B^dagger x
    for the coordinates c = B^dagger x."""
    return (np.abs(c) ** 2 / s).sum(axis=-1)
