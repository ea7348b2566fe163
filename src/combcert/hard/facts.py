"""Numeric facts behind the weighted-domination bookkeeping.

Everything here is elementary real analysis: entropy/KL identities for
binomial tails, the x*log(M/x) <= M/e envelope, the rank-one PSD domination
criterion, and the four-step chain of upper bounds on each weighted summand
that makes the weight schedule sum below one. The entropy facts and the
summand chains have one array code path; a scalar argument is a 0-d array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import exp, lgamma, log
from typing import NamedTuple

import numpy as np

from ..linalg import RANK_TOL, herm_eig, psd_check, rank_mask
from .domination import budget_exponent, check_admissible

__all__ = [
    "CHAIN_SLACK",
    "EQUIV_PSD_TOL",
    "PsdDominationWitness",
    "SummandChains",
    "binary_entropy",
    "kl_binary",
    "log_binom",
    "psd_domination_equiv",
    "summand_chain",
    "summand_chains",
    "xlog_bound_values",
]


# the relative pad each bound of a summand chain may exceed its successor by
CHAIN_SLACK = 1e-12
# the eigenvalue floor of psd_domination_equiv's direct verdict on M - psi psi^dagger
EQUIV_PSD_TOL = 1e-9

# binary_entropy, kl_binary and log_binom take a scalar or an array and
# return an array of the same shape (0-d for a scalar). Every log and
# log-gamma comes from ``math``, entry by entry, so each entry equals the
# Python-float value bit for bit. A skipped branch (p = 0 or p = 1) takes the
# value 0.0 = log(1).


def _math(f, x, where=True) -> np.ndarray:
    """``f`` (log or lgamma) of each entry of ``x``, and f(1) = 0.0 where
    ``where`` fails."""
    x = np.where(where, x, 1)
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def binary_entropy(p):
    """H(p) = -p ln p - (1-p) ln(1-p) in nats, with H(0) = H(1) = 0."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    return 0.0 - p * _math(log, p, p > 0.0) - (1.0 - p) * _math(log, 1.0 - p, p < 1.0)


def kl_binary(p, q: float):
    """D(p || q) between coin biases, in nats."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"need 0 < q < 1, got {q}")
    return (
        0.0
        + p * _math(log, p / q, p > 0.0)
        + (1.0 - p) * _math(log, (1.0 - p) / (1.0 - q), p < 1.0)
    )


@cache
def _log_factorials(size: int) -> np.ndarray:
    """ln m! = lgamma(m + 1) for m < size, kept read-only for the life of
    the process."""
    table = _math(lgamma, np.arange(1, size + 1))
    table.flags.writeable = False
    return table


def log_binom(n, k):
    """ln C(n, k) = ln n! - ln k! - ln (n-k)! for integers, each ln m! read
    from one table of lgamma(m + 1), whose size is the power of two above
    max(n); exact enough for chained comparisons."""
    n, k = np.asarray(n), np.asarray(k)
    if not np.all((0 <= k) & (k <= n)):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    log_fact = _log_factorials(1 << int(n.max()).bit_length())
    return log_fact[n] - log_fact[k] - log_fact[n - k]


def xlog_bound_values(budget: float, xs) -> tuple[np.ndarray, float]:
    """Values of x * ln(budget / x) (0 at x = 0) and the envelope budget / e.

    The map is concave with its maximum budget/e attained at x = budget/e.
    """
    if budget <= 0:
        raise ValueError(f"need budget > 0, got {budget}")
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0) or np.any(xs > budget):
        raise ValueError("need 0 <= x <= budget for every input")
    out = np.zeros_like(xs)
    pos = xs > 0
    out[pos] = xs[pos] * np.log(budget / xs[pos])
    return out, budget / exp(1.0)


class PsdDominationWitness(NamedTuple):
    quadratic_form: float
    support_residual: float
    dominates: bool


def psd_domination_equiv(m: np.ndarray, psi: np.ndarray) -> PsdDominationWitness:
    """Witness data for: M >= psi psi^dagger iff psi in range(M) and
    psi^dagger M^+ psi <= 1.

    Returns the quadratic form, the relative out-of-support norm of psi, and
    the direct PSD verdict on M - psi psi^dagger, so a caller can confront
    the two characterizations on the same inputs.
    """
    m = np.asarray(m, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    # M^+ and the projector onto M's support, both from the eigenpairs
    # rank_mask keeps of one eigensolve
    vals, vecs = herm_eig(m)
    keep = rank_mask(vals, RANK_TOL)
    cols = vecs[:, keep]
    q = float((psi.conj() @ ((cols * (1.0 / vals[keep])) @ cols.conj().T @ psi)).real)
    norm = np.linalg.norm(psi)
    residual = 0.0
    if norm > 0:
        residual = float(np.linalg.norm(psi - cols @ cols.conj().T @ psi)) / float(norm)
    verdict = psd_check(m - np.outer(psi, psi.conj()), tol=EQUIV_PSD_TOL)
    return PsdDominationWitness(
        quadratic_form=q, support_residual=residual, dominates=bool(verdict.ok)
    )


@dataclass(frozen=True, eq=False)
class SummandChains:
    """Chained log-domain upper bounds on the weighted-sum terms of
    summands ``i``, one array entry per summand.

    t_exact      ln[ C(n,i) (1-eps^2)^{n-i} eps^{2i} C(d1 d2 + i - 2, i) ]
    t_entropy    -n D(i/n || eps^2) + (d1 d2 + i) H(i / (d1 d2 + i))
    t_simplified -i ln(i / (n eps^2)) + i ln(1 + d1 d2 / i) + 2 i   (0 at i=0)
    t_budget     sqrt(8 n eps^2 d1 d2) if i < d1 d2 else -2 i

    In the admissible window each bound dominates its predecessor.
    """

    i: np.ndarray
    t_exact: np.ndarray
    t_entropy: np.ndarray
    t_simplified: np.ndarray
    t_budget: np.ndarray

    def chain_ok(self) -> np.ndarray:
        """Whether each summand's chain holds up to the pad
        CHAIN_SLACK * max(1, |t_exact|, |t_budget|), as a boolean array."""
        pad = CHAIN_SLACK * np.maximum(np.maximum(1.0, np.abs(self.t_exact)), np.abs(self.t_budget))
        return (
            (self.t_exact <= self.t_entropy + pad)
            & (self.t_entropy <= self.t_simplified + pad)
            & (self.t_simplified <= self.t_budget + pad)
        )


def summand_chain(d1: int, d2: int, n: int, eps: float, i: int) -> SummandChains:
    """The four-step bound chain for summand i of the weighted domination
    sum, as 0-d SummandChains."""
    i = np.asarray(i)
    return SummandChains(i, *_summand_terms(d1, d2, n, eps, i))


def summand_chains(d1: int, d2: int, n: int, eps: float) -> SummandChains:
    """The bound chains of summands 0..n as arrays, each entry the value
    summand_chain gives one at a time."""
    i = np.arange(n + 1)
    return SummandChains(i, *_summand_terms(d1, d2, n, eps, i))


def _summand_terms(d1: int, d2: int, n: int, eps: float, i):
    """t_exact, t_entropy, t_simplified and t_budget of the summands in the
    int array ``i``, by the array facts above."""
    check_admissible(d1, d2, n, eps)
    if not np.all((0 <= i) & (i <= n)):
        raise ValueError(f"need 0 <= i <= n, got i={i}")
    d = d1 * d2
    eps2 = eps**2
    t_exact = (
        log_binom(n, i) + (n - i) * log(1.0 - eps2) + 2.0 * i * log(eps) + log_binom(d + i - 2, i)
    )
    t_entropy = -n * kl_binary(i / n, eps2) + (d + i) * binary_entropy(i / (d + i))
    # 0.0 at i = 0, where each term has a zero factor
    t_simplified = (
        -i * _math(log, i / (n * eps2), i > 0)
        + i * _math(log, 1.0 + d / np.maximum(i, 1), i > 0)
        + 2.0 * i
    )
    t_budget = np.where(i < d, budget_exponent(d1, d2, n, eps), -2.0 * i)
    return t_exact, t_entropy, t_simplified, t_budget
