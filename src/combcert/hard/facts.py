"""Scalar facts behind the weighted-domination bookkeeping.

Everything here is elementary real analysis: entropy/KL identities for
binomial tails, the x*log(M/x) <= M/e envelope, the rank-one PSD domination
criterion, and the four-step chain of upper bounds on each weighted summand
that makes the weight schedule sum below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log
from typing import NamedTuple

import numpy as np

from ..linalg import psd_check, pseudo_inverse, support_projector
from .domination import budget_exponent, check_admissible

__all__ = [
    "PsdDominationWitness",
    "SummandChain",
    "binary_entropy",
    "kl_binary",
    "log_binom",
    "psd_domination_equiv",
    "summand_chain",
    "summand_chains",
    "xlog_bound_values",
]


def binary_entropy(p: float) -> float:
    """H(p) = -p ln p - (1-p) ln(1-p) in nats, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    out = 0.0
    if p > 0.0:
        out -= p * log(p)
    if p < 1.0:
        out -= (1.0 - p) * log(1.0 - p)
    return out


def kl_binary(p: float, q: float) -> float:
    """D(p || q) between coin biases, in nats."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"need 0 < q < 1, got {q}")
    out = 0.0
    if p > 0.0:
        out += p * log(p / q)
    if p < 1.0:
        out += (1.0 - p) * log((1.0 - p) / (1.0 - q))
    return out


def log_binom(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma; exact enough for chained comparisons."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


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


def psd_domination_equiv(m: np.ndarray, psi: np.ndarray, tol: float = 1e-9) -> PsdDominationWitness:
    """Witness data for: M >= psi psi^dagger iff psi in range(M) and
    psi^dagger M^+ psi <= 1.

    Returns the quadratic form, the relative out-of-support norm of psi, and
    the direct PSD verdict on M - psi psi^dagger, so a caller can confront
    the two characterizations on the same inputs.
    """
    m = np.asarray(m, dtype=complex)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    q = float((psi.conj() @ (pseudo_inverse(m) @ psi)).real)
    norm = np.linalg.norm(psi)
    residual = 0.0
    if norm > 0:
        residual = float(np.linalg.norm(psi - support_projector(m) @ psi)) / float(norm)
    verdict = psd_check(m - np.outer(psi, psi.conj()), tol=tol)
    return PsdDominationWitness(
        quadratic_form=q, support_residual=residual, dominates=bool(verdict.ok)
    )


@dataclass(frozen=True)
class SummandChain:
    """Chained log-domain upper bounds on one weighted-sum term.

    t_exact      ln[ C(n,i) (1-eps^2)^{n-i} eps^{2i} C(d1 d2 + i - 2, i) ]
    t_entropy    -n D(i/n || eps^2) + (d1 d2 + i) H(i / (d1 d2 + i))
    t_simplified -i ln(i / (n eps^2)) + i ln(1 + d1 d2 / i) + 2 i   (0 at i=0)
    t_budget     sqrt(8 n eps^2 d1 d2) if i < d1 d2 else -2 i

    In the admissible window each bound dominates its predecessor.
    """

    d1: int
    d2: int
    n: int
    eps: float
    i: int
    t_exact: float
    t_entropy: float
    t_simplified: float
    t_budget: float

    def chain_ok(self, slack: float = 1e-12) -> bool:
        pad = slack * max(1.0, abs(self.t_exact), abs(self.t_budget))
        return (
            self.t_exact <= self.t_entropy + pad
            and self.t_entropy <= self.t_simplified + pad
            and self.t_simplified <= self.t_budget + pad
        )


def summand_chain(d1: int, d2: int, n: int, eps: float, i: int) -> SummandChain:
    """The four-step bound chain for summand i of the weighted domination sum."""
    return next(_summand_chains(d1, d2, n, eps, (i,)))


def summand_chains(d1: int, d2: int, n: int, eps: float) -> tuple[SummandChain, ...]:
    """The bound chains of summands 0..n, the same values summand_chain gives
    one at a time, with the window check and the constants of
    (d1, d2, n, eps) computed once."""
    return tuple(_summand_chains(d1, d2, n, eps, range(n + 1)))


def _summand_chains(d1: int, d2: int, n: int, eps: float, indices):
    check_admissible(d1, d2, n, eps)
    d = d1 * d2
    eps2 = eps**2
    log_keep = log(1.0 - eps2)
    log_eps = log(eps)
    n_eps2 = n * eps2
    budget = budget_exponent(d1, d2, n, eps)
    for i in indices:
        if not 0 <= i <= n:
            raise ValueError(f"need 0 <= i <= n, got i={i}")
        t_exact = (
            log_binom(n, i) + (n - i) * log_keep + 2.0 * i * log_eps + log_binom(d + i - 2, i)
        )
        t_entropy = -n * kl_binary(i / n, eps2) + (d + i) * binary_entropy(i / (d + i))
        if i == 0:
            t_simplified = 0.0
        else:
            t_simplified = -i * log(i / n_eps2) + i * log(1.0 + d / i) + 2.0 * i
        yield SummandChain(
            d1=d1,
            d2=d2,
            n=n,
            eps=eps,
            i=i,
            t_exact=t_exact,
            t_entropy=t_entropy,
            t_simplified=t_simplified,
            t_budget=budget if i < d else -2.0 * i,
        )
