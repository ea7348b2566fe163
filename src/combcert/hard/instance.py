"""The hard two-branch isometry family and its gamma interference vectors.

A family member is V = sqrt(1 - eps^2) V0 + eps R(U) Delta, where V0 and
Delta are fixed isometries C^{d1} -> C^{d2} with orthogonal images and R(U)
rotates the orthocomplement of im(V0) by U while fixing im(V0) pointwise.

For n parallel uses, |V>>^{(x) n} expands over the subset-symmetrized vectors

    gamma_i = binom(n, i)^{-1/2} sum_{|S| = i}
              (x)_{j not in S} |V0>>_j  (x)_{j in S} |Delta>>_j,

which are pairwise orthogonal with squared norm d1^n. Slot layout throughout:
(B_1, A_1, B_2, A_2, ...), each slot carrying vec of a d2 x d1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from ..linalg import (
    FactoredPsd,
    LabeledOperator,
    haar_isometry,
    nullspace,
    partial_trace,
    vectorize,
)

__all__ = [
    "HardInstanceSpec",
    "GammaFamily",
    "gamma_state",
    "gamma_outer",
    "gamma_recursion_residual",
    "hard_vector_expansion",
    "kron_power",
    "rho_action",
]


def kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector or matrix."""
    out = np.asarray(v)
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out


@dataclass(frozen=True)
class HardInstanceSpec:
    """Fixed isometry pair (V0, Delta) with orthogonal images.

    ``rotor_dim`` = d2 - d1 is the dimension the unitary parameter acts on;
    orthogonality of the images forces rotor_dim >= d1.
    """

    v0: np.ndarray
    delta: np.ndarray
    tol: float = 1e-10

    def __post_init__(self) -> None:
        v0 = np.asarray(self.v0, dtype=complex)
        delta = np.asarray(self.delta, dtype=complex)
        object.__setattr__(self, "v0", v0)
        object.__setattr__(self, "delta", delta)
        if v0.ndim != 2 or v0.shape != delta.shape:
            raise ValueError(f"V0 and Delta must share a 2d shape, got {v0.shape} vs {delta.shape}")
        d2, d1 = v0.shape
        if d2 < 2 * d1:
            raise ValueError(f"orthogonal images need d2 >= 2*d1, got d2={d2}, d1={d1}")
        eye = np.eye(d1)
        for name, m in (("V0", v0), ("Delta", delta)):
            defect = float(np.abs(m.conj().T @ m - eye).max())
            if defect > self.tol:
                raise ValueError(f"{name} is not an isometry: defect {defect:.3e}")
        cross = float(np.abs(v0.conj().T @ delta).max())
        if cross > self.tol:
            raise ValueError(f"V0 and Delta images are not orthogonal: overlap {cross:.3e}")

    @property
    def d1(self) -> int:
        return self.v0.shape[1]

    @property
    def d2(self) -> int:
        return self.v0.shape[0]

    @property
    def rotor_dim(self) -> int:
        return self.d2 - self.d1

    @staticmethod
    def concrete(d1: int, d2: int) -> "HardInstanceSpec":
        """Canonical pair: V0 embeds onto the first d1 basis vectors, Delta
        onto the next d1."""
        if d2 < 2 * d1:
            raise ValueError(f"need d2 >= 2*d1, got d2={d2}, d1={d1}")
        v0 = np.eye(d2, d1, dtype=complex)
        delta = np.zeros((d2, d1), dtype=complex)
        delta[d1 : 2 * d1, :] = np.eye(d1)
        return HardInstanceSpec(v0, delta)

    @staticmethod
    def random(d1: int, d2: int, rng: np.random.Generator) -> "HardInstanceSpec":
        """Haar-random orthogonal-image pair."""
        w = haar_isometry(2 * d1, d2, rng)
        return HardInstanceSpec(w[:, :d1], w[:, d1:])

    def complement_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of im(V0)^perp, shape (d2, d2-d1)."""
        return nullspace(self.v0.conj().T)

    def delta_coords(self, iota: np.ndarray | None = None) -> np.ndarray:
        """Delta expressed in the complement basis: iota^dagger Delta."""
        if iota is None:
            iota = self.complement_basis()
        return iota.conj().T @ self.delta

    def rotor(self, u: np.ndarray, iota: np.ndarray | None = None) -> np.ndarray:
        """R(U) = V0 V0^dagger + iota U iota^dagger on C^{d2}."""
        u = np.asarray(u, dtype=complex)
        k = self.rotor_dim
        if u.shape != (k, k):
            raise ValueError(f"rotation must act on dimension {k}, got shape {u.shape}")
        if float(np.abs(u.conj().T @ u - np.eye(k)).max()) > 1e-9:
            raise ValueError("rotation parameter is not unitary")
        if iota is None:
            iota = self.complement_basis()
        return self.v0 @ self.v0.conj().T + iota @ u @ iota.conj().T

    def member(self, eps: float, u: np.ndarray, iota: np.ndarray | None = None) -> np.ndarray:
        """Family member sqrt(1-eps^2) V0 + eps R(U) Delta (a d2 x d1 isometry)."""
        if not 0 <= eps < 1:
            raise ValueError(f"eps must lie in [0, 1), got {eps}")
        if iota is None:
            iota = self.complement_basis()
        return np.sqrt(1 - eps**2) * self.v0 + eps * (iota @ np.asarray(u) @ self.delta_coords(iota))


def rho_action(spec: HardInstanceSpec, n: int, u: np.ndarray, iota: np.ndarray | None = None) -> np.ndarray:
    """(R(U) (x) I_{d1})^{(x) n} on the full slot space."""
    slot = np.kron(spec.rotor(u, iota), np.eye(spec.d1))
    return kron_power(slot, n)


def gamma_state(spec: HardInstanceSpec, n: int, i: int) -> np.ndarray:
    """gamma_i on n slots; vector of dimension (d1*d2)^n, slot layout (B, A) per copy."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    v0v = vectorize(spec.v0)
    dv = vectorize(spec.delta)
    dim = (spec.d1 * spec.d2) ** n
    acc = np.zeros(dim, dtype=complex)
    for subset in combinations(range(n), i):
        chosen = set(subset)
        vec = np.ones(1, dtype=complex)
        for j in range(n):
            vec = np.kron(vec, dv if j in chosen else v0v)
        acc += vec
    return acc / np.sqrt(comb(n, i))


def slot_spaces(spec: HardInstanceSpec, n: int) -> tuple[tuple[str, int], ...]:
    """Labeled spaces (B1, A1, ..., Bn, An) matching the gamma slot layout."""
    out: list[tuple[str, int]] = []
    for j in range(1, n + 1):
        out.append((f"B{j}", spec.d2))
        out.append((f"A{j}", spec.d1))
    return tuple(out)


def comb_sequence(n: int) -> tuple[str, ...]:
    """Comb space order (A1, B1, ..., An, Bn)."""
    seq: list[str] = []
    for j in range(1, n + 1):
        seq += [f"A{j}", f"B{j}"]
    return tuple(seq)


def gamma_outer(spec: HardInstanceSpec, n: int, i: int) -> LabeledOperator:
    """|gamma_i><gamma_i| as a labeled operator on the slot spaces."""
    g = gamma_state(spec, n, i)
    return LabeledOperator(np.outer(g, g.conj()), slot_spaces(spec, n))


class GammaFamily:
    """Cached gamma vectors for one (spec, n) cell."""

    def __init__(self, spec: HardInstanceSpec, n: int):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.spec = spec
        self.n = n
        self._vectors: dict[int, np.ndarray] = {}

    def gamma(self, i: int) -> np.ndarray:
        if i not in self._vectors:
            self._vectors[i] = gamma_state(self.spec, self.n, i)
        return self._vectors[i]

    def factor(self, i: int) -> FactoredPsd:
        """|gamma_i><gamma_i| as the rank-one factor (gamma_i, [1])."""
        return FactoredPsd(self.gamma(i)[:, None], np.ones(1), slot_spaces(self.spec, self.n))

    def gram(self) -> np.ndarray:
        """Matrix of inner products <gamma_i | gamma_j> (should be d1^n delta_ij)."""
        vs = [self.gamma(i) for i in range(self.n + 1)]
        return np.array([[np.vdot(a, b) for b in vs] for a in vs])

    @property
    def comb_sequence(self) -> tuple[str, ...]:
        return comb_sequence(self.n)


def gamma_recursion_residual(spec: HardInstanceSpec, n: int, i: int) -> float:
    """Residual of the last-slot trace recursion for |gamma_i><gamma_i|.

    Tracing the final output slot leaves a two-term binomial-ratio mixture of
    the (n-1)-slot gamma outer products, tensored with I on the final input
    slot: coefficients binom(n-1, i)/binom(n, i) and binom(n-1, i-1)/binom(n, i).
    """
    if n < 2:
        raise ValueError("recursion needs n >= 2")
    g = gamma_state(spec, n, i)
    full = np.outer(g, g.conj())
    slot = spec.d1 * spec.d2
    dims = (slot,) * (n - 1) + (spec.d2, spec.d1)
    lhs = partial_trace(full, dims, [n - 1])

    dim_rest = slot ** (n - 1)
    mix = np.zeros((dim_rest, dim_rest), dtype=complex)
    if i <= n - 1:
        gi = gamma_state(spec, n - 1, i)
        mix += (comb(n - 1, i) / comb(n, i)) * np.outer(gi, gi.conj())
    if i >= 1:
        gm = gamma_state(spec, n - 1, i - 1)
        mix += (comb(n - 1, i - 1) / comb(n, i)) * np.outer(gm, gm.conj())
    rhs = np.kron(mix, np.eye(spec.d1))
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class ExpansionCheck:
    residual: float
    coefficients: tuple[float, ...]


def hard_vector_expansion(
    spec: HardInstanceSpec, n: int, eps: float, u: np.ndarray
) -> ExpansionCheck:
    """Residual of |V_{eps,U}>>^{(x) n} = sum_i c_i rho(U) |gamma_i> with
    c_i = (sqrt(1-eps^2))^{n-i} eps^i sqrt(binom(n, i))."""
    iota = spec.complement_basis()
    v = spec.member(eps, u, iota)
    lhs = kron_power(vectorize(v), n)
    rho = rho_action(spec, n, u, iota)
    coeffs = []
    rhs = np.zeros_like(lhs)
    for i in range(n + 1):
        c = (np.sqrt(1 - eps**2)) ** (n - i) * eps**i * np.sqrt(comb(n, i))
        coeffs.append(float(c))
        rhs += c * (rho @ gamma_state(spec, n, i))
    return ExpansionCheck(
        residual=float(np.abs(lhs - rhs).max()),
        coefficients=tuple(coeffs),
    )
