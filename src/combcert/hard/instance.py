"""The hard two-branch isometry family and its gamma interference vectors.

A family member is V = sqrt(1 - eps^2) V0 + eps R(U) Delta, where V0 and
Delta are fixed isometries C^{d1} -> C^{d2} with orthogonal images and R(U)
rotates the orthocomplement of im(V0) by U while fixing im(V0) pointwise.

For n parallel uses, |V>>^{(x) n} expands over the subset-symmetrized vectors

    gamma_i = binom(n, i)^{-1/2} sum_{|S| = i}
              (x)_{j not in S} |V0>>_j  (x)_{j in S} |Delta>>_j,

which are pairwise orthogonal with squared norm d1^n. Slot layout throughout:
(B_1, A_1, B_2, A_2, ...), each slot carrying vec of a d2 x d1 matrix.

Two slot-wise kernels build every such object without forming an operator
on all n slots: :func:`on_each_slot` applies (op (x) I_{d1})^{(x) n} one slot
axis at a time, and :func:`subset_sum` places a block on each size-i slot
subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from ..combs import slot_labels
from ..linalg import FactoredPsd, nullspace, vectorize

__all__ = [
    "ISOMETRY_TOL",
    "HardInstanceSpec",
    "gamma_state",
    "gamma_outer",
    "gamma_recursion_residual",
    "hard_vector_expansion",
    "kron_power",
    "on_each_slot",
    "subset_sum",
]

# ||M^dagger M - I||_max of V0 and Delta, and ||V0^dagger Delta||_max
ISOMETRY_TOL = 1e-10


def kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector or matrix; n = 0 gives the
    one-entry unit of ``v``'s dtype and ndim.

    Each factor is np.kron's broadcast outer product with the axes of the
    two operands interleaved, so the entries equal np.kron's bit for bit.
    """
    v = np.asarray(v)
    out = np.ones((1,) * v.ndim, dtype=v.dtype)
    interleave = [ax for j in range(v.ndim) for ax in (j, v.ndim + j)]
    for _ in range(n):
        shape = tuple(a * b for a, b in zip(out.shape, v.shape))
        out = np.multiply.outer(out, v).transpose(interleave).reshape(shape)
    return out


def on_each_slot(op: np.ndarray, y: np.ndarray, n: int, d1: int) -> np.ndarray:
    """(op (x) I_{d1})^{(x) n} applied to the columns of ``y``, one slot at a time.

    ``op`` is an a x b matrix shared by all m columns, or an (a, b, m) stack
    with one operator per column; ``y`` is (b*d1)^n x m and the result
    (a*d1)^n x m. Slot j is read as (done slots, B_j, A_j and later slots,
    column), so the full operator is never formed.
    """
    a, b = op.shape[:2]
    m = y.shape[1]
    ops = "xy" if op.ndim == 2 else "xym"
    for j in range(n):
        y = y.reshape((a * d1) ** j, b, d1 * (b * d1) ** (n - 1 - j), m)
        y = np.einsum(f"{ops},lyrm->lxrm", op, y)
    return y.reshape((a * d1) ** n, m)


def subset_sum(block: np.ndarray, rest: np.ndarray, n: int, i: int, slot: int) -> np.ndarray:
    """sum over size-i subsets S of the n slots of ``block`` on S (x) ``rest``
    on the other slots, each in slot order.

    ``block`` is slot^i x m (m columns done at once) and ``rest`` a vector of
    length slot^(n-i); the result is slot^n x m.
    """
    m = block.shape[1]
    t = (block[:, None, :] * rest[None, :, None]).reshape((slot,) * n + (m,))
    out = np.zeros_like(t)
    for subset in combinations(range(n), i):
        others = tuple(j for j in range(n) if j not in subset)
        out += t.transpose(*np.argsort(subset + others), n)
    return out.reshape(slot**n, m)


@dataclass(frozen=True)
class HardInstanceSpec:
    """Fixed isometry pair (V0, Delta) with orthogonal images.

    ``rotor_dim`` = d2 - d1 is the dimension the unitary parameter acts on;
    orthogonality of the images forces rotor_dim >= d1. ``iota`` is an
    orthonormal basis (columns) of im(V0)^perp, shape (d2, d2-d1), computed
    once per spec. ``v0``, ``delta`` and ``iota`` are read-only copies, so
    the gamma vectors a spec caches (:func:`gamma_state`) stay valid.
    """

    v0: np.ndarray
    delta: np.ndarray
    iota: np.ndarray = field(init=False, repr=False, compare=False)
    _gammas: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        v0 = np.array(self.v0, dtype=complex)
        delta = np.array(self.delta, dtype=complex)
        if v0.ndim != 2 or v0.shape != delta.shape:
            raise ValueError(f"V0 and Delta must share a 2d shape, got {v0.shape} vs {delta.shape}")
        d2, d1 = v0.shape
        if d2 < 2 * d1:
            raise ValueError(f"orthogonal images need d2 >= 2*d1, got d2={d2}, d1={d1}")
        eye = np.eye(d1)
        for name, m in (("V0", v0), ("Delta", delta)):
            defect = float(np.abs(m.conj().T @ m - eye).max())
            if defect > ISOMETRY_TOL:
                raise ValueError(f"{name} is not an isometry: defect {defect:.3e}")
        cross = float(np.abs(v0.conj().T @ delta).max())
        if cross > ISOMETRY_TOL:
            raise ValueError(f"V0 and Delta images are not orthogonal: overlap {cross:.3e}")
        for name, m in (("v0", v0), ("delta", delta), ("iota", nullspace(v0.conj().T))):
            m.flags.writeable = False
            object.__setattr__(self, name, m)

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
    @cache
    def concrete(d1: int, d2: int) -> "HardInstanceSpec":
        """Canonical pair: V0 embeds onto the first d1 basis vectors, Delta
        onto the next d1. One spec per (d1, d2) is built in a process and
        shared by every caller, with the gamma vectors it caches."""
        if d2 < 2 * d1:
            raise ValueError(f"need d2 >= 2*d1, got d2={d2}, d1={d1}")
        v0 = np.eye(d2, d1, dtype=complex)
        delta = np.zeros((d2, d1), dtype=complex)
        delta[d1 : 2 * d1, :] = np.eye(d1)
        return HardInstanceSpec(v0, delta)

    def rotor(self, u: np.ndarray) -> np.ndarray:
        """R(U) = V0 V0^dagger + iota U iota^dagger on C^{d2}."""
        u = np.asarray(u, dtype=complex)
        k = self.rotor_dim
        if u.shape != (k, k):
            raise ValueError(f"rotation must act on dimension {k}, got shape {u.shape}")
        if float(np.abs(u.conj().T @ u - np.eye(k)).max()) > 1e-9:
            raise ValueError("rotation parameter is not unitary")
        return self.v0 @ self.v0.conj().T + self.iota @ u @ self.iota.conj().T

    def member(self, eps: float, u: np.ndarray) -> np.ndarray:
        """Family member sqrt(1-eps^2) V0 + eps R(U) Delta (a d2 x d1 isometry)."""
        if not 0 <= eps < 1:
            raise ValueError(f"eps must lie in [0, 1), got {eps}")
        iota = self.iota
        return np.sqrt(1 - eps**2) * self.v0 + eps * (iota @ np.asarray(u) @ (iota.conj().T @ self.delta))


def gamma_state(spec: HardInstanceSpec, n: int, i: int) -> np.ndarray:
    """gamma_i on n slots; vector of dimension (d1*d2)^n, slot layout (B, A) per copy.

    Built once per (spec, n, i) and kept on the spec; the array returned is
    read-only.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    gamma = spec._gammas.get((n, i))
    if gamma is None:
        block = kron_power(vectorize(spec.delta), i)[:, None]
        rest = kron_power(vectorize(spec.v0), n - i)
        gamma = subset_sum(block, rest, n, i, spec.d1 * spec.d2)[:, 0] / np.sqrt(comb(n, i))
        gamma.flags.writeable = False
        spec._gammas[(n, i)] = gamma
    return gamma


def slot_spaces(spec: HardInstanceSpec, n: int) -> tuple[tuple[str, int], ...]:
    """Labeled spaces (B1, A1, ..., Bn, An) matching the gamma slot layout."""
    out: list[tuple[str, int]] = []
    for j in range(1, n + 1):
        out.append((f"B{j}", spec.d2))
        out.append((f"A{j}", spec.d1))
    return tuple(out)


def comb_sequence(n: int) -> tuple[str, ...]:
    """Comb space order (A1, B1, ..., An, Bn)."""
    return slot_labels(n)


def gamma_outer(spec: HardInstanceSpec, n: int, i: int) -> FactoredPsd:
    """|gamma_i><gamma_i| on the slot spaces as the rank-one factor (gamma_i, [1])."""
    return FactoredPsd(gamma_state(spec, n, i)[:, None], np.ones(1), slot_spaces(spec, n))


def gamma_recursion_residual(spec: HardInstanceSpec, n: int, i: int) -> float:
    """Residual of the last-slot trace recursion for |gamma_i><gamma_i|.

    Tracing the final output slot leaves a two-term binomial-ratio mixture of
    the (n-1)-slot gamma outer products, tensored with I on the final input
    slot: coefficients binom(n-1, i)/binom(n, i) and binom(n-1, i-1)/binom(n, i).
    """
    if n < 2:
        raise ValueError("recursion needs n >= 2")
    lhs = gamma_outer(spec, n, i).partial_trace([f"B{n}"])
    dim_rest = (spec.d1 * spec.d2) ** (n - 1)
    mix = np.zeros((dim_rest, dim_rest), dtype=complex)
    if i <= n - 1:
        gi = gamma_state(spec, n - 1, i)
        mix += (comb(n - 1, i) / comb(n, i)) * np.outer(gi, gi.conj())
    if i >= 1:
        gm = gamma_state(spec, n - 1, i - 1)
        mix += (comb(n - 1, i - 1) / comb(n, i)) * np.outer(gm, gm.conj())
    return lhs.identity_factor_residual(f"A{n}", mix)


def hard_vector_expansion(spec: HardInstanceSpec, n: int, eps: float, u: np.ndarray) -> float:
    """Max-entry residual of |V_{eps,U}>>^{(x) n} = rho(U) sum_i c_i |gamma_i> with
    c_i = (sqrt(1-eps^2))^{n-i} eps^i sqrt(binom(n, i)) and
    rho(U) = (R(U) (x) I_{d1})^{(x) n} applied slot by slot."""
    lhs = kron_power(vectorize(spec.member(eps, u)), n)
    coeffs = [np.sqrt(1 - eps**2) ** (n - i) * eps**i * np.sqrt(comb(n, i)) for i in range(n + 1)]
    gammas = np.stack([gamma_state(spec, n, i) for i in range(n + 1)], axis=1)
    rhs = on_each_slot(spec.rotor(u), (gammas @ coeffs)[:, None], n, spec.d1)[:, 0]
    return float(np.abs(lhs - rhs).max())
