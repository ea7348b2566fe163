"""Occupation coordinates of Sym^n(M), the space the hard family lives in.

M ⊂ C^{d2} (x) C^{d1} is spanned by vec(V0) / sqrt(d1) (mode 0) and the
k*d1 vectors vec(iota e_w e_a^T) (mode 1 + w*d1 + a), k = d2 - d1; the
isometry J: C^m -> B (x) A, m = k*d1 + 1, maps each mode to its vector.
Every member vec V(U) lies in M, and every gamma_i, Gamma_i and
v(U)^{(x) n} in Sym^n(M), of dimension C(m + n - 1, n), which E_n maps
isometrically onto the slot spaces (B1, A1, ..., Bn, An): a multiset of
modes goes to the symmetrized tensor power of their J-images.

A basis state of Sym^j(M) is a multiset of j modes, held as its sorted
tuple, in lexicographic order (``itertools.combinations_with_replacement``).
Sector i of Sym^n(M), the states with i quanta in the rotor modes, is then
one contiguous block after the sectors below it, ordered as the occupation
basis of Sym^i(C^k (x) C^{d1}) (:func:`sym_basis`). Splitting off the last
slot, E_j = (E_{j-1} (x) J) S_j (:func:`_raised`), so the comb chain walks on
Sym^{j-1}(M) (x) A_j, never on the (d1*d2)^n slot rows.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from ..combs import CombCertificate
from ..linalg import floor_rule, frobenius

__all__ = [
    "GAMMA_COMB_TOL",
    "SectorPsd",
    "comb_certificate",
    "delta_modes",
    "gamma_modes",
    "mode_isometry",
    "power_coords",
    "sector_slice",
    "sym_basis",
    "trace_last_b",
]


# the PSD floor and chain residual of each gamma_i and Gamma_i comb
GAMMA_COMB_TOL = 1e-7


class SectorPsd(NamedTuple):
    """E_n vecs diag(vals) vecs^dagger E_n^dagger, ``vecs`` orthonormal
    columns on sector ``sector`` of Sym^n(M): its spectrum is ``vals`` and
    zeros."""

    n: int
    sector: int
    vecs: np.ndarray
    vals: np.ndarray


def mode_isometry(spec) -> np.ndarray:
    """J as an array (d2, d1, m): J[b, a, mu] is entry (b, a) of mode mu."""
    d1, d2, k = spec.d1, spec.d2, spec.rotor_dim
    rotor = np.zeros((d2, d1, k, d1), dtype=complex)
    for a in range(d1):
        rotor[:, a, :, a] = spec.iota
    return np.concatenate([spec.v0[:, :, None] / np.sqrt(d1), rotor.reshape(d2, d1, -1)], axis=2)


@cache
def _multisets(modes: int, j: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations_with_replacement(range(modes), j))


def power_coords(x: np.ndarray, j: int) -> np.ndarray:
    """The coordinates of x^{(x) j} in the occupation basis of Sym^j, x on
    the last axis (the leading axes a batch, kept at j = 0 too):
    sqrt(j! / prod alpha_mu!) prod_mu x_mu^{alpha_mu} at the state alpha,
    multiplied elementwise in the sorted tuple's order."""
    states = _multisets(x.shape[-1], j)
    out = np.array([np.sqrt(factorial(j) / prod(factorial(t.count(mu)) for mu in set(t)))
                    for t in states])
    out = np.broadcast_to(out, x.shape[:-1] + out.shape)
    for slot in range(j):
        out = out * x[..., [t[slot] for t in states]]
    return out


@cache
def sym_basis(slots: int, i: int) -> np.ndarray:
    """Orthonormal occupation-number basis of Sym^i(C^slots) as the columns
    of a slots^i-row array: one real column per multiset of slot states, in
    the order of :func:`_multisets`, spread evenly over its orderings.
    Read-only."""
    states = np.sort(np.indices((slots,) * i).reshape(i, slots**i), axis=0)
    _, col, size = np.unique(states, axis=1, return_inverse=True, return_counts=True)
    col = col.reshape(-1)
    basis = np.zeros((slots**i, size.size))
    basis[np.arange(slots**i), col] = 1 / np.sqrt(size[col])
    basis.flags.writeable = False
    return basis


def sector_slice(modes: int, n: int, i: int) -> slice:
    """The rows of sector i (i quanta in modes 1..modes-1) in Sym^n(C^modes)."""
    start = sum(comb(modes + j - 2, j) for j in range(i))
    return slice(start, start + comb(modes + i - 2, i))


@cache
def _raised(modes: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of S_j, the isometry Sym^j -> Sym^{j-1} (x) C^modes that takes
    alpha to sum_mu sqrt(alpha_mu / j) |alpha - e_mu> (x) |mu>: row
    (beta, mu) has one entry, at column alpha = beta + e_mu, of value
    sqrt(alpha_mu / j). Returns the columns and the values as two read-only
    (states of Sym^{j-1}) x modes arrays."""
    index = {t: c for c, t in enumerate(_multisets(modes, j))}
    lower = _multisets(modes, j - 1)
    up = np.array([[index[tuple(sorted(b + (mu,)))] for mu in range(modes)] for b in lower])
    entry = np.array([[np.sqrt((b.count(mu) + 1) / j) for mu in range(modes)] for b in lower])
    up.flags.writeable = entry.flags.writeable = False
    return up, entry


def trace_last_b(spec, x: np.ndarray, j: int, rows: slice = slice(None)) -> np.ndarray:
    """tr_{B_j} of E_j x E_j^dagger on Sym^{j-1}(M) (x) A_j, for x on the
    Sym^j(M) rows ``rows`` (zero elsewhere): S_j x S_j^T, gathered entry by
    entry (:func:`_raised`), with the last mode's J-image traced over B.
    Every sum runs in numpy's own loops, so no value depends on the BLAS
    thread count."""
    jm = mode_isometry(spec)
    d1, modes = jm.shape[1:]
    up, entry = _raised(modes, j)
    start, stop, _ = rows.indices(comb(modes + j - 1, j))
    inside = (up >= start) & (up < stop)
    up, entry = np.where(inside, up - start, 0), np.where(inside, entry, 0.0)
    # K[(a, e), mu, nu] = sum_b J[b, a, mu] conj(J[b, e, nu])
    kernel = np.einsum("bam,ben->aemn", jm, jm.conj()).reshape(d1 * d1, modes, modes)
    lower = len(up)
    y = np.zeros((lower, lower, d1 * d1), dtype=complex)
    for mu in range(modes):
        # block[p, q, nu] = (S_j x S_j^T)[(p, mu), (q, nu)]
        block = entry[:, mu, None, None] * x[up[:, mu, None, None], up[None]] * entry[None]
        y += np.einsum("pqn,kn->pqk", block, kernel[:, mu])
    return y.reshape(lower, lower, d1, d1).transpose(0, 2, 1, 3).reshape(lower * d1, -1)


def delta_modes(spec) -> np.ndarray:
    """J^dagger vec Delta on the k*d1 rotor modes, entry w*d1 + a for mode
    1 + w*d1 + a (its mode-0 entry, <V0|Delta> / sqrt(d1), is zero)."""
    return (spec.delta.reshape(-1) @ mode_isometry(spec).reshape(spec.delta.size, -1).conj())[1:]


def gamma_modes(spec, n: int, i: int) -> np.ndarray:
    """gamma_i on sector i of Sym^n(M): d1^{(n-i)/2} (J^dagger vec Delta)^{(x) i}
    on the rotor modes (:func:`delta_modes`)."""
    return np.sqrt(spec.d1 ** (n - i)) * power_coords(delta_modes(spec), i)


def comb_certificate(spec, op: SectorPsd) -> CombCertificate:
    """:func:`combs.certify_comb` of the slot-space operator of ``op`` over
    (A1, B1, ..., An, Bn), both tolerances GAMMA_COMB_TOL, read in Sym^j(M).

    Positivity is the floor rule on ``vals`` and a zero (a sector is a proper
    subspace of the slot spaces). Each chain residual is ||Y - Z (x) I_A||_F
    on Sym^{j-1}(M) (x) A_j, which bounds the slot-basis max-entry residual
    from above, since E_{j-1} (x) I_A is an isometry; the last is |X^(0) - 1|.
    """
    d1 = spec.d1
    verdict = floor_rule(np.append(op.vals, 0.0)[None], GAMMA_COMB_TOL)[0]
    rows = sector_slice(spec.rotor_dim * d1 + 1, op.n, op.sector)
    # einsum's own loop, not BLAS, as every sum of the walk (trace_last_b)
    y = trace_last_b(spec, np.einsum("ik,jk->ij", op.vecs * op.vals, op.vecs.conj()), op.n, rows)
    residuals = []
    for j in range(op.n, 0, -1):
        lower = y.shape[0] // d1
        z = np.einsum("paqa->pq", y.reshape(lower, d1, lower, d1)) / d1
        residuals.append(float(frobenius(y - np.kron(z, np.eye(d1)))))
        if j > 1:
            y = trace_last_b(spec, z, j - 1)
    residuals.append(float(abs(z[0, 0] - 1.0)))
    ok = verdict.ok and max(residuals) <= GAMMA_COMB_TOL
    return CombCertificate(bool(ok), verdict.min_eig, tuple(residuals))
