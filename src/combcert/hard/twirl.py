"""Three routes to the rotation-twirled gamma operators.

Gamma_i = E_U[ rho(U) |gamma_i><gamma_i| rho(U)^dagger ] with
rho(U) = (R(U) (x) I_{d1})^{(x) n} and the expectation over the Haar measure
of the rotor group U(d2 - d1).

Routes:
  * exact-commutant — the twirl is the Hilbert-Schmidt-orthogonal projection
    onto the commutant of the rho image; a nullspace of stacked commutator
    maps over a few generic generators pins the commutant down exactly.
    R(U) fixes im(V0), so in the basis ([V0 | iota] (x) I_{d1})^{(x) n} every
    rho(U) is block-diagonal over the 2^n patterns of which slots lie in
    im(iota), and the nullspace is solved one (row pattern, column pattern)
    block at a time. This uses no Schur-Weyl duality, so the route stays
    independent of the permutation frame.
  * permutation-frame (Weingarten-style) — for the i twirled slots the
    commutant of U^{(x) i} (x) I is spanned by permutation operators; the
    frame projection with the (pseudo-inverted) cycle Gram matrix gives the
    twirl in closed form, valid for any rotor dimension including singular
    Gram matrices. In the complement frame iota the twirled core depends on
    (d2 - d1, d1, i) alone and lives on the symmetric subspace
    Sym^i(C^{d2-d1} (x) C^{d1}), where it is solved at dimension
    C((d2-d1)*d1 + i - 1, i). That is sector i of Sym^n(M) (:mod:`.modes`),
    where :func:`gamma_twirl_modes` returns it.
  * monte-carlo — a batched Haar-sample average on sector i of Sym^n(M), for
    spot checks at scale; it uses neither of the routes above.

:func:`gamma_twirl_modes`, the one Gamma_i entry point, takes the first exact
route. A slot-space Gamma_i is formed only by :func:`gamma_twirl_exact_commutant`
and :func:`gamma_twirl_weingarten` (the sector operator mapped by E_n,
:func:`embedding`), for the route cross-check and the stashed sample.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import permutations, product
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from ..linalg import (
    RANK_TOL,
    haar_unitary,
    haar_unitary_batch,
    herm_eig,
    rank_mask,
    vectorize,
)
from .instance import (
    HardInstanceSpec,
    gamma_state,
    kron_power,
    on_each_slot,
    subset_sum,
)
from .modes import SectorPsd, delta_modes, power_coords, sym_basis

__all__ = [
    "COMMUTANT_DIM_CAP",
    "COMMUTANT_NULL_CUT",
    "CORE_RANK_TOL",
    "PERMUTATION_ORDER_CAP",
    "ROTOR_LEAK_TOL",
    "CommutantProjector",
    "commutant_projector",
    "embedding",
    "exact_routes",
    "gamma_twirl_exact_commutant",
    "gamma_twirl_weingarten",
    "gamma_twirl_monte_carlo",
    "gamma_twirl_modes",
]

COMMUTANT_DIM_CAP = 48
PERMUTATION_ORDER_CAP = 4

# commutant_projector: the largest entry a generator may have off the
# (im V0, im iota) blocks, and the relative eigenvalue cut of the commutator
# blocks' nullspace
ROTOR_LEAK_TOL = 1e-12
COMMUTANT_NULL_CUT = 1e-10
# _twirled_core: the relative cut of its Gram pseudo-inverse and of its
# eigenvalues
CORE_RANK_TOL = 1e-12


def exact_routes(d1: int, d2: int, n: int, i: int) -> tuple[str, ...]:
    """The exact routes that take Gamma_i at n slots on the (d1, d2) cell,
    in the order :func:`gamma_twirl_modes` prefers them: "frame" while
    i <= PERMUTATION_ORDER_CAP, "commutant" while (d1*d2)^n <= COMMUTANT_DIM_CAP."""
    frame = ("frame",) if i <= PERMUTATION_ORDER_CAP else ()
    commutant = ("commutant",) if (d1 * d2) ** n <= COMMUTANT_DIM_CAP else ()
    return frame + commutant


class CommutantProjector(NamedTuple):
    """Orthonormal basis of a matrix-group commutant, as vectorized columns."""

    basis: np.ndarray
    dim: int

    def twirl(self, x: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt-orthogonal projection of x onto the commutant."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"operator shape {x.shape} does not match dimension {self.dim}")
        v = self.basis.conj().T @ x.reshape(-1)
        return (self.basis @ v).reshape(self.dim, self.dim)


def commutant_projector(spec: HardInstanceSpec, n: int, seed: int = 0) -> CommutantProjector:
    """Projector onto the commutant of {rho(U)} from generic Haar generators.

    A generic tuple of group elements generates a dense subgroup, so the
    joint commutant of four Haar samples equals the commutant of the whole
    rho image almost surely. The commutant is the nullspace of
    H = sum_g (2I - M_g - M_g^dagger), M_g = g (x) conj(g) the conjugation
    X -> gXg^dagger on vectorized operators (for unitary g this is
    sum_g C_g^dagger C_g with C_g the commutator map X -> gX - Xg).

    H is solved block by block. In the basis W = ([V0 | iota] (x) I_{d1})^{(x) n}
    each R(U) is diag(I, U), checked on every generator, so rho(U) is
    block-diagonal over the 2^n patterns s of which slots lie in im(iota),
    and conjugation maps each (row pattern, column pattern) block of
    W^dagger X W to itself. Every block's eigenvalues up to
    COMMUTANT_NULL_CUT * max(1, largest eigenvalue of any block) are kept; a
    kept block eigenvector Y maps back to the commutant element
    W_s Y W_t^dagger.
    """
    dim = (spec.d1 * spec.d2) ** n
    if "commutant" not in exact_routes(spec.d1, spec.d2, n, 0):
        raise ValueError(
            f"exact-commutant twirl dimension {dim} exceeds the cap {COMMUTANT_DIM_CAP}; "
            f"use the permutation-frame or monte-carlo route"
        )
    rng = np.random.default_rng(seed)
    d1 = spec.d1
    eye = np.eye(d1)
    iota = spec.iota
    slot_basis = np.hstack([spec.v0, iota])
    rotors = []
    for _ in range(4):
        r = slot_basis.conj().T @ spec.rotor(haar_unitary(spec.rotor_dim, rng)) @ slot_basis
        leak = max(float(np.abs(r[:d1, d1:]).max()), float(np.abs(r[d1:, :d1]).max()))
        if leak > ROTOR_LEAK_TOL:
            raise ValueError(f"rotor does not fix im(V0): off-block entry {leak:.3e}")
        rotors.append(r)
    rotors = np.array(rotors)
    # slot pattern 0 is im(V0) (x) C^{d1}, pattern 1 is im(iota) (x) C^{d1}
    slot_frames = (np.kron(spec.v0, eye), np.kron(iota, eye))
    slot_gens = (np.kron(rotors[:, :d1, :d1], eye), np.kron(rotors[:, d1:, d1:], eye))
    patterns = list(product((0, 1), repeat=n))
    frames = [reduce(np.kron, [slot_frames[p] for p in s]) for s in patterns]
    gens = [reduce(_kron_stack, [slot_gens[p] for p in s]) for s in patterns]

    blocks = []
    for a, b in product(range(len(patterns)), repeat=2):
        m = _kron_stack(gens[a], gens[b].conj()).sum(axis=0)
        h = 2.0 * len(rotors) * np.eye(m.shape[0]) - (m + m.conj().T)
        blocks.append((a, b, herm_eig(h)))
    cut = COMMUTANT_NULL_CUT * max(1.0, max(float(vals[-1]) for _, _, (vals, _) in blocks))

    rows = []
    for a, b, (vals, vecs) in blocks:
        y = vecs[:, vals <= cut].T.reshape(-1, frames[a].shape[1], frames[b].shape[1])
        rows.append((frames[a] @ y @ frames[b].conj().T).reshape(len(y), dim * dim))
    return CommutantProjector(basis=np.concatenate(rows).T, dim=dim)


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products a[g] (x) b[g] of two equally long stacks of matrices."""
    out = np.einsum("gij,gkl->gikjl", a, b)
    return out.reshape(len(a), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def gamma_twirl_exact_commutant(
    spec: HardInstanceSpec,
    n: int,
    i: int,
    projector: CommutantProjector | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Gamma_i as the commutant projection of |gamma_i><gamma_i|."""
    if projector is None:
        projector = commutant_projector(spec, n, seed=seed)
    g = gamma_state(spec, n, i)
    out = projector.twirl(np.outer(g, g.conj()))
    return (out + out.conj().T) / 2


def _cycle_count(p: tuple[int, ...]) -> int:
    """Number of cycles of the permutation j -> p[j], counted by their least element."""
    count = 0
    for j in range(len(p)):
        x = p[j]
        while x > j:
            x = p[x]
        count += x == j
    return count


@cache
def _twirled_core(k: int, d1: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of N = E_U[(U^{(x)i} (x) I) |D^{(x)i}>><<D^{(x)i}| (...)^dg]
    for any k x d1 isometry D, in the occupation basis of
    Sym^i(C^k (x) C^{d1}) (:func:`modes.sym_basis`, slot order
    (w_1, a_1, ..., w_i, a_i)), which holds N's range.

    UD is a Haar isometry whatever D is, so N depends on (k, d1, i) alone.
    The frame projection with the pseudo-inverted Hilbert-Schmidt Gram
    matrix G_{st} = k^{cycles(s^{-1} t)} of the permutation operators gives
    N = sum_{s,t} (G^+)_{st} p_k(s) (x) p_{d1}(t), valid even when the
    operators are linearly dependent (k < i). G^+ is a class function h of
    s^{-1} t, so N = i! sum_s h(s) (p_k(s) (x) I) on Sym^i(C^k (x) C^{d1}).
    That C(k*d1 + i - 1, i)-square matrix is solved there; eigenvalues up to
    CORE_RANK_TOL of the largest are dropped. Returns the eigenvalues and
    their eigenvectors in the occupation basis, solved once per (k, d1, i)
    in a process; both arrays are read-only.
    """
    perms = list(permutations(range(i)))
    gram = np.array([[float(k) ** _cycle_count(tuple(s.index(x) for x in t)) for t in perms]
                     for s in perms])
    h = np.linalg.pinv(gram, rcond=CORE_RANK_TOL, hermitian=True)[0]  # perms[0] is the identity
    basis = sym_basis(k * d1, i)
    slots = basis.reshape((k, d1) * i + (-1,))
    core = np.zeros((basis.shape[1],) * 2)
    for weight, s in zip(h, perms):
        # p_k(s) (x) I permutes the w axes and leaves the a axes in place
        axes = [2 * s[j // 2] if j % 2 == 0 else j for j in range(2 * i)] + [2 * i]
        core += weight * (basis.T @ slots.transpose(axes).reshape(basis.shape))
    vals, vecs = herm_eig(factorial(i) * core)
    keep = rank_mask(vals, CORE_RANK_TOL)
    vals, vecs = vals[keep], vecs[:, keep]
    vals.flags.writeable = vecs.flags.writeable = False
    return vals, vecs


def embedding(spec: HardInstanceSpec, n: int, i: int) -> np.ndarray:
    """E_n on sector i of Sym^n(M) (see :mod:`.modes`): the isometry from
    the occupation basis of Sym^i(C^k (x) C^{d1}) onto the slot spaces,
    (d1*d2)^n rows; the slot-space reference of the mode coordinates.

    Each basis column is mapped into C^{d2} by iota on each slot and placed
    on every size-i subset of the n slots, tensored with |V0>> elsewhere."""
    d1 = spec.d1
    cols = on_each_slot(spec.iota, sym_basis(spec.rotor_dim * d1, i), i, d1)
    rest = kron_power(vectorize(spec.v0), n - i)
    scale = np.sqrt(comb(n, i) * d1 ** (n - i))
    return subset_sum(cols, rest, n, i, d1 * spec.d2) / scale


def gamma_twirl_modes(spec: HardInstanceSpec, n: int, i: int, seed: int = 0) -> SectorPsd:
    """Gamma_i on sector i of Sym^n(M), by the first of :func:`exact_routes`:
    the permutation-frame core with eigenvalues scaled by d1^{n-i}, else the
    exact commutant projection (built from ``seed``) pulled back by
    :func:`embedding` and cut at RANK_TOL; past both caps the commutant
    projector's ValueError, raised before any allocation."""
    if "frame" in exact_routes(spec.d1, spec.d2, n, i):
        nu, vecs = _twirled_core(spec.rotor_dim, spec.d1, i)
        return SectorPsd(n, i, vecs, spec.d1 ** (n - i) * nu)
    twirled = gamma_twirl_exact_commutant(spec, n, i, seed=seed)
    e = embedding(spec, n, i)
    vals, vecs = herm_eig(e.conj().T @ twirled @ e)
    keep = rank_mask(vals, RANK_TOL)
    return SectorPsd(n, i, vecs[:, keep], vals[keep])


def gamma_twirl_weingarten(spec: HardInstanceSpec, n: int, i: int) -> np.ndarray:
    """Gamma_i via the permutation-frame projection on the i twirled slots,
    as the (d1*d2)^n-square array E_n (sector form) E_n^dagger: the
    :func:`gamma_twirl_modes` operator mapped onto the slot spaces by
    :func:`embedding`, Hermitian part taken."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if "frame" not in exact_routes(spec.d1, spec.d2, n, i):
        raise ValueError(
            f"permutation-frame route supports at most {PERMUTATION_ORDER_CAP} rotated slots, "
            f"got i={i}; "
            f"use the exact-commutant or monte-carlo route"
        )
    op = gamma_twirl_modes(spec, n, i)
    b = embedding(spec, n, i) @ op.vecs
    x = (b * op.vals) @ b.conj().T
    return (x + x.conj().T) / 2


def gamma_twirl_monte_carlo(
    spec: HardInstanceSpec,
    n: int,
    i: int,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Haar-sample estimate of Gamma_i on sector i of Sym^n(M) (the basis of
    :func:`gamma_twirl_modes`) plus the entrywise standard-error scale
    d1^n / sqrt(samples), averaged in batches of 2000 samples.

    rho(U) acts on the rotor modes as U (x) I_{d1}, so each sample's
    rho(U) gamma_i is d1^{(n-i)/2} ((U (x) I_{d1}) delta)^{(x) i}, delta =
    :func:`modes.delta_modes`: C(k*d1 + i - 1, i) entries, not (d1*d2)^n."""
    rng = np.random.default_rng(seed)
    k, d1 = spec.rotor_dim, spec.d1
    delta = delta_modes(spec).reshape(k, d1)
    scale = np.sqrt(d1 ** (n - i))
    acc = np.zeros((comb(k * d1 + i - 1, i),) * 2, dtype=complex)
    done = 0
    while done < samples:
        nb = min(2000, samples - done)
        u = haar_unitary_batch(k, nb, rng)
        p = scale * power_coords(np.einsum("svw,wa->sva", u, delta).reshape(nb, k * d1), i)
        # einsum's own loop, not BLAS: the sum over the batch adds in one
        # order whatever the BLAS kernel and thread count
        acc += np.einsum("si,sj->ij", p, p.conj())
        done += nb
    est = acc / samples
    return (est + est.conj().T) / 2, float(d1**n / np.sqrt(samples))
