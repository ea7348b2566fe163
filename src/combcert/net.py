"""Packing-net channel family: construction and empirical audits.

Two templates produce low-Kraus-rank channel families indexed by a single
Haar unitary, with the rotated branch kept image-orthogonal to a fixed
reference branch so the family plugs into the hard-instance machinery:

  * even mode — the output space is doubled by a flag qubit; the reference
    isometry rides flag 0 and the rotated branch rides flag 1, so the images
    are orthogonal by construction. Output dimension 2*d2, rotation side r*d2.
  * odd mode — for odd output dimension d2 with r*(d2-1) < 2*d1 <= r*d2, the
    output splits into two half-spaces and a middle level; the reference
    branch occupies the lower half plus part of the middle column of the
    ancilla, the rotated branch the upper half plus a disjoint part of the
    middle. Rotation side r*(d2-1)/2.

The rotation space is a set of global rows, ``BlockIsometry.rotor_rows``: the
rotated branch is U eye(u_dim, d1) placed on those rows, plus the fixed
``delta_prime``. Even mode rotates every row; odd mode the upper half-space
of each ancilla block. No embedding matrix is formed.

The audits are sampled surrogates for the existential net statements: they
report empirical minima/means over Haar-sampled unitary pairs together with
the exact finite identities used in the separation proof, and never claim to
certify the existential cardinality results.

Each audit runs its trials as stacks of at most AUDIT_BATCH: the linear
algebra (QR, eigensolves, SVDs, products) is one batched call per stack.
The Lipschitz and separation audits draw their Gaussian matrices in the
per-trial order of a one-trial loop, and batched LAPACK and matmul calls
equal the per-matrix calls bit for bit, so their values do not depend on
the batching. The moment audit never forms the (d2*d1)-square operator F:
F has rank at most r, and its moments are traces of r x r Gram products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import NamedTuple

import numpy as np

from .channels import (
    COMPLETENESS_TOL,
    Channel,
    channel_from_isometry,
    choi_distance_lb,
    choi_from_kraus,
    kraus_rank,
)
from .linalg import (
    haar_from_ginibre,
    haar_isometry,
    haar_unitary,
    haar_unitary_batch,
    herm_eig,
    trace_norm,
)

__all__ = [
    "AUDIT_BATCH",
    "BRANCH_ISO_TOL",
    "BRANCH_ORTHO_TOL",
    "EPS_ZERO_TOL",
    "F_ROUTE_TOL",
    "GRAM_REJECTION_BUDGET",
    "GRAM_TOL",
    "IDENTICAL_PAIR_TOL",
    "IDENTITY_TOL",
    "ISO_TOL",
    "LIPSCHITZ_PAD",
    "MIN_LIPSCHITZ_TRIALS",
    "MIN_MOMENT_SAMPLES",
    "MIN_SEPARATION_PAIRS",
    "NILPOTENCY_TOL",
    "SEPARATION_MAX_EPS",
    "BlockIsometry",
    "LipschitzAudit",
    "MomentAudit",
    "NetParams",
    "SeparationAudit",
    "build_block_isometry",
    "build_net_isometry",
    "check_eps",
    "f_operator",
    "lipschitz_audit",
    "moment_audit",
    "rotated_branch",
    "separation_audit",
]

AUDIT_BATCH = 2000  # trials, pairs or samples per stack in the sampled audits
GRAM_REJECTION_BUDGET = 200
MIN_LIPSCHITZ_TRIALS = 100
MIN_MOMENT_SAMPLES = 1000
MIN_SEPARATION_PAIRS = 50
SEPARATION_MAX_EPS = 1e-2

# the net suite's tolerances, all but NILPOTENCY_TOL listed in its reports
ISO_TOL = 1e-10  # ||V^dagger V - I||_F of a family member
F_ROUTE_TOL = 1e-10  # ||F - F'|| between the two construction routes of F
IDENTITY_TOL = 1e-8  # the separation proof's trace-norm identities
NILPOTENCY_TOL = 1e-10  # ||X^2||_F / max(1, tr|X|)^2 of the cross operator X
# the block Gram's largest off-diagonal entry, and its diagonal's pad over
# the ceiling NetParams.gram_bound
GRAM_TOL = 1e-9
EPS_ZERO_TOL = 1e-12  # ||C(U) - C(U')||_F of two eps = 0 members' Choi operators
IDENTICAL_PAIR_TOL = 1e-14  # ||F(U, U)||_F
LIPSCHITZ_PAD = 1e-8  # |f(U') - f(U)| may exceed the Lipschitz bound by this much
# BlockIsometry's construction bounds: ||B^dagger B - I||_F of the reference
# and unit-rotation branches, and (odd mode) ||V0^dagger B||_F and the
# reference's Frobenius weight on the rotor rows
BRANCH_ISO_TOL = 1e-9
BRANCH_ORTHO_TOL = 1e-10


def check_eps(eps: float, separation: bool = False) -> None:
    """Raise ValueError unless 0 <= eps < 1 and, for the separation audit,
    eps <= SEPARATION_MAX_EPS."""
    if not 0 <= eps < 1:
        raise ValueError(f"need 0 <= eps < 1, got {eps}")
    if separation and eps > SEPARATION_MAX_EPS:
        raise ValueError(f"separation arithmetic requires eps <= {SEPARATION_MAX_EPS}, got {eps}")


@dataclass(frozen=True)
class NetParams:
    """Parameters of one net family member set.

    ``mode="auto"`` resolves to "odd" exactly when d2 is odd and the ancilla
    budget is too small to pave the output with half-space pairs
    (r*(d2-1) < 2*d1); otherwise the flag-doubled "even" template is used.
    In even mode the built channels output dimension 2*d2 (flag times d2).
    """

    d1: int
    d2: int
    r: int
    eps: float
    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 2 or self.r < 1:
            raise ValueError(f"need d1 >= 1, d2 >= 2, r >= 1, got {self.d1}, {self.d2}, {self.r}")
        check_eps(self.eps)
        mode = self.mode
        if mode == "auto":
            mode = "odd" if (self.d2 % 2 == 1 and self.r * (self.d2 - 1) < 2 * self.d1) else "even"
            object.__setattr__(self, "mode", mode)
        if mode == "odd":
            if self.d2 % 2 == 0 or self.d2 < 3:
                raise ValueError(f"odd mode needs odd d2 >= 3, got {self.d2}")
            if not self.r * (self.d2 - 1) < 2 * self.d1 <= self.r * self.d2:
                raise ValueError(
                    f"odd mode needs r(d2-1) < 2 d1 <= r d2, got r={self.r}, d1={self.d1}, d2={self.d2}"
                )
            if not 1 <= self.eta <= self.r // 2:
                raise ValueError(
                    f"middle-level occupancy eta={self.eta} outside [1, {self.r // 2}]"
                )
        elif mode == "even":
            if not (self.r * self.d2 >= self.d1 and self.r <= self.d1 * self.d2):
                raise ValueError(
                    f"even mode needs d1/d2 <= r <= d1*d2, got r={self.r}, d1={self.d1}, d2={self.d2}"
                )
        else:
            raise ValueError(f"unknown mode {mode!r}")

    @property
    def out_dim(self) -> int:
        """Output dimension of the built channel."""
        return 2 * self.d2 if self.mode == "even" else self.d2

    @property
    def u_dim(self) -> int:
        """Side of the Haar unitary indexing the family."""
        return self.r * self.d2 if self.mode == "even" else self.r * (self.d2 - 1) // 2

    @property
    def half_dim(self) -> int:
        """Odd mode: size of each output half-space, (d2-1)/2, which is also
        the zero-based index of the middle output level."""
        return (self.d2 - 1) // 2

    @property
    def eta(self) -> int:
        """Odd mode: input dimensions routed through the middle level."""
        return self.d1 - self.r * (self.d2 - 1) // 2

    @property
    def gram_bound(self) -> float:
        """Per-mode ceiling on |tr(K_i^dag K_j)| for the reference blocks."""
        return (2.0 if self.mode == "even" else 3.0) * self.d1 / self.r


@dataclass(frozen=True)
class BlockIsometry:
    """Reference-branch and rotated-branch data for one net family.

    ``v0_full`` and ``delta_prime`` are (r*d2) x d1 in ancilla-major row
    layout (row = anc*d2 + output level): the reference isometry and the
    rotated branch's fixed part, zero in even mode. ``rotor_rows`` holds the
    u_dim global rows the rotation acts on, in (ancilla, level) order, with
    the same output levels in every ancilla block: the rotated branch at U
    is U eye(u_dim, d1) placed on those rows, plus ``delta_prime``.
    """

    params: NetParams
    v0_full: np.ndarray
    delta_prime: np.ndarray
    rotor_rows: np.ndarray
    gram: np.ndarray
    rejections: int
    subspace_dims: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.params
        rows = p.r * p.d2
        for name, op in (("v0_full", self.v0_full), ("delta_prime", self.delta_prime)):
            if op.shape != (rows, p.d1):
                raise ValueError(f"{name} must be {rows} x {p.d1}, got {op.shape}")
        rotor = self.rotor_rows
        if rotor.shape != (p.u_dim,):
            raise ValueError(f"rotor_rows must hold {p.u_dim} rows, got shape {rotor.shape}")
        levels = rotor[: p.u_dim // p.r]
        if not (np.all(np.diff(levels) > 0) and 0 <= levels[0] and levels[-1] < p.d2):
            raise ValueError("rotor_rows must list distinct output levels in increasing order")
        if not np.array_equal(rotor, (p.d2 * np.arange(p.r)[:, None] + levels).ravel()):
            raise ValueError("rotor_rows must hold the same output levels in every ancilla block")
        eye = np.eye(p.d1)
        if np.linalg.norm(self.v0_full.conj().T @ self.v0_full - eye) > BRANCH_ISO_TOL:
            raise ValueError("reference branch is not an isometry")
        branch = rotated_branch(self, np.eye(p.u_dim))
        if np.linalg.norm(branch.conj().T @ branch - eye) > BRANCH_ISO_TOL:
            raise ValueError("rotated branch at unit rotation is not an isometry")
        if p.mode == "odd":
            # row-sector disjointness makes the branches orthogonal for every
            # rotation; in even mode orthogonality is by the member's flag qubit
            if (
                np.linalg.norm(self.v0_full.conj().T @ branch) > BRANCH_ORTHO_TOL
                or np.linalg.norm(self.v0_full[rotor]) > BRANCH_ORTHO_TOL
            ):
                raise ValueError("branch images are not orthogonal")
        g = self.gram
        off = g - np.diag(np.diag(g))
        if np.max(np.abs(off)) > GRAM_TOL or np.max(np.abs(np.diag(g))) > p.gram_bound + GRAM_TOL:
            raise ValueError(f"block Gram condition violated (bound {p.gram_bound})")


def _block_gram(v: np.ndarray, r: int) -> np.ndarray:
    """Gram matrix tr(B_i^dagger B_j) of the r row blocks of v, or of each
    member of a stack of such v."""
    b = v.reshape(v.shape[:-2] + (r, -1, v.shape[-1]))
    return np.einsum("...iba,...jba->...ij", b.conj(), b)


def build_block_isometry(p: NetParams, rng: np.random.Generator) -> BlockIsometry:
    """Sample the fixed branches of a net family.

    Even mode: the reference isometry is Haar-sampled and its ancilla basis
    rotated to the eigenbasis of the block Gram matrix, which diagonalizes
    the Gram exactly; draws whose diagonal exceeds the 2*d1/r ceiling are
    rejected (budget GRAM_REJECTION_BUDGET). Odd mode: the rotation core is
    a Haar unitary whose row blocks are automatically trace-orthogonal, so
    no rejection is ever needed.
    """
    if p.mode == "even":
        return _build_even(p, rng)
    return _build_odd(p, rng)


def _build_even(p: NetParams, rng: np.random.Generator) -> BlockIsometry:
    rows = p.r * p.d2
    for attempt in range(GRAM_REJECTION_BUDGET):
        w = haar_isometry(p.d1, rows, rng)
        gram = _block_gram(w, p.r)
        vals, vecs = herm_eig(gram)
        # blocks mix as K_i -> sum_j Q_ij K_j; Q = vecs.T turns the block
        # Gram into exactly diag(vals)
        w = np.kron(vecs.T, np.eye(p.d2)) @ w
        if float(vals[-1]) <= p.gram_bound + GRAM_TOL:
            return BlockIsometry(
                params=p,
                v0_full=w,
                delta_prime=np.zeros((rows, p.d1), dtype=complex),
                rotor_rows=np.arange(rows),
                gram=_block_gram(w, p.r),
                rejections=attempt,
            )
    raise RuntimeError(
        f"no block draw met the Gram ceiling {p.gram_bound:.6g} in {GRAM_REJECTION_BUDGET} attempts"
    )


def _build_odd(p: NetParams, rng: np.random.Generator) -> BlockIsometry:
    r, d1, d2 = p.r, p.d1, p.d2
    hb, eta = p.half_dim, p.eta
    mid = hb  # the middle output level
    h_a = r * hb
    ancillas = d2 * np.arange(r)[:, None]  # each ancilla block's first global row
    legs = np.arange(eta)

    # reference core: a Haar unitary on the (ancilla x lower-half) sector;
    # its row blocks are disjoint row sets of a unitary, so the core block
    # Gram is hb * I exactly and no rejection sampling is needed
    v0_full = np.zeros((r * d2, d1), dtype=complex)
    v0_full[(ancillas + np.arange(hb)).ravel(), :h_a] = haar_unitary(h_a, rng)
    # middle-level reference legs for the eta extra inputs
    v0_full[d2 * legs + mid, h_a + legs] = 1.0
    # the rotated branch's legs, on the middle level of the later ancillas
    delta_prime = np.zeros((r * d2, d1), dtype=complex)
    delta_prime[d2 * (r // 2 + legs) + mid, h_a + legs] = 1.0

    dims = {
        "input_rotated": h_a,
        "input_middle": eta,
        "output_lower": hb,
        "output_upper": hb,
        "output_middle": 1,
        "middle_reference_slots": r // 2,
        "middle_rotated_slots": r - r // 2,
    }
    return BlockIsometry(
        params=p,
        v0_full=v0_full,
        delta_prime=delta_prime,
        rotor_rows=(ancillas + mid + 1 + np.arange(hb)).ravel(),
        gram=_block_gram(v0_full, r),
        rejections=0,
        subspace_dims=dims,
    )


def _rotor_part(blocks: BlockIsometry, u: np.ndarray) -> np.ndarray:
    """u eye(u_dim, d1), the rotation-space rows of the branch: the first
    min(u_dim, d1) columns of u, zero-padded to d1 (stacks broadcast)."""
    p = blocks.params
    k = min(p.u_dim, p.d1)
    w = np.zeros(u.shape[:-1] + (p.d1,), dtype=complex)
    w[..., :k] = u[..., :k]
    return w


def _placed_on_rotor(blocks: BlockIsometry, w: np.ndarray) -> np.ndarray:
    """The u_dim x d1 rows w (stacks broadcast) placed on the rotor rows of
    an otherwise zero (r*d2) x d1 operator."""
    p = blocks.params
    out = np.zeros(w.shape[:-2] + (p.r * p.d2, p.d1), dtype=complex)
    out[..., blocks.rotor_rows, :] = w
    return out


def rotated_branch(blocks: BlockIsometry, u: np.ndarray) -> np.ndarray:
    """The branch (rotation applied to the canonical part) as (r*d2) x d1;
    a stack of rotations gives a stack of branches."""
    p = blocks.params
    if u.shape[-2:] != (p.u_dim, p.u_dim):
        raise ValueError(f"rotation must be {p.u_dim} x {p.u_dim}, got {u.shape}")
    return _placed_on_rotor(blocks, _rotor_part(blocks, u)) + blocks.delta_prime


def _branch_difference(blocks: BlockIsometry, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Rotated branch at ux minus at uy, (r*d2) x d1 (stacks broadcast)."""
    return _placed_on_rotor(blocks, _rotor_part(blocks, ux - uy))


def _on_flag(p: NetParams, op: np.ndarray, flag: int) -> np.ndarray:
    """Even mode: the (r*d2) x d1 operator op (stacks broadcast) on flag
    ``flag`` of the (anc, flag, d2) member rows, zero on the other flag."""
    lead = op.shape[:-2]
    v = np.zeros(lead + (p.r, 2, p.d2, p.d1), dtype=complex)
    v[..., flag, :, :] = op.reshape(lead + (p.r, p.d2, p.d1))
    return v.reshape(lead + (p.r * 2 * p.d2, p.d1))


def _member_isometry(blocks: BlockIsometry, branch: np.ndarray) -> np.ndarray:
    """sqrt(1 - eps^2) reference + eps branch, flag-embedded in even mode;
    a stack of branches gives a stack of isometries."""
    p = blocks.params
    amp0, amp1 = sqrt(1.0 - p.eps**2), p.eps
    if p.mode == "odd":
        return amp0 * blocks.v0_full + amp1 * branch
    return _on_flag(p, amp0 * blocks.v0_full, 0) + _on_flag(p, amp1 * branch, 1)


def build_net_isometry(
    p: NetParams, u: np.ndarray, blocks: BlockIsometry
) -> tuple[np.ndarray, Channel]:
    """Member isometry for rotation u, plus its induced channel.

    Returned isometry rows are ancilla-major over the channel output, so the
    channel is the ancilla partial trace. In even mode the output carries a
    leading flag qubit: rows group as (anc, flag, d2)."""
    if blocks.params != p:
        raise ValueError("blocks were built for different parameters")
    v = _member_isometry(blocks, rotated_branch(blocks, u))
    return v, channel_from_isometry(v, p.r)


def _cross_operator(a: np.ndarray, b: np.ndarray, r: int, d1: int) -> np.ndarray:
    """Ancilla partial trace of |a>><<b| for two (r*out) x d1 block matrices,
    or stacks of them (leading axes broadcast)."""
    out = a.shape[-2] // r
    ta = a.reshape(a.shape[:-2] + (r, out, d1))
    tb = b.reshape(b.shape[:-2] + (r, out, d1))
    dim = out * d1
    f = np.einsum("...iba,...icd->...bacd", ta, tb.conj(), optimize=True)
    return f.reshape(f.shape[:-4] + (dim, dim))


def f_operator(blocks: BlockIsometry, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """(1/d1) * ancilla-trace of |reference>><<(ux - uy) branch|.

    The operator whose trace norm drives the separation lower bound; lives
    on (output x input) without the even-mode flag, which changes none of
    its singular values. Stacks of rotations give a stack of operators."""
    p = blocks.params
    return _cross_operator(blocks.v0_full, _branch_difference(blocks, ux, uy), p.r, p.d1) / p.d1


def _chunks(total: int):
    """Stack sizes that cover ``total`` draws, AUDIT_BATCH at a time."""
    for start in range(0, total, AUDIT_BATCH):
        yield min(AUDIT_BATCH, total - start)


class MomentAudit(NamedTuple):
    samples: int
    m2_mean: float
    m2_stderr: float
    m2_expected: float
    m4_mean: float
    m4_stderr: float
    m4_bound: float
    ok: bool


def _gram_moments(
    blocks: BlockIsometry, ux: np.ndarray, uy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """||F||_F^2 and ||F^dagger F||_F^2 for each pair of rotation stacks,
    as tr M and tr M^2 with M = A B / d1^2 (see :func:`moment_audit`).

    B is taken from the rotation-space rows (ux - uy) eye(u_dim, d1), the
    only nonzero rows of the branch difference: ``rotor_rows`` lists them in
    (ancilla, output level) order with the same levels in every ancilla
    block, and the zero rows, which add nothing to B, are never formed."""
    p = blocks.params
    m = blocks.gram @ _block_gram(_rotor_part(blocks, ux - uy), p.r) / p.d1**2
    return np.einsum("nii->n", m).real, np.einsum("nij,nji->n", m, m).real


def moment_audit(blocks: BlockIsometry, samples: int, rng: np.random.Generator) -> MomentAudit:
    """Monte Carlo second/fourth moments of the separation operator (odd mode).

    The second moment is an exact identity (d2-1)/d1 for any fixed blocks;
    the fourth is bounded by 288/r^3. Batched over Haar pairs, AUDIT_BATCH
    at a time.

    F = R^T conj(D) / d1, with the vectorized reference blocks as the rows
    of R and the branch-difference blocks as those of D, has rank at most r.
    With the r x r block Grams A = conj(R) R^T (``blocks.gram``) and
    B = conj(D) D^T, and M = A B / d1^2, the moments are
    m2 = ||F||_F^2 = tr M and m4 = ||F^dagger F||_F^2 = tr M^2, so F itself
    is never formed."""
    p = blocks.params
    if p.mode != "odd":
        raise ValueError("moment identities are specific to the odd-mode template")
    if samples < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples, got {samples}")
    r, d1, d2 = p.r, p.d1, p.d2
    m2_vals = np.empty(samples)
    m4_vals = np.empty(samples)
    done = 0
    for nb in _chunks(samples):
        ux = haar_unitary_batch(p.u_dim, nb, rng)
        uy = haar_unitary_batch(p.u_dim, nb, rng)
        m2_vals[done : done + nb], m4_vals[done : done + nb] = _gram_moments(blocks, ux, uy)
        done += nb

    m2_mean = float(np.mean(m2_vals))
    m2_stderr = float(np.std(m2_vals, ddof=1) / np.sqrt(samples))
    m4_mean = float(np.mean(m4_vals))
    m4_stderr = float(np.std(m4_vals, ddof=1) / np.sqrt(samples))
    m2_expected = (d2 - 1) / d1
    m4_bound = 288.0 / r**3
    m4_rel = m4_stderr / max(m4_mean, 1e-300)
    ok = abs(m2_mean - m2_expected) <= 4 * m2_stderr and m4_mean <= m4_bound * (1 + 4 * m4_rel)
    return MomentAudit(
        samples=samples,
        m2_mean=m2_mean,
        m2_stderr=m2_stderr,
        m2_expected=m2_expected,
        m4_mean=m4_mean,
        m4_stderr=m4_stderr,
        m4_bound=m4_bound,
        ok=ok,
    )


class LipschitzAudit(NamedTuple):
    trials: int
    lipschitz_constant: float
    max_ratio: float
    violations: int
    ok: bool


def _unitary_steps(g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """exp(i theta H) for each H = (g + g^dagger)/2 scaled to unit Frobenius
    norm, over a stack g (..., d, d) of Ginibre draws and angles theta (...)."""
    h = (g + np.swapaxes(g, -2, -1).conj()) / 2
    d = g.shape[-1]
    # per-matrix norms: a batched norm differs from them in the last bits
    norms = np.array([np.linalg.norm(m) for m in h.reshape(-1, d, d)])
    h /= norms.reshape(h.shape[:-2] + (1, 1))
    vals, vecs = herm_eig(h)
    phases = np.exp(1j * theta[..., None] * vals)
    return (vecs * phases[..., None, :]) @ vecs.conj().swapaxes(-2, -1)


def _lipschitz_chunk(
    blocks: BlockIsometry, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """|f(U') - f(U)| and the joint displacement ||U' - U||_F for n trials.

    The draws are made trial by trial in one fixed order (the Ginibre
    matrices of ux and uy, the two angles, the Ginibre matrices of the two
    steps), so the trials do not depend on how they are chunked; the linear
    algebra then runs on the whole stack."""
    d = blocks.params.u_dim
    starts = np.empty((n, 4, d, d))
    steps = np.empty((n, 4, d, d))
    theta = np.empty((n, 2))
    for t in range(n):
        rng.standard_normal(out=starts[t])
        theta[t] = np.exp(rng.uniform(np.log(1e-3), np.log(0.3), size=2))
        rng.standard_normal(out=steps[t])
    # axis 1 holds (x, y); real and imaginary parts alternate on the draw axis
    u = haar_from_ginibre(starts[:, 0::2] + 1j * starts[:, 1::2])
    u2 = u @ _unitary_steps(steps[:, 0::2] + 1j * steps[:, 1::2], theta)
    moved = [np.linalg.norm(m) for m in (u2 - u).reshape(-1, d, d)]
    dist = np.array([sqrt(a**2 + b**2) for a, b in zip(moved[0::2], moved[1::2])])
    f0 = trace_norm(f_operator(blocks, u[:, 0], u[:, 1]))
    f1 = trace_norm(f_operator(blocks, u2[:, 0], u2[:, 1]))
    return np.abs(f1 - f0), dist


def lipschitz_audit(blocks: BlockIsometry, trials: int, rng: np.random.Generator) -> LipschitzAudit:
    """Probe |tr|F|| differences against the sqrt(2/d1) Lipschitz constant.

    Each trial perturbs both rotations by exp(i theta H) with unit-Frobenius
    Hermitian H and theta spanning three decades, and compares the change of
    f = tr|F| to the constant times the joint Frobenius displacement. The
    trials run as stacks of at most AUDIT_BATCH."""
    p = blocks.params
    if trials < MIN_LIPSCHITZ_TRIALS:
        raise ValueError(f"need at least {MIN_LIPSCHITZ_TRIALS} trials, got {trials}")
    lip = sqrt(2.0 / p.d1)
    chunks = [_lipschitz_chunk(blocks, n, rng) for n in _chunks(trials)]
    delta = np.concatenate([c[0] for c in chunks])
    dist = np.concatenate([c[1] for c in chunks])
    moved = dist > 0
    max_ratio = float(np.max(delta[moved] / dist[moved], initial=0.0))
    violations = int(np.count_nonzero(delta > lip * dist + LIPSCHITZ_PAD))
    return LipschitzAudit(
        trials=trials,
        lipschitz_constant=lip,
        max_ratio=max_ratio,
        violations=violations,
        ok=violations == 0,
    )


class SeparationAudit(NamedTuple):
    pairs: int
    eps: float
    min_choi_distance: float
    choi_threshold: float
    min_overlap_norm: float
    overlap_threshold: float
    max_kraus_rank: int
    rank_bound: int
    derived_choi_floor: float
    branch_trace_residual: float
    nilpotency_residual: float
    symmetrized_norm_residual: float
    cross_route_residual: float
    choi_floor_violation: float
    tight_eps_regime: bool
    separated: bool  # the Choi distance, overlap norm and Kraus rank bounds hold
    identities_hold: bool  # every trace-norm identity holds to its tolerance


def _separation_chunk(blocks: BlockIsometry, n: int, rng: np.random.Generator) -> dict:
    """Per-pair distances, overlap norms, Kraus ranks and identity residuals
    for n Haar pairs, all computed on stacks."""
    p = blocks.params
    d1, r, d = p.d1, p.r, p.u_dim
    # one draw holds the pairs' Ginibre matrices in per-pair order
    g = rng.standard_normal((n, 4, d, d))
    u = haar_from_ginibre(g[:, 0::2] + 1j * g[:, 1::2])
    u1, u2 = u[:, 0], u[:, 1]
    # coinciding rotations have probability zero; one is redrawn after the stack
    for k in np.flatnonzero(np.linalg.norm(u1 - u2, axis=(-2, -1)) < 1e-12):
        while np.linalg.norm(u1[k] - u2[k]) < 1e-12:
            u2[k] = haar_unitary(d, rng)

    b1 = rotated_branch(blocks, u1)
    v1 = _member_isometry(blocks, b1)
    v2 = _member_isometry(blocks, rotated_branch(blocks, u2))
    v = np.stack([v1, v2])
    defect = float(np.abs(v.conj().swapaxes(-2, -1) @ v - np.eye(d1)).max())
    if defect > COMPLETENESS_TOL:
        raise ValueError(f"not an isometry: ||V^dagger V - I||_max = {defect:.3e}")
    out = v1.shape[-2] // r
    choi1 = choi_from_kraus(v1.reshape(n, r, out, d1).swapaxes(0, 1))
    choi2 = choi_from_kraus(v2.reshape(n, r, out, d1).swapaxes(0, 1))
    dist = choi_distance_lb(choi1, choi2, d1)

    f_mat = f_operator(blocks, u1, u2)
    f_val = trace_norm(f_mat)
    branch_res = np.abs(trace_norm(_cross_operator(b1, b1, r, d1)) - d1) / d1

    # cross operator with orthogonal image/support (flag-embedded in even mode)
    if p.mode == "even":
        diff = _on_flag(p, _branch_difference(blocks, u1, u2), 1)
        x = _cross_operator(_on_flag(p, blocks.v0_full, 0), diff, r, d1)
    else:
        x = d1 * f_mat
    x_norm = trace_norm(x)
    scale = np.maximum(1.0, x_norm)
    # per-matrix norms and Python float powers keep each pair's residual
    # equal to the one-pair computation
    nilp = [float(np.linalg.norm(xx)) / s**2 for xx, s in zip(x @ x, scale.tolist())]
    return {
        "dist": dist,
        "x_norm": x_norm,
        "f": f_val,
        "rank": kraus_rank(choi1),
        "branch": branch_res,
        "nilp": np.array(nilp),
        "symm": np.abs(trace_norm(x + x.conj().swapaxes(-2, -1)) - 2 * x_norm) / scale,
        "route": np.abs(x_norm - d1 * f_val) / scale,
    }


def separation_audit(
    blocks: BlockIsometry, pairs: int, rng: np.random.Generator
) -> SeparationAudit:
    """Sampled separation audit with the proof's finite identities.

    For Haar pairs (U1, U2): build both channels, record the normalized Choi
    trace distance and the overlap norm f = tr|F|, verify Kraus ranks, and
    check per pair that (i) the rotated branch's self-overlap has trace norm
    d1, (ii) the cross operator X squares to zero, (iii) the symmetrized
    trace norm equals 2 tr|X|, (iv) the two construction routes for X agree,
    and (v) the Choi distance dominates 2 eps sqrt(1-eps^2) tr|X| - 2 eps^2 d1.
    The pairs run as stacks of at most AUDIT_BATCH.
    """
    p = blocks.params
    check_eps(p.eps, separation=True)
    if pairs < MIN_SEPARATION_PAIRS:
        raise ValueError(f"need at least {MIN_SEPARATION_PAIRS} pairs, got {pairs}")
    chunks = [_separation_chunk(blocks, n, rng) for n in _chunks(pairs)]
    per_pair = {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
    d1 = p.d1
    amp = 2 * p.eps * sqrt(1 - p.eps**2)
    floor = amp * per_pair["x_norm"] - 2 * p.eps**2 * d1
    per_pair["floor"] = (floor - per_pair["dist"] * d1) / d1
    min_dist = float(np.min(per_pair["dist"]))
    min_f = float(np.min(per_pair["f"]))
    max_rank = int(np.max(per_pair["rank"]))
    worst = {key: max(0.0, float(np.max(per_pair[key])))
             for key in ("branch", "nilp", "symm", "route", "floor")}

    choi_threshold, overlap_threshold = 0.07 * p.eps, 0.05
    derived_floor = amp * min_f - 2 * p.eps**2
    return SeparationAudit(
        pairs=pairs,
        eps=p.eps,
        min_choi_distance=min_dist,
        choi_threshold=choi_threshold,
        min_overlap_norm=min_f,
        overlap_threshold=overlap_threshold,
        max_kraus_rank=max_rank,
        rank_bound=p.r,
        derived_choi_floor=derived_floor,
        branch_trace_residual=worst["branch"],
        nilpotency_residual=worst["nilp"],
        symmetrized_norm_residual=worst["symm"],
        cross_route_residual=worst["route"],
        choi_floor_violation=worst["floor"],
        tight_eps_regime=p.eps < 1e-4,
        separated=min_dist >= choi_threshold and min_f >= overlap_threshold and max_rank <= p.r,
        identities_hold=(
            max(worst["branch"], worst["symm"], worst["route"], worst["floor"]) <= IDENTITY_TOL
            and worst["nilp"] <= NILPOTENCY_TOL
        ),
    )
