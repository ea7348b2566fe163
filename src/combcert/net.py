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

The audits are sampled surrogates for the existential net statements: they
report empirical minima/means over Haar-sampled unitary pairs together with
the exact finite identities used in the separation proof, and never claim to
certify the existential cardinality results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .channels import Channel, channel_from_isometry, choi_from_kraus, kraus_rank
from .linalg import haar_isometry, haar_unitary, haar_unitary_batch, herm_eig, trace_norm

__all__ = [
    "GRAM_REJECTION_BUDGET",
    "MIN_SEPARATION_PAIRS",
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
    "separation_audit",
]

GRAM_REJECTION_BUDGET = 200
MIN_SEPARATION_PAIRS = 50
SEPARATION_MAX_EPS = 1e-2


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
        """Odd mode: size of each output half-space, (d2-1)/2."""
        return (self.d2 - 1) // 2

    @property
    def mid(self) -> int:
        """Odd mode: zero-based index of the middle output level."""
        return (self.d2 - 1) // 2

    @property
    def eta(self) -> int:
        """Odd mode: input dimensions routed through the middle level."""
        return self.d1 - self.r * (self.d2 - 1) // 2


@dataclass(frozen=True)
class BlockIsometry:
    """Reference-branch and rotated-branch data for one net family.

    All operators are (r*d2) x d1 in ancilla-major row layout
    (row = anc*d2 + output level). ``v0_full`` is the reference isometry,
    ``delta_canon + delta_prime`` the unit-rotation branch, and ``j_embed``
    the isometric embedding of the rotation space into the global rows.
    In even mode delta_prime is zero and j_embed the identity.
    """

    params: NetParams
    v0_full: np.ndarray
    delta_canon: np.ndarray
    delta_prime: np.ndarray
    j_embed: np.ndarray
    gram: np.ndarray
    rejections: int
    subspace_dims: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.params
        rows = p.r * p.d2
        for name, op in (
            ("v0_full", self.v0_full),
            ("delta_canon", self.delta_canon),
            ("delta_prime", self.delta_prime),
        ):
            if op.shape != (rows, p.d1):
                raise ValueError(f"{name} must be {rows} x {p.d1}, got {op.shape}")
        if self.j_embed.shape != (rows, p.u_dim):
            raise ValueError(f"j_embed must be {rows} x {p.u_dim}, got {self.j_embed.shape}")
        eye = np.eye(p.d1)
        if np.linalg.norm(self.v0_full.conj().T @ self.v0_full - eye) > 1e-9:
            raise ValueError("reference branch is not an isometry")
        branch = self.delta_canon + self.delta_prime
        if np.linalg.norm(branch.conj().T @ branch - eye) > 1e-9:
            raise ValueError("rotated branch at unit rotation is not an isometry")
        if p.mode == "odd":
            # row-sector disjointness makes the branches orthogonal for every
            # rotation; in even mode orthogonality is by the member's flag qubit
            v0h = self.v0_full.conj().T
            if (
                np.linalg.norm(v0h @ branch) > 1e-10
                or np.linalg.norm(v0h @ self.j_embed) > 1e-10
            ):
                raise ValueError("branch images are not orthogonal")
        jtj = self.j_embed.conj().T @ self.j_embed
        if np.linalg.norm(jtj - np.eye(p.u_dim)) > 1e-10:
            raise ValueError("rotation-space embedding is not an isometry")
        bound = self.gram_bound
        g = self.gram
        off = g - np.diag(np.diag(g))
        if np.max(np.abs(off)) > 1e-9 or np.max(np.abs(np.diag(g))) > bound + 1e-9:
            raise ValueError(f"block Gram condition violated (bound {bound})")

    @property
    def gram_bound(self) -> float:
        """Per-mode ceiling on |tr(K_i^dag K_j)| for the reference blocks."""
        p = self.params
        if p.mode == "even":
            return 2.0 * p.d1 / p.r
        return 3.0 * p.d1 / p.r

    def blocks(self) -> np.ndarray:
        """Reference-branch blocks, one d2 x d1 slab per ancilla level."""
        p = self.params
        return self.v0_full.reshape(p.r, p.d2, p.d1)


def _block_gram(v: np.ndarray, r: int) -> np.ndarray:
    b = v.reshape(r, -1, v.shape[1])
    return np.einsum("iba,jba->ij", b.conj(), b)


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
    bound = 2.0 * p.d1 / p.r
    for attempt in range(GRAM_REJECTION_BUDGET):
        w = haar_isometry(p.d1, rows, rng)
        gram = _block_gram(w, p.r)
        vals, vecs = herm_eig(gram)
        # blocks mix as K_i -> sum_j Q_ij K_j; Q = vecs.T turns the block
        # Gram into exactly diag(vals)
        w = np.kron(vecs.T, np.eye(p.d2)) @ w
        if float(vals[-1]) <= bound + 1e-9:
            delta = np.eye(rows, p.d1, dtype=complex)
            return BlockIsometry(
                params=p,
                v0_full=w,
                delta_canon=delta,
                delta_prime=np.zeros((rows, p.d1), dtype=complex),
                j_embed=np.eye(rows, dtype=complex),
                gram=_block_gram(w, p.r),
                rejections=attempt,
            )
    raise RuntimeError(
        f"no block draw met the Gram ceiling {bound:.6g} in {GRAM_REJECTION_BUDGET} attempts"
    )


def _build_odd(p: NetParams, rng: np.random.Generator) -> BlockIsometry:
    r, d1, d2 = p.r, p.d1, p.d2
    hb, mid, eta = p.half_dim, p.mid, p.eta
    h_a = r * hb
    rows = r * d2

    def global_row(anc: int, level: int) -> int:
        return anc * d2 + level

    # reference core: a Haar unitary on the (ancilla x lower-half) sector;
    # its row blocks are disjoint row sets of a unitary, so the core block
    # Gram is hb * I exactly and no rejection sampling is needed
    core = haar_unitary(h_a, rng).reshape(r, hb, h_a)

    v0_full = np.zeros((rows, d1), dtype=complex)
    for anc in range(r):
        for b in range(hb):
            v0_full[global_row(anc, b), :h_a] = core[anc, b]
    # middle-level reference legs for the eta extra inputs
    for t in range(eta):
        v0_full[global_row(t, mid), h_a + t] = 1.0

    delta_canon = np.zeros((rows, d1), dtype=complex)
    for j in range(h_a):
        delta_canon[global_row(j // hb, mid + 1 + j % hb), j] = 1.0
    delta_prime = np.zeros((rows, d1), dtype=complex)
    for t in range(eta):
        delta_prime[global_row(r // 2 + t, mid), h_a + t] = 1.0

    j_embed = np.zeros((rows, h_a), dtype=complex)
    for s in range(h_a):
        j_embed[global_row(s // hb, mid + 1 + s % hb), s] = 1.0

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
        delta_canon=delta_canon,
        delta_prime=delta_prime,
        j_embed=j_embed,
        gram=_block_gram(v0_full, r),
        rejections=0,
        subspace_dims=dims,
    )


def rotated_branch(blocks: BlockIsometry, u: np.ndarray) -> np.ndarray:
    """The branch (rotation applied to the canonical part) as (r*d2) x d1."""
    p = blocks.params
    if u.shape != (p.u_dim, p.u_dim):
        raise ValueError(f"rotation must be {p.u_dim} x {p.u_dim}, got {u.shape}")
    j = blocks.j_embed
    return j @ (u @ (j.conj().T @ blocks.delta_canon)) + blocks.delta_prime


def build_net_isometry(
    p: NetParams, u: np.ndarray, blocks: BlockIsometry
) -> tuple[np.ndarray, Channel]:
    """Member isometry for rotation u, plus its induced channel.

    Returned isometry rows are ancilla-major over the channel output, so the
    channel is the ancilla partial trace. In even mode the output carries a
    leading flag qubit: rows group as (anc, flag, d2)."""
    if blocks.params != p:
        raise ValueError("blocks were built for different parameters")
    branch = rotated_branch(blocks, u)
    amp0, amp1 = sqrt(1.0 - p.eps**2), p.eps
    if p.mode == "even":
        v = np.zeros((p.r, 2, p.d2, p.d1), dtype=complex)
        v[:, 0] = amp0 * blocks.v0_full.reshape(p.r, p.d2, p.d1)
        v[:, 1] = amp1 * branch.reshape(p.r, p.d2, p.d1)
        v = v.reshape(p.r * 2 * p.d2, p.d1)
    else:
        v = amp0 * blocks.v0_full + amp1 * branch
    return v, channel_from_isometry(v, p.r)


def _cross_operator(a: np.ndarray, b: np.ndarray, r: int, d1: int) -> np.ndarray:
    """Ancilla partial trace of |a>><<b| for two (r*out) x d1 block matrices."""
    out = a.shape[0] // r
    ta = a.reshape(r, out, d1)
    tb = b.reshape(r, out, d1)
    dim = out * d1
    return np.einsum("iba,icd->bacd", ta, tb.conj(), optimize=True).reshape(dim, dim)


def f_operator(blocks: BlockIsometry, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """(1/d1) * ancilla-trace of |reference>><<(ux - uy) branch|.

    The operator whose trace norm drives the separation lower bound; lives
    on (output x input) without the even-mode flag, which changes none of
    its singular values."""
    p = blocks.params
    j = blocks.j_embed
    diff = j @ ((ux - uy) @ (j.conj().T @ blocks.delta_canon))
    return _cross_operator(blocks.v0_full, diff, p.r, p.d1) / p.d1


@dataclass(frozen=True)
class MomentAudit:
    samples: int
    m2_mean: float
    m2_stderr: float
    m2_expected: float
    m4_mean: float
    m4_stderr: float
    m4_bound: float
    ok: bool


def moment_audit(blocks: BlockIsometry, samples: int, rng: np.random.Generator) -> MomentAudit:
    """Monte Carlo second/fourth moments of the separation operator (odd mode).

    The second moment is an exact identity (d2-1)/d1 for any fixed blocks;
    the fourth is bounded by 288/r^3. Batched over Haar pairs."""
    p = blocks.params
    if p.mode != "odd":
        raise ValueError("moment identities are specific to the odd-mode template")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    r, d1, d2 = p.r, p.d1, p.d2
    h_a = p.u_dim
    j = blocks.j_embed
    sector_delta = j.conj().T @ blocks.delta_canon  # h_a x d1, unit rows then zeros
    vec_ref = blocks.v0_full.reshape(r, d2 * d1)

    # global row index of each rotation-sector coordinate
    row_of = np.argmax(np.abs(j), axis=0)

    m2_vals = np.empty(samples)
    m4_vals = np.empty(samples)
    done = 0
    batch = 2000
    while done < samples:
        nb = min(batch, samples - done)
        ux = haar_unitary_batch(h_a, nb, rng)
        uy = haar_unitary_batch(h_a, nb, rng)
        diff_sector = (ux - uy) @ sector_delta  # (nb, h_a, d1)
        diff_global = np.zeros((nb, r * d2, d1), dtype=complex)
        diff_global[:, row_of, :] = diff_sector
        vec_diff = diff_global.reshape(nb, r, d2 * d1)
        f = np.einsum("ia,nib->nab", vec_ref, vec_diff.conj(), optimize=True) / d1
        m2_vals[done : done + nb] = np.einsum("nab,nab->n", f, f.conj()).real
        g = np.einsum("nab,nac->nbc", f.conj(), f, optimize=True)
        m4_vals[done : done + nb] = np.einsum("nbc,nbc->n", g, g.conj()).real
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


@dataclass(frozen=True)
class LipschitzAudit:
    trials: int
    lipschitz_constant: float
    max_ratio: float
    violations: int
    ok: bool


def _unitary_step(dim: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """exp(i theta H) for a random Hermitian H of unit Frobenius norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h)
    vals, vecs = herm_eig(h)
    return (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T


def lipschitz_audit(blocks: BlockIsometry, trials: int, rng: np.random.Generator) -> LipschitzAudit:
    """Probe |tr|F|| differences against the sqrt(2/d1) Lipschitz constant.

    Each trial perturbs both rotations by exp(i theta H) with unit-Frobenius
    Hermitian H and theta spanning three decades, and compares the change of
    f = tr|F| to the constant times the joint Frobenius displacement."""
    p = blocks.params
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    lip = sqrt(2.0 / p.d1)
    max_ratio = 0.0
    violations = 0
    for _ in range(trials):
        ux = haar_unitary(p.u_dim, rng)
        uy = haar_unitary(p.u_dim, rng)
        theta_x, theta_y = np.exp(rng.uniform(np.log(1e-3), np.log(0.3), size=2))
        ux2 = ux @ _unitary_step(p.u_dim, float(theta_x), rng)
        uy2 = uy @ _unitary_step(p.u_dim, float(theta_y), rng)
        dist = sqrt(np.linalg.norm(ux2 - ux) ** 2 + np.linalg.norm(uy2 - uy) ** 2)
        f0 = trace_norm(f_operator(blocks, ux, uy))
        f1 = trace_norm(f_operator(blocks, ux2, uy2))
        delta = abs(f1 - f0)
        if dist > 0:
            max_ratio = max(max_ratio, delta / dist)
        if delta > lip * dist + 1e-8:
            violations += 1
    return LipschitzAudit(
        trials=trials,
        lipschitz_constant=lip,
        max_ratio=max_ratio,
        violations=violations,
        ok=violations == 0,
    )


@dataclass(frozen=True)
class SeparationAudit:
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
    ok: bool


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
    """
    p = blocks.params
    check_eps(p.eps, separation=True)
    if pairs < MIN_SEPARATION_PAIRS:
        raise ValueError(f"need at least {MIN_SEPARATION_PAIRS} pairs, got {pairs}")
    d1, r = p.d1, p.r
    amp = 2 * p.eps * sqrt(1 - p.eps**2)

    min_dist = np.inf
    min_f = np.inf
    max_rank = 0
    branch_res = 0.0
    nilp_res = 0.0
    symm_res = 0.0
    route_res = 0.0
    floor_viol = 0.0

    for _ in range(pairs):
        u1 = haar_unitary(p.u_dim, rng)
        u2 = haar_unitary(p.u_dim, rng)
        while np.linalg.norm(u1 - u2) < 1e-12:
            u2 = haar_unitary(p.u_dim, rng)

        _, ch1 = build_net_isometry(p, u1, blocks)
        _, ch2 = build_net_isometry(p, u2, blocks)
        choi1 = choi_from_kraus(ch1)
        dist = trace_norm(choi1 - choi_from_kraus(ch2)) / d1
        min_dist = min(min_dist, dist)
        max_rank = max(max_rank, kraus_rank(choi1, rank_tol=1e-8))

        f_mat = f_operator(blocks, u1, u2)
        f_val = trace_norm(f_mat)
        min_f = min(min_f, f_val)

        # branch self-overlap trace norm: PSD with trace d1
        b1 = rotated_branch(blocks, u1)
        branch_overlap = _cross_operator(b1, b1, r, d1)
        branch_res = max(branch_res, abs(trace_norm(branch_overlap) - d1) / d1)

        # cross operator with orthogonal image/support (flag-embedded in even mode)
        if p.mode == "even":
            ref = np.zeros((r, 2, p.d2, d1), dtype=complex)
            ref[:, 0] = blocks.v0_full.reshape(r, p.d2, d1)
            diff = np.zeros((r, 2, p.d2, d1), dtype=complex)
            j = blocks.j_embed
            diff[:, 1] = (j @ ((u1 - u2) @ (j.conj().T @ blocks.delta_canon))).reshape(
                r, p.d2, d1
            )
            x = _cross_operator(ref.reshape(r * 2 * p.d2, d1), diff.reshape(r * 2 * p.d2, d1), r, d1)
        else:
            x = d1 * f_mat
        x_norm = trace_norm(x)
        scale = max(1.0, x_norm)
        nilp_res = max(nilp_res, float(np.linalg.norm(x @ x)) / scale**2)
        symm_res = max(symm_res, abs(trace_norm(x + x.conj().T) - 2 * x_norm) / scale)
        route_res = max(route_res, abs(x_norm - d1 * f_val) / scale)

        floor = amp * x_norm - 2 * p.eps**2 * d1
        floor_viol = max(floor_viol, (floor - dist * d1) / d1)

    choi_threshold = 0.07 * p.eps
    derived_floor = amp * min_f - 2 * p.eps**2
    ok = (
        min_dist >= choi_threshold
        and min_f >= 0.05
        and max_rank <= r
        and branch_res <= 1e-8
        and symm_res <= 1e-8
        and nilp_res <= 1e-10
        and route_res <= 1e-8
        and floor_viol <= 1e-8
    )
    return SeparationAudit(
        pairs=pairs,
        eps=p.eps,
        min_choi_distance=float(min_dist),
        choi_threshold=choi_threshold,
        min_overlap_norm=float(min_f),
        overlap_threshold=0.05,
        max_kraus_rank=max_rank,
        rank_bound=r,
        derived_choi_floor=derived_floor,
        branch_trace_residual=branch_res,
        nilpotency_residual=nilp_res,
        symmetrized_norm_residual=symm_res,
        cross_route_residual=route_res,
        choi_floor_violation=floor_viol,
        tight_eps_regime=p.eps < 1e-4,
        ok=ok,
    )
