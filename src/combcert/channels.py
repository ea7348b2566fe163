"""Kraus and Choi representations of channels, and channels from isometries.

Conventions: a channel maps ``d_in -> d_out``. Its Choi operator lives on the
ordered pair (out, in) — row index (b, a) with ``b`` major — and equals
``sum_k |E_k>><<E_k|`` for any Kraus family, so ``tr C = d_in`` and
``tr_out C = I_in``. An isometry (Stinespring dilation) stacks the Kraus
blocks with the ancilla index major: ``V = sum_i |i>_anc (x) E_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import LabeledOperator, haar_isometry, herm_eigvals, rank_mask, trace_norm

__all__ = [
    "COMPLETENESS_TOL",
    "KRAUS_RANK_TOL",
    "Channel",
    "choi_from_kraus",
    "choi_operator",
    "kraus_rank",
    "channel_from_isometry",
    "random_channel",
    "choi_distance_lb",
]

# ||sum_k E_k^dagger E_k - I||_max a Kraus family may have; for the Kraus
# blocks of an isometry V this is ||V^dagger V - I||_max
COMPLETENESS_TOL = 1e-10
# the Choi eigenvalues counted in a Kraus rank: above KRAUS_RANK_TOL times the largest
KRAUS_RANK_TOL = 1e-8


@dataclass(frozen=True)
class Channel:
    """CPTP map given by a Kraus family of d_out x d_in matrices, trace
    preserving to COMPLETENESS_TOL."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise ValueError(f"Kraus operators must share one 2d shape, got {[k.shape for k in ops]}")
        object.__setattr__(self, "kraus", ops)
        # the Kraus operators stacked as rows: sum_k E_k^dagger E_k in one product
        stacked = np.concatenate(ops)
        defect = float(np.abs(stacked.conj().T @ stacked - np.eye(shape[1])).max())
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"Kraus family is not trace preserving: "
                f"||sum E^dagger E - I||_max = {defect:.3e} > {COMPLETENESS_TOL:.1e}"
            )

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]


def choi_from_kraus(kraus) -> np.ndarray:
    """Choi operator sum_k |E_k>><<E_k| on (out, in), out index major.

    Each E_k may be a stack (..., d_out, d_in) of Kraus operators, one per
    channel; the Choi operators then stack the same way."""
    ops = kraus.kraus if isinstance(kraus, Channel) else tuple(np.asarray(k, dtype=complex) for k in kraus)
    lead = ops[0].shape[:-2]
    d = ops[0].shape[-2] * ops[0].shape[-1]
    c = np.zeros(lead + (d, d), dtype=complex)
    for k in ops:
        v = k.reshape(lead + (d,))
        c += v[..., :, None] * v[..., None, :].conj()
    return c


def choi_operator(channel: Channel, out_label: str = "B", in_label: str = "A") -> LabeledOperator:
    """Choi of a channel as a labeled operator on (out_label, in_label)."""
    return LabeledOperator(
        choi_from_kraus(channel),
        ((out_label, channel.d_out), (in_label, channel.d_in)),
    )


def kraus_rank(choi: np.ndarray) -> int | np.ndarray:
    """Number of Choi eigenvalues that :func:`rank_mask` keeps at
    KRAUS_RANK_TOL; for a stack of Choi operators, the array of each one's."""
    ranks = np.count_nonzero(rank_mask(herm_eigvals(choi), KRAUS_RANK_TOL), axis=-1)
    # one operator's rank goes into JSON records, which take a Python int
    return ranks if np.ndim(ranks) else int(ranks)


def channel_from_isometry(v: np.ndarray, anc_dim: int) -> Channel:
    """Channel rho -> tr_anc(V rho V^dagger) for an isometry with ancilla-major
    rows; its Kraus blocks are complete exactly when V is an isometry."""
    v = np.asarray(v, dtype=complex)
    rows = v.shape[0]
    if rows % anc_dim != 0:
        raise ValueError(f"row count {rows} is not divisible by ancilla dimension {anc_dim}")
    d_out = rows // anc_dim
    return Channel(tuple(v[i * d_out : (i + 1) * d_out] for i in range(anc_dim)))


def random_channel(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> Channel:
    """Haar-random channel with Kraus rank at most ``rank``."""
    if d_out * rank < d_in:
        raise ValueError(f"need d_out * rank >= d_in for an isometry, got {d_out}*{rank} < {d_in}")
    return channel_from_isometry(haar_isometry(d_in, d_out * rank, rng), rank)


def choi_distance_lb(choi_a: np.ndarray, choi_b: np.ndarray, d_in: int) -> float | np.ndarray:
    """Diamond-distance lower bound ||C_A - C_B||_1 / d_in; elementwise over
    stacks of Choi operators."""
    return trace_norm(np.asarray(choi_a) - np.asarray(choi_b)) / d_in
