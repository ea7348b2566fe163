"""Dense complex linear algebra primitives shared by every verification layer.

All matrices are plain ``numpy.ndarray`` with complex dtype, row-major
vectorization throughout: ``vec(X) = X.reshape(-1)``, so ``|i><j|`` maps to
``e_i (x) conj(e_j)`` and ``vec(A X B) = (A (x) B^T) vec(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "HERM_CHECK_TOL",
    "RANK_TOL",
    "STACK_BYTES",
    "PsdCheck",
    "LabeledOperator",
    "vectorize",
    "partial_trace",
    "herm_eig",
    "herm_eigvals",
    "psd_check",
    "psd_checks",
    "floor_rule",
    "trace_norm",
    "frobenius",
    "pseudo_inverse",
    "pseudo_inverse_sqrt",
    "psd_sqrt",
    "rank_mask",
    "nullspace",
    "ginibre",
    "haar_unitary",
    "haar_unitary_batch",
    "haar_isometry",
    "haar_from_ginibre",
    "random_psd",
    "stack_runs",
]


# ||X - X^dagger||_F / max(1, ||X||_F) that a Hermitian input may have
HERM_CHECK_TOL = 1e-10
# the eigenvalues or singular values counted in a rank: above RANK_TOL times
# the largest
RANK_TOL = 1e-10


# the bytes one run of a batched path may stack: every path that stacks
# per-item work (testers, Chois, audit trials) splits its items into
# consecutive runs under this (see stack_runs)
STACK_BYTES = 2 << 20


def stack_runs(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices of ``range(count)``, in order, whose items of
    ``item_bytes`` bytes each stay within STACK_BYTES together; a run holds
    at least one item, however large."""
    per_run = max(1, STACK_BYTES // max(1, item_bytes))
    for start in range(0, count, per_run):
        yield slice(start, min(start + per_run, count))


class PsdCheck(NamedTuple):
    ok: bool
    min_eig: float


def vectorize(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization |X>> of a matrix."""
    return np.asarray(x).reshape(-1)


def _as_square(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    return x


def partial_trace(x: np.ndarray, dims: Sequence[int], trace_out: Iterable[int]) -> np.ndarray:
    """Trace out the tensor factors listed in ``trace_out``.

    ``x`` is a square matrix on the tensor product of subsystems with
    dimensions ``dims`` (row-major Kronecker order). Returns the reduced
    matrix on the remaining factors, in their original relative order.
    """
    x = _as_square(x)
    plan = _trace_plan(tuple(dims), tuple(trace_out))
    if x.shape[0] != plan.dim:
        raise ValueError(f"dims {plan.shape[:len(plan.shape) // 2]} do not match matrix dimension {x.shape[0]}")
    return _traced(x, plan)


class _TracePlan(NamedTuple):
    shape: tuple[int, ...]
    subscripts: list[int]
    out: list[int]
    dim: int
    d_keep: int
    keep: tuple[int, ...]


@cache
def _trace_plan(dims: tuple, trace_out: tuple) -> _TracePlan:
    """einsum subscripts that trace the factors at positions ``trace_out``
    out of a matrix on factors of dimensions ``dims``; derived once per
    (dims, trace_out)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    traced = sorted(set(int(a) for a in trace_out))
    if any(a < 0 or a >= n for a in traced):
        raise ValueError(f"trace_out {traced} out of range for {n} factors")
    keep = tuple(a for a in range(n) if a not in traced)
    bra = [a if a in traced else n + a for a in range(n)]
    return _TracePlan(
        dims + dims, list(range(n)) + bra, list(keep) + [n + a for a in keep],
        prod(dims), prod(dims[a] for a in keep), keep,
    )


def _traced(x: np.ndarray, plan: _TracePlan) -> np.ndarray:
    return np.einsum(x.reshape(plan.shape), plan.subscripts, plan.out).reshape(plan.d_keep, plan.d_keep)


def _hermitian_part(x: np.ndarray, check_tol: float) -> np.ndarray:
    """(x + x^dagger) / 2 of a square matrix or of each matrix of a stack
    (..., d, d), after validating Hermiticity member by member to
    ``check_tol * max(1, ||x||_F)``."""
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {x.shape}")
    xh = np.swapaxes(x, -2, -1).conj()
    scale = np.maximum(1.0, frobenius(x))
    asym = frobenius(x - xh)
    bad = asym > check_tol * scale
    if bad.any():
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f"stack member {at}" if at else "matrix"
        raise ValueError(
            f"{where} is not Hermitian: ||X - X^dagger||_F = {asym[at]:.3e} "
            f"exceeds {check_tol:.1e} * {scale[at]:.3e}"
        )
    return (x + xh) / 2.0


def herm_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (values, vectors) of a Hermitian matrix, or of
    each matrix of a stack (..., d, d).

    Validates Hermiticity to ``HERM_CHECK_TOL * max(1, ||x||_F)`` and then
    diagonalizes the Hermitian part. Eigenvalues come back ascending with
    orthonormal column eigenvectors. A stack is solved by one batched call
    whose results equal the per-matrix calls bit for bit.
    """
    return np.linalg.eigh(_hermitian_part(x, HERM_CHECK_TOL))


def herm_eigvals(x: np.ndarray, check_tol: float = HERM_CHECK_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a
    stack, without eigenvectors.

    Validates Hermiticity as :func:`herm_eig` does, a stack member by
    member. A stack is solved by one batched call whose results equal the
    per-matrix calls bit for bit.
    """
    return np.linalg.eigvalsh(_hermitian_part(x, check_tol))


def psd_check(x: np.ndarray, tol: float = 1e-10, check_tol: float = HERM_CHECK_TOL) -> PsdCheck:
    """Positive-semidefiniteness test with an eigenvalue floor.

    PSD iff lambda_min >= -tol * max(1, lambda_max). Only eigenvalues are
    computed (:func:`herm_eigvals`).
    """
    return floor_rule(herm_eigvals(x, check_tol=check_tol)[None], tol)[0]


def psd_checks(x: np.ndarray, tol: float = 1e-10, check_tol: float = HERM_CHECK_TOL) -> list[PsdCheck]:
    """:func:`psd_check` of each matrix of a stack (n, d, d), from one
    batched eigenvalue call; equal to the per-matrix calls."""
    return floor_rule(herm_eigvals(x, check_tol=check_tol), tol)


def floor_rule(vals: np.ndarray, tol: float) -> list[PsdCheck]:
    """The PSD verdict lambda_min >= -tol * max(1, lambda_max) on each
    spectrum of a stack (n, d); an empty spectrum reads as lambda = 0. Every
    PSD check here gives its verdict by this rule."""
    if vals.shape[-1]:
        lo, hi = vals.min(axis=-1), vals.max(axis=-1)
    else:
        lo = hi = np.zeros(vals.shape[:-1])
    ok = lo >= -tol * np.maximum(1.0, hi)
    return [PsdCheck(*row) for row in zip(ok.tolist(), lo.tolist())]


def trace_norm(x: np.ndarray) -> float | np.ndarray:
    """Sum of singular values of a matrix; for a stack (..., m, n), the array
    of each member's, equal bit for bit to the per-matrix calls."""
    return np.linalg.svd(x, compute_uv=False).sum(axis=-1)


def frobenius(x: np.ndarray) -> float | np.ndarray:
    """||x||_F of a matrix or vector; for a stack (..., m, n), the array of each
    member's, equal bit for bit to the per-matrix calls. numpy's own pairwise
    sum adds the squares, in an order no BLAS kernel or thread count moves."""
    sq = np.abs(x) ** 2
    return np.sqrt(sq.sum(axis=tuple(range(sq.ndim))[-2:]))


def pseudo_inverse(x: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a Hermitian PSD matrix, or of each matrix of a
    stack (..., d, d), equal to the per-matrix calls: the eigenvalues
    :func:`rank_mask` keeps are inverted and the rest read as exact zeros
    (support convention), so lambda_max <= 0 gives the zero inverse."""
    return _on_support(x, np.reciprocal)


def pseudo_inverse_sqrt(x: np.ndarray) -> np.ndarray:
    """x^{-1/2} on the support of x, the root of :func:`pseudo_inverse`, from one eigensolve."""
    return _on_support(x, lambda vals: 1.0 / np.sqrt(vals))


def _on_support(x: np.ndarray, fn) -> np.ndarray:
    """vecs fn(vals) vecs^dagger on the eigenvalues rank_mask keeps, zero on the rest."""
    vals, vecs = herm_eig(x)
    keep = rank_mask(vals, RANK_TOL)
    out = np.zeros_like(vals)
    out[keep] = fn(vals[keep])
    return _spectral(vecs, out)


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix (negative eigenvalues clipped
    to 0), or of each matrix of a stack, equal to the per-matrix calls."""
    vals, vecs = herm_eig(x)
    return _spectral(vecs, np.sqrt(np.clip(vals, 0.0, None)))


def _spectral(vecs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vecs diag(vals) vecs^dagger, matrix by matrix over a stack."""
    return (vecs * vals[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def rank_mask(vals: np.ndarray, rank_tol: float) -> np.ndarray:
    """The eigenvalues counted in the rank, over ascending spectra on the
    last axis: lambda > rank_tol * lambda_max, and none when lambda_max <= 0."""
    lam_max = vals[..., -1:]
    return (vals > rank_tol * lam_max) & (lam_max > 0.0)


def nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the right nullspace of ``m``.

    The singular values :func:`rank_mask` drops count as zero.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    # rank_mask reads an ascending spectrum; svd returns a descending one
    rank = int(np.count_nonzero(rank_mask(s[::-1], RANK_TOL)))
    return vh[rank:].conj().T


def haar_isometry(d_in: int, d_out: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random isometry with ``d_in`` orthonormal columns in C^{d_out}:
    the Gram–Schmidt orthonormalization of a complex Ginibre sample (see
    ``haar_from_ginibre``).
    """
    if d_out < d_in:
        raise ValueError(f"isometry needs d_out >= d_in, got {d_out} < {d_in}")
    if d_in < 1:
        raise ValueError(f"d_in must be positive, got {d_in}")
    return haar_from_ginibre(ginibre((d_out, d_in), rng))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary on C^dim."""
    return haar_isometry(dim, dim, rng)


def haar_unitary_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` independent Haar-random unitaries, shape (count, dim, dim)."""
    return haar_from_ginibre(ginibre((count, dim, dim), rng))


def ginibre(shape, rng: np.random.Generator) -> np.ndarray:
    """A complex Ginibre array of ``shape``: one standard normal draw of the
    whole shape for the real part, then one for the imaginary part."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar-random isometry from a complex Ginibre matrix ``g`` (d_out x d_in,
    or a stack of them): the Q of its QR factorization with R's diagonal
    positive, which makes the distribution exactly Haar (Mezzadri, Notices
    AMS 54, 2007).

    Classical Gram–Schmidt applied twice (CGS2) yields that Q directly, with
    no LAPACK call and one Python iteration per column for the whole stack:
    two einsum projection passes against the columns already done, then
    division by a real norm. The samplers above draw their own Ginibre
    matrices; a caller that must draw in another order passes its own. A
    stack gives the per-matrix results bit for bit.
    """
    # the rows of q are the columns of g, so every column is contiguous
    q = np.array(np.swapaxes(g, -1, -2), dtype=complex, order="C")
    for j in range(q.shape[-2]):
        v = q[..., j, :]
        if j:
            done = q[..., :j, :]
            for _ in range(2):
                coef = np.einsum("...ki,...i->...k", done.conj(), v)
                v = v - np.einsum("...ki,...k->...i", done, coef)
        flat = v.view(np.float64)
        q[..., j, :] = v / np.sqrt(np.einsum("...i,...i->...", flat, flat))[..., None]
    return np.swapaxes(q, -1, -2)


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix G G^dagger with G complex Ginibre of shape (dim, rank)."""
    r = dim if rank is None else int(rank)
    if r < 1 or r > dim:
        raise ValueError(f"rank must be in [1, {dim}], got {r}")
    g = ginibre((dim, r), rng)
    return g @ g.conj().T


class _Layout(NamedTuple):
    """Validated ``(label, dim)`` pairs with their labels, dims, total
    dimension and label positions."""

    spaces: tuple[tuple[str, int], ...]
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    dim: int
    index: dict[str, int]


def _layout(spaces) -> _Layout:
    try:
        return _layout_of(spaces)
    except TypeError:  # unhashable pairs, such as lists
        return _layout_of(tuple(map(tuple, spaces)))


@cache
def _layout_of(spaces) -> _Layout:
    spaces = tuple((str(lbl), int(d)) for lbl, d in spaces)
    labels = tuple(lbl for lbl, _ in spaces)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {list(labels)}")
    if any(d < 1 for _, d in spaces):
        raise ValueError(f"space dimensions must be positive: {spaces}")
    dims = tuple(d for _, d in spaces)
    return _Layout(spaces, labels, dims, prod(dims), {lbl: i for i, lbl in enumerate(labels)})


@dataclass(frozen=True)
class LabeledOperator:
    """Square operator on a tensor product of named spaces.

    ``spaces`` fixes the Kronecker order of ``mat``; operations address
    factors by label so callers never juggle raw axis indices. An empty
    ``spaces`` tuple means a scalar stored as a 1x1 matrix. The layout of a
    ``spaces`` value is validated and derived once per process and shared.
    """

    mat: np.ndarray
    spaces: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.mat, dtype=complex)
        layout = _layout(self.spaces)
        for name, value in (("mat", mat), ("spaces", layout.spaces), ("_layout", layout)):
            object.__setattr__(self, name, value)
        d_total = layout.dim
        if mat.ndim != 2 or mat.shape != (d_total, d_total):
            raise ValueError(
                f"matrix shape {mat.shape} does not match spaces {self.spaces} "
                f"(expected {(d_total, d_total)})"
            )

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return self._layout.labels

    @property
    def dims(self) -> tuple[int, ...]:
        return self._layout.dims

    def _positions(self, labels: Sequence[str]) -> list[int]:
        index = self._layout.index
        for lbl in labels:
            if lbl not in index:
                raise KeyError(f"no space labeled {lbl!r} in {self.labels}")
        return [index[lbl] for lbl in labels]

    def tensor(self, other: "LabeledOperator") -> "LabeledOperator":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"tensor factors share labels {sorted(overlap)}")
        return LabeledOperator(np.kron(self.mat, other.mat), self.spaces + other.spaces)

    def reorder(self, new_labels: Sequence[str]) -> "LabeledOperator":
        """Permute tensor factors into the order given by ``new_labels``."""
        new_labels = tuple(new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise ValueError(f"reorder labels {new_labels} != current {self.labels}")
        if new_labels == self.labels:
            return self
        n = len(self.spaces)
        idx = self._positions(new_labels)
        t = self.mat.reshape(self.dims + self.dims)
        perm = idx + [n + i for i in idx]
        new_spaces = tuple(self.spaces[i] for i in idx)
        return LabeledOperator(t.transpose(perm).reshape(self.dim, self.dim), new_spaces)

    def partial_trace(self, labels: Sequence[str]) -> "LabeledOperator":
        """Trace out the named spaces."""
        plan = _trace_plan(self.dims, tuple(self._positions(labels)))
        return LabeledOperator(_traced(self.mat, plan), tuple(self.spaces[a] for a in plan.keep))

    def identity_factor_residual(self, label: str, z: "LabeledOperator") -> float:
        """max |X - z (x) I_label| entrywise, the identity sitting at
        ``label``'s position and ``z`` an operator on the other spaces in
        their order here: one broadcast over X read as (lo, d, hi, lo, d, hi).
        A NaN entry gives NaN."""
        at = self._positions([label])[0]
        rest = self.spaces[:at] + self.spaces[at + 1:]
        if z.spaces != rest:
            raise ValueError(f"z on {z.spaces} does not match the other spaces {rest}")
        d, lo = self.dims[at], prod(self.dims[:at])
        hi = self.dim // (lo * d)
        x = self.mat.reshape(lo, d, hi, lo, d, hi)
        zi = z.mat.reshape(lo, 1, hi, lo, 1, hi) * np.eye(d).reshape(1, d, 1, 1, d, 1)
        return float(np.abs(x - zi).max())
