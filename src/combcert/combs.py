"""Quantum combs, the link product, and sequential testers.

An n-comb over the ordered spaces (H_0, H_1, ..., H_{2n-1}) is a PSD operator
X = X^(n) whose chain of marginals satisfies, for j = n..1,

    tr_{H_{2j-1}} X^(j)  =  X^(j-1) (x) I_{H_{2j-2}},
    X^(j-1) = tr_{H_{2j-2}}(...) / dim(H_{2j-2}),

terminating at X^(0) = 1. These are exactly the Choi operators of sequential
networks with inputs on the even-position spaces and outputs on the odd ones.

The link product contracts two labeled operators over their shared spaces
(with a partial transpose on the shared part) and is the composition rule for
such Chois.

Random channels, combs and testers are drawn and built in two steps. The
``draw_*`` functions make every generator call of one object, in a fixed
order, and do no arithmetic; ``small_channels`` and ``build_testers`` then
build a list of draws, with same-shaped work (the Haar isometries, Chois,
square roots and pseudo-inverses) stacked by shape, in runs under
``linalg.STACK_BYTES``.
A stack gives each member's per-matrix result bit for bit, so an object does
not depend on what it was built with. ``random_tester`` is the one-object
form; ``channels.random_channel`` draws one channel of a given Kraus rank the
way ``draw_small_channel`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import Channel, choi_from_kraus, choi_operator
from .linalg import (
    HERM_CHECK_TOL,
    LabeledOperator,
    ginibre,
    haar_from_ginibre,
    psd_checks,
    psd_sqrt,
    pseudo_inverse,
    stack_runs,
)

__all__ = [
    "ChannelDraw",
    "CombCertificate",
    "Tester",
    "TesterCertificate",
    "TesterDraw",
    "build_testers",
    "certify_comb",
    "certify_combs",
    "channels_network",
    "draw_small_channel",
    "draw_tester",
    "link_product",
    "random_tester",
    "slot_labels",
    "small_channels",
    "success_probability",
    "validate_tester",
    "validate_testers",
]

HEAD_LABEL = "_head"
TAIL_LABEL = "_tail"
# the contraction order of a two-operand einsum; passing it spares einsum
# the search that optimize=True runs, and the contraction is the same
_PAIR_PATH = ["einsum_path", (0, 1)]
_ONE = complex(1.0)


def _by_shape(fn: Callable, items: Sequence[np.ndarray]) -> list:
    """``fn`` applied to each item, one call per run of same-shaped items:
    the items of one shape are stacked in runs under ``STACK_BYTES``
    (:func:`stack_runs`), ``fn`` returns one result per stack member, and
    the results come back in item order."""
    groups: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item.shape, []).append(i)
    out = [None] * len(items)
    for idx in groups.values():
        for run in stack_runs(len(idx), items[idx[0]].nbytes):
            for i, res in zip(idx[run], fn(np.stack([items[i] for i in idx[run]]))):
                out[i] = res
    return out


class _LinkPlan(NamedTuple):
    x_sub: list[int]
    y_sub: list[int]
    out_sub: list[int]
    out_spaces: tuple[tuple[str, int], ...]
    d_out: int


@cache
def _link_plan(x_spaces: tuple, y_spaces: tuple) -> _LinkPlan:
    """einsum subscripts and output spaces of the link product of operators
    on ``x_spaces`` and ``y_spaces``, derived once per pair of layouts."""
    x_dims, y_dims = dict(x_spaces), dict(y_spaces)
    shared = sorted(x_dims.keys() & y_dims.keys())
    for lbl in shared:
        if x_dims[lbl] != y_dims[lbl]:
            raise ValueError(
                f"shared label {lbl!r} has mismatched dimensions "
                f"{x_dims[lbl]} != {y_dims[lbl]}"
            )
    out_labels = sorted(x_dims.keys() ^ y_dims.keys())
    out_spaces = tuple((lbl, x_dims[lbl] if lbl in x_dims else y_dims[lbl]) for lbl in out_labels)

    # integer einsum subscripts: ket/bra id per (owner, label); shared labels
    # use one id for both operands on the ket side and one on the bra side,
    # which contracts ket-with-ket and bra-with-bra — the partial transpose
    # baked into the link product
    ids: dict[tuple[str, str, int], int] = {}

    def _id(owner: str, label: str, side: int) -> int:
        key = ("s" if label in shared else owner, label, side)
        return ids.setdefault(key, len(ids))

    def _sub(owner: str, labels) -> list[int]:
        return [_id(owner, l, 0) for l in labels] + [_id(owner, l, 1) for l in labels]

    x_sub = _sub("x", x_dims)
    y_sub = _sub("y", y_dims)
    out_sub = [_id("x" if l in x_dims else "y", l, side) for side in (0, 1) for l in out_labels]
    return _LinkPlan(x_sub, y_sub, out_sub, out_spaces, prod(d for _, d in out_spaces))


def link_product(x: LabeledOperator, y: LabeledOperator) -> LabeledOperator:
    """Link product X * Y = tr_shared[(X^{T_shared} (x) I)(I (x) Y)].

    The result lives on the symmetric difference of the label sets, in
    sorted label order (the operation is commutative, so no operand order
    survives anyway). Operators sharing no label reduce to a tensor product;
    full overlap gives a scalar (1x1, empty label tuple).
    """
    plan = _link_plan(x.spaces, y.spaces)
    res = np.einsum(
        x.mat.reshape(x.dims + x.dims), plan.x_sub,
        y.mat.reshape(y.dims + y.dims), plan.y_sub,
        plan.out_sub, optimize=_PAIR_PATH,
    )
    return LabeledOperator(res.reshape(plan.d_out, plan.d_out), plan.out_spaces)


class CombCertificate(NamedTuple):
    """The positivity verdict's least eigenvalue and the chain walk's
    residuals, the last of them |X^(0) - 1|, which holds tr X to the product
    of the input dimensions."""

    ok: bool
    min_eig: float
    chain_residuals: tuple[float, ...]

    @property
    def max_chain_residual(self) -> float:
        return max(self.chain_residuals)


def _comb_sequence(op: LabeledOperator, sequence: Sequence[str]) -> tuple[str, ...]:
    sequence = tuple(sequence)
    if len(sequence) % 2 != 0 or not sequence:
        raise ValueError(f"comb sequence must have even positive length, got {sequence}")
    if sorted(sequence) != sorted(op.labels):
        raise ValueError(f"sequence {sequence} does not match operator labels {op.labels}")
    return sequence


def certify_comb(
    op: LabeledOperator,
    sequence: Sequence[str],
    psd_tol: float = 1e-8,
    chain_tol: float = 1e-8,
) -> CombCertificate:
    """Check the comb conditions for ``op`` over the ordered ``sequence``.

    Verifies positivity (eigenvalue floor ``-psd_tol * max(1, lambda_max)``)
    and walks the marginal chain from the last space down, recording the
    max-entry residual of each identity-factor condition plus the final
    |X^(0) - 1| deviation.
    """
    return certify_combs([op], [sequence], psd_tol, chain_tol)[0]


def certify_combs(
    ops: Sequence[LabeledOperator],
    sequences: Sequence[Sequence[str]],
    psd_tol: float = 1e-8,
    chain_tol: float = 1e-8,
) -> list[CombCertificate]:
    """:func:`certify_comb` of each operator over its sequence; the
    positivity checks of same-shaped operators are stacked (``_by_shape``)."""
    sequences = [_comb_sequence(op, seq) for op, seq in zip(ops, sequences, strict=True)]
    verdicts = _by_shape(
        lambda x: psd_checks(x, tol=psd_tol, check_tol=max(psd_tol, HERM_CHECK_TOL)),
        [op.mat for op in ops],
    )
    certs = []
    for op, sequence, verdict in zip(ops, sequences, verdicts):
        # the marginal chain walk
        y = op.partial_trace([sequence[-1]])
        residuals = []
        for j in range(len(sequence) // 2, 0, -1):
            label = sequence[2 * j - 2]
            z = y.partial_trace([label])
            z = LabeledOperator(z.mat / dict(y.spaces)[label], z.spaces)
            residuals.append(y.identity_factor_residual(label, z))
            if j > 1:
                y = z.partial_trace([sequence[2 * j - 3]])
        # X^(0), the last z, is an operator on no spaces: one entry
        residuals.append(float(abs(z.mat[0, 0] - 1.0)))
        certs.append(CombCertificate(bool(verdict.ok and max(residuals) <= chain_tol),
                                     verdict.min_eig, tuple(residuals)))
    return certs


@dataclass(frozen=True)
class Tester:
    """Finite family of PSD operators implementing a sequential measurement.

    ``sequence`` orders the slot spaces (A_1, B_1, ..., A_n, B_n): A_j feeds
    the j-th channel use, B_j collects its output. Validity means every
    element is PSD and the element sum, padded with explicit dimension-1 head
    and tail spaces, is an (n+1)-comb over
    (head, A_1, B_1, ..., A_n, B_n, tail).
    """

    elements: tuple[LabeledOperator, ...]
    sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "sequence", tuple(self.sequence))
        if not self.elements:
            raise ValueError("a tester needs at least one element")
        for el in self.elements:
            if sorted(el.labels) != sorted(self.sequence):
                raise ValueError(
                    f"tester element labels {el.labels} do not match sequence {self.sequence}"
                )

    def element_sum(self) -> LabeledOperator:
        acc = self.elements[0].reorder(self.sequence)
        mat = acc.mat.copy()
        for el in self.elements[1:]:
            mat += el.reorder(self.sequence).mat
        return LabeledOperator(mat, acc.spaces)


class TesterCertificate(NamedTuple):
    ok: bool
    sum_certificate: CombCertificate


def validate_tester(tester: Tester, psd_tol: float = 1e-8, chain_tol: float = 1e-8) -> TesterCertificate:
    """Certify tester element positivity and the padded-sum comb conditions."""
    return validate_testers([tester], psd_tol, chain_tol)[0]


def validate_testers(
    testers: Sequence[Tester], psd_tol: float = 1e-8, chain_tol: float = 1e-8
) -> list[TesterCertificate]:
    """:func:`validate_tester` of each tester; the positivity checks of
    same-shaped elements, and of same-shaped element sums, are stacked
    (``_by_shape``)."""
    elements = [el.mat for t in testers for el in t.elements]
    checks = iter(_by_shape(
        lambda x: psd_checks(x, tol=psd_tol, check_tol=max(psd_tol, HERM_CHECK_TOL)), elements))
    # I_head (x) total (x) I_tail: np.kron with a dimension-1 identity is one
    # product with its entry 1 + 0j, so two products give the krons bit for bit
    padded = [
        LabeledOperator(total.mat * _ONE * _ONE, ((HEAD_LABEL, 1),) + total.spaces + ((TAIL_LABEL, 1),))
        for total in (t.element_sum() for t in testers)
    ]
    certs = certify_combs(
        padded, [(HEAD_LABEL,) + t.sequence + (TAIL_LABEL,) for t in testers], psd_tol, chain_tol)
    # a list, not a generator: each tester takes all of its elements' checks
    element_ok = [all([next(checks).ok for _ in t.elements]) for t in testers]
    return [TesterCertificate(ok=bool(good and cert.ok), sum_certificate=cert)
            for good, cert in zip(element_ok, certs)]


def channels_network(channels: Sequence[Channel], sequence: Sequence[str]) -> LabeledOperator:
    """Tensor the Choi operators of ``channels`` onto the tester slot labels."""
    sequence = tuple(sequence)
    if len(sequence) != 2 * len(channels):
        raise ValueError(f"sequence {sequence} does not fit {len(channels)} channels")
    net = None
    for j, ch in enumerate(channels):
        in_lbl, out_lbl = sequence[2 * j], sequence[2 * j + 1]
        c = choi_operator(ch, out_label=out_lbl, in_label=in_lbl)
        net = c if net is None else net.tensor(c)
    assert net is not None
    return net


def success_probability(tester: Tester, network) -> np.ndarray:
    """Outcome probabilities p_i = tr(T_i^T N) of a tester against a network.

    ``network`` is either a labeled operator on exactly the tester's slot
    labels (an n-comb, e.g. a tensor power of channel Chois) or a sequence of
    channels, one per slot pair.
    """
    if not isinstance(network, LabeledOperator):
        network = channels_network(network, tester.sequence)
    if sorted(network.labels) != sorted(tester.sequence):
        raise ValueError(f"network labels {network.labels} do not match tester slots {tester.sequence}")
    aligned = network.reorder(tester.sequence)
    probs = []
    for el in tester.elements:
        t = el.reorder(tester.sequence)
        probs.append(float(np.sum(t.mat * aligned.mat).real))
    return np.asarray(probs)


# ---------------------------------------------------------------------------
# random channels, combs and testers: draws, then stacked builds


class ChannelDraw(NamedTuple):
    """The draws of one random small channel: the Kraus rank and the complex
    Ginibre matrix, (d_out * rank) x d_in, that its isometry orthonormalizes."""

    d_out: int
    rank: int
    ginibre: np.ndarray


def draw_small_channel(d_in: int, d_out: int, rng: np.random.Generator) -> ChannelDraw:
    """Draw a Haar-random channel of Kraus rank 1 or 2, raised to
    ceil(d_in / d_out), the least rank a d_in -> d_out channel needs."""
    rank = max(int(rng.integers(1, 3)), -(-d_in // d_out))
    return ChannelDraw(d_out, rank, ginibre((d_out * rank, d_in), rng))


def small_channels(draws: Sequence[ChannelDraw]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The Stinespring isometries (ancilla-major rows, as
    :func:`channel_from_isometry` reads them) and the Choi operators of the
    drawn channels."""
    isometries = _by_shape(haar_from_ginibre, [d.ginibre for d in draws])
    kraus = [v.reshape(d.rank, d.d_out, -1) for v, d in zip(isometries, draws)]
    chois = _by_shape(lambda k: choi_from_kraus(list(np.swapaxes(k, 0, 1))), kraus)
    return isometries, chois


def slot_labels(n: int) -> tuple[str, ...]:
    """The default labels (A1, B1, ..., An, Bn) of n slot pairs."""
    return tuple(f"{side}{j}" for j in range(1, n + 1) for side in ("A", "B"))


class _CombDraw(NamedTuple):
    pair_dims: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    mem: tuple[int, ...]
    steps: tuple[ChannelDraw, ...]


def _draw_comb(pair_dims, rng: np.random.Generator, labels: tuple[str, ...]) -> _CombDraw:
    """The draws of a random comb over ``labels``: step j is a Haar-random
    channel M_{j-1} (x) A_j -> B_j (x) M_j with a small random memory
    dimension M_j, so the linked steps meet the comb conditions by
    construction and are generically not a product."""
    mem = (1,) + tuple(int(rng.integers(1, 3)) for _ in pair_dims)
    steps = tuple(
        draw_small_channel(mem[j - 1] * d_a, d_b * mem[j], rng)
        for j, (d_a, d_b) in enumerate(pair_dims, start=1)
    )
    return _CombDraw(tuple(pair_dims), labels, mem, steps)


def _link_comb(draw: _CombDraw, chois: Sequence[np.ndarray]) -> LabeledOperator:
    """The comb of a draw from its step Chois: link the steps over their
    memories, trace out the first and last memory."""
    labels, mem = draw.labels, draw.mem
    net: LabeledOperator | None = None
    for j, ((d_a, d_b), choi) in enumerate(zip(draw.pair_dims, chois), start=1):
        # split the step's grouped (out, in) spaces into (slot, memory) factors
        spaces = (
            (labels[2 * j - 1], d_b),
            (f"_m{j}", mem[j]),
            (f"_m{j - 1}", mem[j - 1]),
            (labels[2 * j - 2], d_a),
        )
        step = LabeledOperator(choi, spaces)
        net = step if net is None else link_product(net, step)
    assert net is not None
    return net.partial_trace(["_m0", f"_m{len(mem) - 1}"]).reorder(labels)


class TesterDraw(NamedTuple):
    """The draws of one random tester: its comb's and the Ginibre matrices
    of its outcome weights."""

    labels: tuple[str, ...]
    comb: _CombDraw
    parts: tuple[np.ndarray, ...]


def draw_tester(
    pair_dims: Sequence[tuple[int, int]],
    n_outcomes: int,
    rng: np.random.Generator,
) -> TesterDraw:
    """Draw a random tester over the slot pairs ``pair_dims``, on the slot
    labels (A1, B1, ..., An, Bn); see :func:`random_tester`."""
    n = len(pair_dims)
    if n < 1:
        raise ValueError("need at least one slot pair")
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    labels = slot_labels(n)
    cap_pairs = [(1, pair_dims[0][0])]
    cap_pairs += [(pair_dims[j][1], pair_dims[j + 1][0]) for j in range(n - 1)]
    cap_pairs += [(pair_dims[n - 1][1], 1)]
    comb = _draw_comb(cap_pairs, rng, labels=(HEAD_LABEL,) + labels + (TAIL_LABEL,))
    d = prod(a * b for a, b in pair_dims)
    parts = tuple(ginibre((d, d), rng) for _ in range(n_outcomes))
    return TesterDraw(labels, comb, parts)


def _element(parts: np.ndarray, s_isqrt: np.ndarray, root: np.ndarray) -> np.ndarray:
    """The Hermitian parts of root (s^{-1/2} P s^{-1/2}) root for a stack of
    parts P, matrix by matrix."""
    mat = root @ (s_isqrt @ parts @ s_isqrt) @ root
    return (mat + np.swapaxes(mat.conj(), -1, -2)) / 2


def build_testers(draws: Sequence[TesterDraw]) -> list[Tester]:
    """The testers of the draws: T_i = T^{1/2} R_i T^{1/2}, with T the
    drawn (n+1)-comb's slot operator and R_i = S^{-1/2} P_i S^{-1/2} for the
    PSD parts P_i = G_i G_i^dagger and S = sum_i P_i (S^{-1/2} on the
    support of S). The eigensolves are stacked across testers by shape;
    the products, one tester's parts at a time."""
    chois = iter(small_channels([s for d in draws for s in d.comb.steps])[1])
    totals = [
        _link_comb(d.comb, [next(chois) for _ in d.comb.steps])
        .partial_trace([HEAD_LABEL, TAIL_LABEL])
        .reorder(d.labels)
        for d in draws
    ]
    roots = _by_shape(psd_sqrt, [t.mat for t in totals])
    parts = []
    for d in draws:
        g = np.stack(d.parts)
        parts.append(g @ np.swapaxes(g.conj(), -1, -2))
    # the builtin sum adds the parts left to right, from 0
    s_isqrt = _by_shape(lambda s: psd_sqrt(pseudo_inverse(s)), [sum(p) for p in parts])
    return [
        Tester(
            elements=tuple(LabeledOperator(el, total.spaces) for el in _element(p, s, root)),
            sequence=d.labels,
        )
        for d, total, p, s, root in zip(draws, totals, parts, s_isqrt, roots)
    ]


def random_tester(
    pair_dims: Sequence[tuple[int, int]],
    n_outcomes: int,
    rng: np.random.Generator,
) -> Tester:
    """Random tester: a random (n+1)-comb split by a random identity resolution.

    Draws T as an (n+1)-comb over (head, A_1, B_1, ..., A_n, B_n, tail) with
    dimension-1 caps, then sets T_i = T^{1/2} R_i T^{1/2} where {R_i} is a
    random resolution of the identity, so sum_i T_i = T exactly.
    """
    return build_testers([draw_tester(pair_dims, n_outcomes, rng)])[0]
