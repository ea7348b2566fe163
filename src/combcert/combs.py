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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import Channel, choi_operator, random_channel
from .linalg import FactoredPsd, LabeledOperator, psd_check, psd_sqrt, pseudo_inverse, random_psd

__all__ = [
    "CombCertificate",
    "Tester",
    "TesterCertificate",
    "link_product",
    "certify_comb",
    "comb_expected_trace",
    "validate_tester",
    "success_probability",
    "channels_network",
    "random_comb",
    "random_small_channel",
    "random_tester",
]

HEAD_LABEL = "_head"
TAIL_LABEL = "_tail"


def link_product(x: LabeledOperator, y: LabeledOperator) -> LabeledOperator:
    """Link product X * Y = tr_shared[(X^{T_shared} (x) I)(I (x) Y)].

    The result lives on the symmetric difference of the label sets, in
    sorted label order (the operation is commutative, so no operand order
    survives anyway). Operators sharing no label reduce to a tensor product;
    full overlap gives a scalar (1x1, empty label tuple).
    """
    shared = sorted(set(x.labels) & set(y.labels))
    for lbl in shared:
        if x.dim_of(lbl) != y.dim_of(lbl):
            raise ValueError(
                f"shared label {lbl!r} has mismatched dimensions "
                f"{x.dim_of(lbl)} != {y.dim_of(lbl)}"
            )
    out_labels = sorted(set(x.labels) ^ set(y.labels))
    out_spaces = tuple(
        (lbl, x.dim_of(lbl) if lbl in x.labels else y.dim_of(lbl)) for lbl in out_labels
    )

    # integer einsum subscripts: ket/bra id per (owner, label); shared labels
    # use one id for both operands on the ket side and one on the bra side,
    # which contracts ket-with-ket and bra-with-bra — the partial transpose
    # baked into the link product
    ids: dict[tuple[str, str, int], int] = {}

    def _id(owner: str, label: str, side: int) -> int:
        key = ("s" if label in shared else owner, label, side)
        return ids.setdefault(key, len(ids))

    x_sub = [_id("x", l, 0) for l in x.labels] + [_id("x", l, 1) for l in x.labels]
    y_sub = [_id("y", l, 0) for l in y.labels] + [_id("y", l, 1) for l in y.labels]
    owner = {l: ("x" if l in x.labels else "y") for l in out_labels}
    out_sub = [_id(owner[l], l, 0) for l in out_labels] + [_id(owner[l], l, 1) for l in out_labels]

    tx = x.mat.reshape(x.dims + x.dims)
    ty = y.mat.reshape(y.dims + y.dims)
    res = np.einsum(tx, x_sub, ty, y_sub, out_sub, optimize=True)
    d_out = int(np.prod([d for _, d in out_spaces])) if out_spaces else 1
    return LabeledOperator(res.reshape(d_out, d_out), out_spaces)


@dataclass(frozen=True)
class CombCertificate:
    ok: bool
    min_eig: float
    max_eig: float
    chain_residuals: tuple[float, ...]
    trace_value: float
    expected_trace: float
    psd_tol: float
    chain_tol: float

    @property
    def max_chain_residual(self) -> float:
        return max(self.chain_residuals) if self.chain_residuals else 0.0


def comb_expected_trace(op: LabeledOperator | FactoredPsd, sequence: Sequence[str]) -> float:
    """Product of the even-position (input slot) dimensions."""
    return float(np.prod([op.dim_of(lbl) for lbl in sequence[0::2]]))


def certify_comb(
    op: LabeledOperator | FactoredPsd,
    sequence: Sequence[str],
    psd_tol: float = 1e-8,
    chain_tol: float = 1e-8,
) -> CombCertificate:
    """Check the comb conditions for ``op`` over the ordered ``sequence``.

    Verifies positivity (eigenvalue floor ``-psd_tol * max(1, lambda_max)``)
    and walks the marginal chain from the last space down, recording the
    max-entry residual of each identity-factor condition plus the final
    |X^(0) - 1| deviation. A :class:`FactoredPsd` gives its verdict and its
    first (dense) marginal from the factor; the walk continues on dense
    marginals.
    """
    sequence = tuple(sequence)
    if len(sequence) % 2 != 0 or not sequence:
        raise ValueError(f"comb sequence must have even positive length, got {sequence}")
    if sorted(sequence) != sorted(op.labels):
        raise ValueError(f"sequence {sequence} does not match operator labels {op.labels}")

    if isinstance(op, FactoredPsd):
        is_psd, lo, hi = op.psd_check(tol=psd_tol)
    else:
        is_psd, lo, hi = psd_check(op.mat, tol=psd_tol, check_tol=max(psd_tol, 1e-10))
    residuals = []
    cur = op
    for j in range(len(sequence) // 2, 0, -1):
        out_lbl, in_lbl = sequence[2 * j - 1], sequence[2 * j - 2]
        y = cur.partial_trace([out_lbl])
        z = y.partial_trace([in_lbl])
        z = LabeledOperator(z.mat / op.dim_of(in_lbl), z.spaces)
        residuals.append(y.identity_factor_residual(in_lbl, z.mat))
        cur = z
    residuals.append(float(abs(cur.mat[0, 0] - 1.0)))

    ok = bool(is_psd and max(residuals) <= chain_tol)
    return CombCertificate(
        ok=ok,
        min_eig=lo,
        max_eig=hi,
        chain_residuals=tuple(residuals),
        trace_value=float(op.trace().real),
        expected_trace=comb_expected_trace(op, sequence),
        psd_tol=psd_tol,
        chain_tol=chain_tol,
    )


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


@dataclass(frozen=True)
class TesterCertificate:
    ok: bool
    element_min_eigs: tuple[float, ...]
    sum_certificate: CombCertificate
    trace_value: float
    expected_trace: float


def validate_tester(tester: Tester, psd_tol: float = 1e-8, chain_tol: float = 1e-8) -> TesterCertificate:
    """Certify tester element positivity and the padded-sum comb conditions."""
    min_eigs = []
    all_psd = True
    for el in tester.elements:
        ok, lo, _ = psd_check(el.mat, tol=psd_tol, check_tol=max(psd_tol, 1e-10))
        min_eigs.append(lo)
        all_psd = all_psd and ok
    total = tester.element_sum()
    padded = (
        LabeledOperator.identity(((HEAD_LABEL, 1),))
        .tensor(total)
        .tensor(LabeledOperator.identity(((TAIL_LABEL, 1),)))
    )
    seq = (HEAD_LABEL,) + tester.sequence + (TAIL_LABEL,)
    cert = certify_comb(padded, seq, psd_tol=psd_tol, chain_tol=chain_tol)
    expected = float(np.prod([total.dim_of(lbl) for lbl in tester.sequence[1::2]]))
    return TesterCertificate(
        ok=bool(all_psd and cert.ok),
        element_min_eigs=tuple(min_eigs),
        sum_certificate=cert,
        trace_value=float(total.trace().real),
        expected_trace=expected,
    )


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


def random_small_channel(d_in: int, d_out: int, rng: np.random.Generator) -> Channel:
    """Haar-random channel of Kraus rank 1 or 2, raised to ceil(d_in / d_out),
    the least rank a d_in -> d_out channel needs."""
    return random_channel(d_in, d_out, max(int(rng.integers(1, 3)), -(-d_in // d_out)), rng)


def random_comb(
    pair_dims: Sequence[tuple[int, int]],
    rng: np.random.Generator,
    labels: Sequence[str] | None = None,
) -> LabeledOperator:
    """Random n-comb over ``labels``, built as the link of random channel Chois.

    Step j is a Haar-random channel M_{j-1} (x) A_j -> B_j (x) M_j with small
    random memory dimensions (final memory traced out), so the comb
    conditions hold by construction and the comb is generically not a product.
    """
    n = len(pair_dims)
    if n < 1:
        raise ValueError("need at least one slot pair")
    if labels is None:
        labels = [f"{side}{j}" for j in range(1, n + 1) for side in ("A", "B")]
    labels = list(labels)
    if len(labels) != 2 * n:
        raise ValueError(f"need {2 * n} labels, got {len(labels)}")

    mem = [1] + [int(rng.integers(1, 3)) for _ in range(n)]
    net: LabeledOperator | None = None
    for j in range(1, n + 1):
        d_a, d_b = pair_dims[j - 1]
        d_in = mem[j - 1] * d_a
        d_out = d_b * mem[j]
        ch = random_small_channel(d_in, d_out, rng)
        choi = choi_operator(ch, out_label="_out", in_label="_in")
        # split grouped in/out spaces into (memory, slot) factors
        mat = choi.mat
        spaces = (
            (labels[2 * j - 1], d_b),
            (f"_m{j}", mem[j]),
            (f"_m{j - 1}", mem[j - 1]),
            (labels[2 * j - 2], d_a),
        )
        step = LabeledOperator(mat, spaces)
        net = step if net is None else link_product(net, step)
    assert net is not None
    net = net.partial_trace(["_m0", f"_m{n}"])
    return net.reorder(labels)


def random_tester(
    pair_dims: Sequence[tuple[int, int]],
    n_outcomes: int,
    rng: np.random.Generator,
    labels: Sequence[str] | None = None,
) -> Tester:
    """Random tester: a random (n+1)-comb split by a random identity resolution.

    Draws T as an (n+1)-comb over (head, A_1, B_1, ..., A_n, B_n, tail) with
    dimension-1 caps, then sets T_i = T^{1/2} R_i T^{1/2} where {R_i} is a
    random resolution of the identity, so sum_i T_i = T exactly.
    """
    n = len(pair_dims)
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    if labels is None:
        labels = [f"{side}{j}" for j in range(1, n + 1) for side in ("A", "B")]
    labels = list(labels)
    cap_pairs = [(1, pair_dims[0][0])]
    cap_pairs += [(pair_dims[j][1], pair_dims[j + 1][0]) for j in range(n - 1)]
    cap_pairs += [(pair_dims[n - 1][1], 1)]
    cap_labels = [HEAD_LABEL] + labels + [TAIL_LABEL]
    comb = random_comb(cap_pairs, rng, labels=cap_labels)
    total = comb.partial_trace([HEAD_LABEL, TAIL_LABEL]).reorder(labels)

    d = total.dim
    root = psd_sqrt(total.mat)
    parts = [random_psd(d, rng) for _ in range(n_outcomes)]
    s = sum(parts)
    s_isqrt = psd_sqrt(pseudo_inverse(s))
    elements = []
    for a in parts:
        r = s_isqrt @ a @ s_isqrt
        mat = root @ r @ root
        elements.append(LabeledOperator((mat + mat.conj().T) / 2, total.spaces))
    return Tester(elements=tuple(elements), sequence=tuple(labels))
