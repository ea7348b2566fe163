import tracemalloc

import numpy as np
import pytest

from combcert.channels import Channel, choi_from_kraus, choi_operator, random_channel
from combcert.combs import (
    _draw_comb,
    _link_comb,
    certify_comb,
    certify_combs,
    channels_network,
    link_product,
    random_tester,
    slot_labels,
    small_channels,
    success_probability,
    validate_tester,
)
from combcert.combs import Tester as _Tester  # underscore keeps pytest from collecting it
from combcert.hard import HardInstanceSpec, gamma_outer, gamma_twirl, gamma_twirl_modes
from combcert.hard.instance import comb_sequence, outer_modes, slot_spaces
from combcert.hard.modes import SectorPsd, comb_certificate
from combcert.linalg import (
    LabeledOperator,
    psd_check,
    random_psd,
    vectorize,
)


def _choi_op(ch, out_label, in_label):
    return choi_operator(ch, out_label=out_label, in_label=in_label)


def _random_comb(pair_dims, rng):
    # a random comb on the slot labels, drawn and linked as a tester's comb is
    draw = _draw_comb(pair_dims, rng, slot_labels(len(pair_dims)))
    return _link_comb(draw, small_channels(draw.steps)[1])


def test_link_product_scalar_full_overlap():
    rng = np.random.default_rng(50)
    x = LabeledOperator(rng.normal(size=(6, 6)), (("A", 2), ("B", 3)))
    y = LabeledOperator(rng.normal(size=(6, 6)), (("A", 2), ("B", 3)))
    res = link_product(x, y)
    assert res.spaces == ()
    assert abs(res.mat[0, 0] - np.trace(x.mat.T @ y.mat)) < 1e-10


def test_link_product_no_overlap_is_tensor():
    rng = np.random.default_rng(51)
    x = LabeledOperator(rng.normal(size=(2, 2)), (("A", 2),))
    y = LabeledOperator(rng.normal(size=(3, 3)), (("B", 3),))
    res = link_product(x, y)
    assert res.labels == ("A", "B")
    assert np.abs(res.mat - np.kron(x.mat, y.mat)).max() < 1e-12


def test_link_product_matches_kraus_composition():
    # Choi of E2 o E1 equals C_E1 * C_E2 linked over the intermediate space
    rng = np.random.default_rng(52)
    for _ in range(10):
        e1 = random_channel(2, 3, 2, rng)
        e2 = random_channel(3, 2, 2, rng)
        c1 = _choi_op(e1, "B", "A")
        c2 = _choi_op(e2, "C", "B")
        linked = link_product(c1, c2)
        composed = Channel(tuple(f @ e for f in e2.kraus for e in e1.kraus))
        expected = _choi_op(composed, "C", "A").reorder(("A", "C"))
        assert linked.labels == ("A", "C")
        assert np.abs(linked.mat - expected.mat).max() < 1e-11


def test_link_product_with_identity_choi_relabels():
    rng = np.random.default_rng(53)
    ch = random_channel(2, 2, 2, rng)
    c = _choi_op(ch, "B", "A")
    ident = _choi_op(Channel((np.eye(2),)), "C", "B")
    res = link_product(c, ident)
    assert np.abs(res.mat - c.reorder(("A", "B")).mat).max() < 1e-12


def test_link_product_commutes_and_associates():
    rng = np.random.default_rng(54)
    x = LabeledOperator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (("A", 2), ("B", 3)))
    y = LabeledOperator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), (("B", 3), ("C", 2)))
    z = LabeledOperator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), (("C", 2), ("D", 2)))
    xy = link_product(x, y)
    yx = link_product(y, x)
    assert xy.labels == yx.labels
    assert np.abs(xy.mat - yx.mat).max() < 1e-12
    # no label appears in all three operands, so the product associates
    lhs = link_product(link_product(x, y), z)
    rhs = link_product(x, link_product(y, z))
    assert lhs.labels == rhs.labels
    assert np.abs(lhs.mat - rhs.mat).max() < 1e-11


def test_link_product_preserves_positivity():
    rng = np.random.default_rng(55)
    x = LabeledOperator(random_psd(6, rng), (("A", 2), ("B", 3)))
    y = LabeledOperator(random_psd(6, rng), (("B", 3), ("C", 2)))
    res = link_product(x, y)
    assert psd_check(res.mat, tol=1e-9).ok


def test_link_product_state_evolution():
    # C_E * rho_{AR} = (E (x) id_R)(rho)
    rng = np.random.default_rng(56)
    ch = random_channel(2, 3, 2, rng)
    rho = random_psd(4, rng)
    rho_op = LabeledOperator(rho, (("A", 2), ("R", 2)))
    out = link_product(_choi_op(ch, "B", "A"), rho_op)
    expected = np.zeros((6, 6), dtype=complex)
    for k in ch.kraus:
        big = np.kron(k, np.eye(2))
        expected += big @ rho @ big.conj().T
    assert out.labels == ("B", "R")
    assert np.abs(out.mat - expected).max() < 1e-11


def test_link_product_dimension_mismatch():
    x = LabeledOperator(np.eye(2), (("A", 2),))
    y = LabeledOperator(np.eye(3), (("A", 3),))
    with pytest.raises(ValueError):
        link_product(x, y)


def test_certify_choi_as_one_comb():
    rng = np.random.default_rng(57)
    for _ in range(10):
        d_in, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        r = max(int(rng.integers(1, 4)), -(-d_in // d_out))
        c = _choi_op(random_channel(d_in, d_out, r, rng), "B", "A")
        cert = certify_comb(c, ("A", "B"), psd_tol=1e-9, chain_tol=1e-9)
        assert cert.ok
        assert abs(np.trace(c.mat).real - d_in) < 1e-9


def test_certify_rejects_wrong_direction():
    # amplitude damping is not unital, so its Choi is no comb with the roles
    # of input and output swapped
    g = 0.4
    kraus = [np.array([[1, 0], [0, np.sqrt(1 - g)]]), np.array([[0, np.sqrt(g)], [0, 0]])]
    c = LabeledOperator(choi_from_kraus(kraus), (("B", 2), ("A", 2)))
    assert certify_comb(c, ("A", "B")).ok
    cert = certify_comb(c, ("B", "A"))
    assert not cert.ok
    assert cert.max_chain_residual > 0.01


def test_certify_rejects_non_psd():
    v = vectorize(np.eye(2))
    mat = np.outer(v, v.conj())
    mat[1, 2] += 1e-3
    mat[2, 1] += 1e-3
    c = LabeledOperator(mat, (("B", 2), ("A", 2)))
    cert = certify_comb(c, ("A", "B"))
    assert not cert.ok and cert.min_eig < -1e-4


def test_random_comb_certifies():
    rng = np.random.default_rng(58)
    for pairs in ([(2, 2)], [(2, 3), (3, 2)], [(2, 2), (2, 2), (2, 2)]):
        comb = _random_comb(pairs, rng)
        cert = certify_comb(comb, comb.labels, psd_tol=1e-9, chain_tol=1e-9)
        assert cert.ok
        expected = np.prod([a for a, _ in pairs])
        assert abs(np.trace(comb.mat).real - expected) < 1e-8
        # the chain walk's last residual |X^(0) - 1| is tr X / expected - 1
        assert cert.chain_residuals[-1] < 1e-9


def test_signaling_comb_fails_reversed_order():
    # a network that stores A1 and releases it at B2 signals from slot 1 to
    # slot 2; the reversed slot order must fail the chain conditions
    v = vectorize(np.eye(2))
    ident = np.outer(v, v.conj())
    op = LabeledOperator(ident, (("A1", 2), ("B2", 2))).tensor(
        LabeledOperator(np.eye(1), (("B1", 1),))
    ).tensor(LabeledOperator(np.eye(1), (("A2", 1),)))
    assert certify_comb(op, ("A1", "B1", "A2", "B2")).ok
    assert not certify_comb(op, ("A2", "B2", "A1", "B1")).ok


def test_product_of_chois_is_two_comb():
    rng = np.random.default_rng(59)
    c1 = _choi_op(random_channel(2, 2, 2, rng), "B1", "A1")
    c2 = _choi_op(random_channel(3, 2, 2, rng), "B2", "A2")
    op = c1.tensor(c2)
    assert certify_comb(op, ("A1", "B1", "A2", "B2"), chain_tol=1e-9).ok


def test_random_tester_validates_and_normalizes():
    rng = np.random.default_rng(60)
    tester = random_tester([(2, 2), (2, 2)], 3, rng)
    cert = validate_tester(tester, psd_tol=1e-9, chain_tol=1e-8)
    assert cert.ok
    # tr(sum T_i) equals the product of output dimensions
    assert abs(np.trace(tester.element_sum().mat).real - 4.0) < 1e-8


def test_tester_contraction_identity():
    # sum_i T_i * N = 1 for every comb N on the tester's slots
    rng = np.random.default_rng(61)
    for _ in range(5):
        tester = random_tester([(2, 2), (2, 2)], int(rng.integers(1, 4)), rng)
        comb = _random_comb([(2, 2), (2, 2)], rng)
        probs = success_probability(tester, comb)
        assert probs.min() > -1e-10
        assert abs(probs.sum() - 1.0) < 1e-9
        total = tester.element_sum()
        scalar = link_product(total, comb)
        assert scalar.spaces == ()
        assert abs(scalar.mat[0, 0] - 1.0) < 1e-9


def test_success_probability_against_channels():
    rng = np.random.default_rng(62)
    tester = random_tester([(2, 3), (3, 2)], 2, rng)
    chans = [random_channel(2, 3, 2, rng), random_channel(3, 2, 2, rng)]
    probs = success_probability(tester, chans)
    assert abs(probs.sum() - 1.0) < 1e-9
    net = channels_network(chans, tester.sequence)
    assert np.abs(success_probability(tester, net) - probs).max() == 0.0


def test_prepare_measure_tester_discriminates_orthogonal_unitaries():
    # tester elements M_k^T * rho for the maximally entangled probe and the
    # projective POVM onto the two Choi supports discriminate perfectly
    d = 2
    u1, u2 = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = LabeledOperator(np.outer(vectorize(np.eye(d)), vectorize(np.eye(d)).conj()) / d, (("A1", 2), ("R", 2)))
    p1 = np.outer(vectorize(u1), vectorize(u1).conj()) / d
    p2 = np.outer(vectorize(u2), vectorize(u2).conj()) / d
    p3 = np.eye(4) - p1 - p2
    elements = []
    for m in (p1, p2, p3):
        m_t = LabeledOperator(m.T, (("B1", 2), ("R", 2)))
        elements.append(link_product(m_t, rho).reorder(("A1", "B1")))
    tester = _Tester(tuple(elements), ("A1", "B1"))
    assert validate_tester(tester, psd_tol=1e-9, chain_tol=1e-9).ok
    probs1 = success_probability(tester, [Channel((u1,))])
    probs2 = success_probability(tester, [Channel((u2,))])
    assert np.abs(probs1 - np.array([1.0, 0.0, 0.0])).max() < 1e-10
    assert np.abs(probs2 - np.array([0.0, 1.0, 0.0])).max() < 1e-10


def test_factored_comb_rejects_a_negative_weight():
    # the mode walk's positivity reads the spectrum it is given
    spec = HardInstanceSpec.concrete(1, 3)
    good = outer_modes(spec, 2, 1)
    extra = np.array([[-good.vecs[1, 0].conj()], [good.vecs[0, 0].conj()]])
    bad = good._replace(vecs=np.hstack([good.vecs, extra]), vals=np.append(good.vals, -0.1))
    cert = comb_certificate(spec, bad)
    assert not cert.ok and cert.min_eig == -0.1


def test_factored_comb_scaled_by_two_fails_the_chain():
    spec = HardInstanceSpec.concrete(1, 3)
    f = outer_modes(spec, 2, 1)
    cert = comb_certificate(spec, f._replace(vals=2 * f.vals))
    assert cert.min_eig == 0.0 and not cert.ok
    assert cert.max_chain_residual > 1.0


def test_certify_combs_equals_one_call_each():
    rng = np.random.default_rng(42)
    spec = HardInstanceSpec.concrete(1, 3)
    f = gamma_outer(spec, 2, 1)
    spaces = slot_spaces(spec, 2)
    ops = [
        _random_comb([(2, 2), (2, 3)], rng),
        LabeledOperator(gamma_outer(spec, 2, 0), spaces),
        _random_comb([(3, 2)], rng),
        LabeledOperator(2 * f, spaces),  # fails the chain
        _random_comb([(2, 2), (2, 3)], rng),
        LabeledOperator(f, spaces),
        LabeledOperator(-np.eye(4), (("A1", 2), ("B1", 2))),  # fails positivity
    ]
    seqs = [comb_sequence(len(op.spaces) // 2) for op in ops]
    certs = certify_combs(ops, seqs, psd_tol=1e-7, chain_tol=1e-7)
    assert [c.ok for c in certs] == [True, True, True, False, True, True, False]
    for op, seq, cert in zip(ops, seqs, certs):
        assert cert == certify_comb(op, seq, psd_tol=1e-7, chain_tol=1e-7)
        # the stacked verdict is the per-matrix one
        assert cert.min_eig == psd_check(op.mat, tol=1e-7).min_eig


@pytest.mark.parametrize(
    "d1, d2, max_n",
    [(1, 2, 3), (1, 3, 4), (2, 4, 3), (2, 5, 3)],
)
def test_factored_walk_equals_the_dense_walk_on_the_densified_operator(d1, d2, max_n):
    # the mode walk on Sym^n(M) against the dense walk on the slot operator:
    # every default gamma cell at n <= 3, (1,3) at n = 4 and (2,4) at n = 3
    spec = HardInstanceSpec.concrete(d1, d2)
    for n in range(1, max_n + 1):
        seq = comb_sequence(n)
        spaces = slot_spaces(spec, n)
        for modes, slot in ((outer_modes, gamma_outer), (gamma_twirl_modes, gamma_twirl)):
            for i in range(n + 1):
                got = comb_certificate(spec, modes(spec, n, i))
                want = certify_comb(LabeledOperator(slot(spec, n, i), spaces), seq, psd_tol=1e-7, chain_tol=1e-7)
                assert got.ok == want.ok
                assert got.min_eig == pytest.approx(want.min_eig, abs=1e-13)
                assert len(got.chain_residuals) == len(want.chain_residuals)
                # Frobenius in mode coordinates bounds the slot max-entry residual
                for a, b in zip(got.chain_residuals, want.chain_residuals):
                    assert b <= a + 1e-15 and a <= 1e-13, (modes.__name__, n, i)


def test_factored_walk_of_a_large_twirl_stays_within_a_few_factors():
    # Gamma_4 at (2,4), n = 4: 35 dimensions of Sym^4(M); the slot-space
    # factor is 4096 x 35 (2.2 MB), and its dense first marginal 1024-square
    spec = HardInstanceSpec.concrete(2, 4)
    f = gamma_twirl_modes(spec, 4, 4)
    tracemalloc.start()
    try:
        cert = comb_certificate(spec, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.ok
    assert peak < 12 * 2**20, peak


def test_zero_rank_factor_walks_to_a_zero_trace():
    # a zero-column operator walks to X^(0) = 0
    spec = HardInstanceSpec.concrete(1, 3)
    zero = SectorPsd(2, 1, np.zeros((2, 0)), np.zeros(0))
    cert = comb_certificate(spec, zero)
    assert cert.min_eig == 0.0 and not cert.ok
    assert cert.chain_residuals == (0.0, 0.0, 1.0)