import numpy as np
import pytest

from combcert import linalg
from combcert.channels import kraus_rank
from combcert.linalg import (
    LabeledOperator,
    floor_rule,
    frobenius,
    ginibre,
    haar_from_ginibre,
    haar_isometry,
    haar_unitary,
    haar_unitary_batch,
    herm_eig,
    herm_eigvals,
    nullspace,
    partial_trace,
    pseudo_inverse,
    pseudo_inverse_sqrt,
    psd_check,
    psd_checks,
    psd_sqrt,
    random_psd,
    rank_mask,
    stack_runs,
    trace_norm,
    vectorize,
)


def test_herm_eig_2x2_closed_form():
    # independent oracle: eigenvalues of [[a, b], [conj(b), c]] are
    # (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, c = rng.normal(size=2)
        b = rng.normal() + 1j * rng.normal()
        x = np.array([[a, b], [np.conj(b), c]])
        mid = (a + c) / 2
        rad = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
        vals, _ = herm_eig(x)
        assert abs(vals[0] - (mid - rad)) < 1e-12
        assert abs(vals[1] - (mid + rad)) < 1e-12


def test_herm_eig_contract():
    rng = np.random.default_rng(12)
    for d in (1, 3, 7, 20):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = g + g.conj().T
        vals, vecs = herm_eig(x)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.abs(vecs.conj().T @ vecs - np.eye(d)).max() < 1e-12
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - x) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_herm_eig_rejects_non_hermitian():
    for fn in (herm_eig, herm_eigvals, psd_check):
        with pytest.raises(ValueError):
            fn(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _hermitian_stack(rng, shape, d):
    g = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
    return g + np.swapaxes(g, -2, -1).conj()


@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_herm_eig_stack_equals_per_matrix_calls(shape):
    x = _hermitian_stack(np.random.default_rng(15), shape, 6)
    vals, vecs = herm_eig(x)
    stacked_vals = herm_eigvals(x)
    for idx in np.ndindex(shape):
        one_vals, one_vecs = herm_eig(x[idx])
        assert np.array_equal(vals[idx], one_vals)
        assert np.array_equal(vecs[idx], one_vecs)
        assert np.array_equal(stacked_vals[idx], herm_eigvals(x[idx]))


def test_herm_eig_stack_rejects_a_non_hermitian_member():
    x = _hermitian_stack(np.random.default_rng(16), (4,), 3)
    x[2, 0, 1] += 1e-3
    for fn in (herm_eig, herm_eigvals):
        with pytest.raises(ValueError, match=r"member \(2,\)"):
            fn(x)
    # a relative asymmetry below the tolerance passes, member by member
    y = _hermitian_stack(np.random.default_rng(16), (4,), 3)
    y[2, 0, 1] += 1e-12
    herm_eig(y)
    with pytest.raises(ValueError):
        herm_eig(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("shape", [(3, 3), (2, 5)])
def test_trace_norm_stack_equals_per_matrix_calls(shape):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 7) + shape) + 1j * rng.normal(size=(2, 7) + shape)
    norms = trace_norm(x)
    assert norms.shape == (2, 7)
    for idx in np.ndindex(2, 7):
        assert norms[idx] == trace_norm(x[idx])
    with pytest.raises(ValueError):
        trace_norm(np.ones(3))


def test_stacked_roots_inverses_and_psd_checks_equal_per_matrix_calls():
    rng = np.random.default_rng(18)
    real = rng.normal(size=(5, 5))
    x = np.stack([random_psd(5, rng), random_psd(5, rng, rank=2), (real @ real.T).astype(complex),
                  np.zeros((5, 5))])
    for fn in (psd_sqrt, pseudo_inverse):
        stacked = fn(x)
        for member, one in zip(stacked, x):
            assert np.array_equal(member, fn(one))
    assert not pseudo_inverse(x[3]).any()
    # the complex-typed real member too: a stack is solved member by member
    # as its own calls solve it
    assert all(np.array_equal(v, herm_eigvals(one)) for v, one in zip(herm_eigvals(x), x))
    assert psd_checks(x) == [psd_check(one) for one in x]
    x[1, 0, 0] = -1.0
    assert psd_checks(x, tol=1e-9) == [psd_check(one, tol=1e-9) for one in x]


@pytest.mark.parametrize("shape", [(500, 3, 3), (7, 81, 81), (2, 7, 4, 6)])
def test_frobenius_stack_equals_per_matrix_calls(shape):
    rng = np.random.default_rng(19)
    x = ginibre(shape, rng)
    norms = frobenius(x)
    assert norms.shape == shape[:-2]
    for idx in np.ndindex(shape[:-2]):
        assert norms[idx] == frobenius(x[idx]) == np.sqrt((np.abs(x[idx]) ** 2).sum())
    assert np.abs(norms - np.linalg.norm(x, axis=(-2, -1))).max() <= 1e-15 * norms.max()
    assert all(frobenius(m) == frobenius(m.reshape(-1)) for m in x.reshape((-1,) + shape[-2:])[:5])


def test_frobenius_of_a_strided_slice_equals_per_matrix_calls():
    rng = np.random.default_rng(20)
    u = ginibre((300, 2, 5, 5), rng)
    for part in (u[:, 0], u[:, 1], u[::3, :, 1:, ::2]):
        norms = frobenius(part)
        # each member's own norm, and that of its contiguous copy
        for idx in np.ndindex(part.shape[:-2]):
            assert norms[idx] == frobenius(part[idx]) == frobenius(np.array(part[idx]))
        ref = np.linalg.norm(part, axis=(-2, -1))
        assert np.abs(norms - ref).max() <= 1e-15 * ref.max()
    for m in u[:20, 0]:
        assert abs(frobenius(m) - np.linalg.norm(m)) <= 1e-15 * np.linalg.norm(m)


def test_pseudo_inverse_sqrt_is_the_root_of_the_pseudo_inverse():
    rng = np.random.default_rng(21)
    for d in (4, 9):
        s = random_psd(d, rng)
        assert np.abs(pseudo_inverse_sqrt(s) - psd_sqrt(pseudo_inverse(s))).max() <= 1e-12
    for d, rank in ((6, 3), (9, 1), (16, 7)):
        g = ginibre((d, rank), rng)
        root = pseudo_inverse_sqrt(g @ g.conj().T)
        # independent route: G = U diag(sigma) W^dagger gives S^{-1/2} = U diag(1/sigma) U^dagger
        u, sigma, _ = np.linalg.svd(g, full_matrices=False)
        assert np.abs(root - (u / sigma) @ u.conj().T).max() <= 1e-12
        assert np.abs(root @ root - pseudo_inverse(g @ g.conj().T)).max() <= 1e-12
        # the root of the dense pseudo-inverse also lifts its rounding-level
        # null eigenvalues to about sqrt(eps) each
        assert np.abs(root - psd_sqrt(pseudo_inverse(g @ g.conj().T))).max() <= 1e-7
    x = np.stack([random_psd(5, rng), random_psd(5, rng, rank=2), np.zeros((5, 5))])
    assert all(np.array_equal(a, pseudo_inverse_sqrt(one)) for a, one in zip(pseudo_inverse_sqrt(x), x))
    assert not pseudo_inverse_sqrt(x[2]).any()


def test_haar_from_ginibre_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(18)
    g = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    u = haar_from_ginibre(g)
    for k in range(6):
        assert np.array_equal(u[k], haar_from_ginibre(g[k]))
        assert np.abs(u[k].conj().T @ u[k] - np.eye(4)).max() < 1e-12


def test_psd_check():
    rng = np.random.default_rng(13)
    w = random_psd(6, rng)
    ok, lo = psd_check(w)
    assert ok and lo > -1e-12
    assert not psd_check(-np.eye(3)).ok
    # rank-deficient but PSD
    ok, lo = psd_check(random_psd(6, rng, rank=2))
    assert ok and abs(lo) < 1e-10


@pytest.mark.parametrize("kind", ["complex", "complex-typed-real", "real"])
def test_psd_check_matches_eigh_reference(kind):
    # the values-only solve must agree with a full complex eigh on the same
    # input, a complex-typed real one included
    rng = np.random.default_rng(14)
    for d in (1, 6, 40):
        g = rng.normal(size=(d, d))
        if kind == "complex":
            g = g + 1j * rng.normal(size=(d, d))
        elif kind == "complex-typed-real":
            g = g.astype(complex)
        for x in (g @ g.conj().T, g + g.conj().T, g[:, : d // 2] @ g[:, : d // 2].conj().T):
            ref = np.linalg.eigh(x.astype(complex))[0]
            tol = 1e-12 * max(1.0, abs(ref[-1]))
            ok, lo = psd_check(x)
            assert abs(lo - ref[0]) <= tol
            assert ok == (ref[0] >= -1e-10 * max(1.0, ref[-1]))
            assert np.abs(herm_eigvals(x) - ref).max() <= tol


def test_the_three_psd_checks_share_one_floor_rule():
    # exact spectra (-0.5, 0, 2): at tol 0.25 the floor is -0.25 * max(1, 2)
    for low, ok in ((-0.5, True), (-0.5000001, False)):
        dense = np.diag([low, 0.0, 2.0])
        want = (ok, low)
        assert psd_check(dense, tol=0.25) == want
        assert psd_checks(np.stack([dense, dense]), tol=0.25) == [want, want]
        # the rule on a known spectrum, as the mode comb walk reads it
        assert floor_rule(np.array([[low, 0.0, 2.0]]), 0.25) == [want]
    # an empty spectrum
    empty = (True, 0.0)
    assert psd_check(np.zeros((0, 0))) == empty
    assert psd_checks(np.zeros((2, 0, 0))) == [empty, empty]
    assert floor_rule(np.zeros((1, 0)), 0.25) == [empty]


def test_rank_cut_keeps_nothing_without_a_positive_eigenvalue():
    # with rank_tol 2, -1 would pass the cut 2 * lambda_max were it not for lambda_max > 0
    assert not rank_mask(np.array([-3.0, -1.0]), 2.0).any()
    assert not rank_mask(np.zeros((2, 4)), 1e-10).any()
    rng = np.random.default_rng(19)
    one = -np.eye(3)
    stack = np.stack([one, np.zeros((3, 3)), random_psd(3, rng, rank=2)])
    assert not pseudo_inverse(one).any()
    assert kraus_rank(one) == 0
    inverses = pseudo_inverse(stack)
    assert not inverses[:2].any() and inverses[2].any()
    assert kraus_rank(stack).tolist() == [0, 0, 2]


def test_ginibre_draws_the_real_part_then_the_imaginary_part():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for shape in (3, (2, 3), (4, 2, 2)):
        re, im = b.standard_normal(shape), b.standard_normal(shape)
        assert np.array_equal(ginibre(shape, a), re + 1j * im)
    assert a.bit_generator.state == b.bit_generator.state


def test_trace_norm_oracles():
    rng = np.random.default_rng(14)
    d = np.diag([3.0, -2.0, 0.5])
    assert abs(trace_norm(d) - 5.5) < 1e-12
    # rank one: ||u v^dagger||_1 = ||u|| ||v||
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert abs(trace_norm(np.outer(u, v.conj())) - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10
    # unitary of dimension d has trace norm d
    assert abs(trace_norm(haar_unitary(4, rng)) - 4.0) < 1e-10
    # non-square input is fine
    m = rng.normal(size=(3, 5))
    s = np.linalg.svd(m, compute_uv=False)
    assert abs(trace_norm(m) - s.sum()) < 1e-12


def test_pseudo_inverse_against_numpy():
    rng = np.random.default_rng(15)
    for rank in (2, 5):
        x = random_psd(5, rng, rank=rank)
        p = pseudo_inverse(x)
        assert np.abs(p - np.linalg.pinv(x, hermitian=True)).max() < 1e-8
        assert np.abs(x @ p @ x - x).max() < 1e-9
        assert np.abs(p @ x @ p - p).max() < 1e-9
    assert np.abs(pseudo_inverse(np.zeros((3, 3)))).max() == 0.0


def test_nullspace():
    rng = np.random.default_rng(17)
    ns = nullspace(np.diag([1.0, 0.0]))
    assert ns.shape == (2, 1)
    assert abs(abs(ns[1, 0]) - 1.0) < 1e-12
    # random rank-r rectangular matrix
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    b = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    m = a @ b
    ns = nullspace(m)
    assert ns.shape == (8, 5)
    assert np.abs(m @ ns).max() < 1e-10
    assert np.abs(ns.conj().T @ ns - np.eye(5)).max() < 1e-12


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(18)
    for d in (1, 2, 5):
        u = haar_unitary(d, rng)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_haar_unitary_first_entry_moment():
    # E |U_00|^2 = 1/d for Haar measure; |U_00|^2 ~ Beta(1, d-1)
    rng = np.random.default_rng(19)
    d, n = 3, 2000
    vals = np.array([abs(haar_unitary(d, rng)[0, 0]) ** 2 for _ in range(n)])
    sigma = np.sqrt((d - 1) / (d**2 * (d + 1)) / n)
    assert abs(vals.mean() - 1 / d) < 5 * sigma


def test_haar_isometry():
    rng = np.random.default_rng(20)
    v = haar_isometry(3, 7, rng)
    assert v.shape == (7, 3)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
    with pytest.raises(ValueError):
        haar_isometry(4, 3, rng)


def _qr_haar_reference(g):
    """The sampler as it was built on LAPACK: reduced QR, then the phase of
    R's diagonal moved into Q."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


@pytest.mark.parametrize("shape", [(k, k) for k in range(1, 9)] + [(2, 1), (5, 2), (7, 3), (12, 6)])
def test_haar_from_ginibre_matches_qr_with_phase_fix(shape):
    rng = np.random.default_rng(22)
    g = rng.standard_normal((200, *shape)) + 1j * rng.standard_normal((200, *shape))
    u = haar_from_ginibre(g)
    assert u.shape == g.shape
    assert np.abs(u - _qr_haar_reference(g)).max() <= 1e-13
    assert np.array_equal(u[7], haar_from_ginibre(g[7]))


def test_haar_unitary_batch_is_unitary_to_rounding():
    rng = np.random.default_rng(23)
    for k in (2, 3, 4):
        u = haar_unitary_batch(k, 10**5, rng)
        gram = np.swapaxes(u, -1, -2).conj() @ u
        assert np.abs(gram - np.eye(k)).max() <= 1e-14


def _haar_moment_z_scores(u):
    """|E u11|, |E u11^2| and |E |u11|^2 - 1/k| over a stack of k x k draws,
    each in units of its standard error. Haar measure gives 0, 0 and 1/k."""
    x = u[:, 0, 0]
    k, n = u.shape[-1], len(u)
    return [
        abs(np.mean(y) - target) / (np.std(y) / np.sqrt(n))
        for y, target in ((x, 0.0), (x**2, 0.0), (np.abs(x) ** 2, 1.0 / k))
    ]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_haar_unitary_batch_first_entry_moments(k):
    z = _haar_moment_z_scores(haar_unitary_batch(k, 40000, np.random.default_rng(24)))
    assert max(z) < 5, z


def test_haar_moment_check_rejects_samplers_that_are_not_haar():
    rng = np.random.default_rng(25)
    for k in (2, 3, 4):
        g = rng.standard_normal((40000, k, k)) + 1j * rng.standard_normal((40000, k, k))
        real = haar_from_ginibre(g.real.astype(complex))  # orthogonal, E u11^2 = 1/k
        unfixed = np.linalg.qr(g)[0]  # LAPACK's QR with no phase fix, E u11 != 0
        assert _haar_moment_z_scores(real)[1] > 5
        assert _haar_moment_z_scores(unfixed)[0] > 5


def test_vectorize_conventions():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.abs(vectorize(x).reshape(3, 4) - x).max() == 0.0
    # |psi><phi| vectorizes to psi (x) conj(phi)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.abs(vectorize(np.outer(psi, phi.conj())) - np.kron(psi, phi.conj())).max() < 1e-14
    # vec(A X B) = (A (x) B^T) vec(X)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    lhs = vectorize(a @ x @ b)
    rhs = np.kron(a, b.T) @ vectorize(x)
    assert np.abs(lhs - rhs).max() < 1e-12
    # <<X|Y>> = tr(X^dagger Y)
    y = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert abs(np.vdot(vectorize(x), vectorize(y)) - np.trace(x.conj().T @ y)) < 1e-12


def test_partial_trace_oracles():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = np.kron(a, b)
    assert np.abs(partial_trace(x, (3, 4), [1]) - np.trace(b) * a).max() < 1e-12
    assert np.abs(partial_trace(x, (3, 4), [0]) - np.trace(a) * b).max() < 1e-12
    assert abs(partial_trace(x, (3, 4), [0, 1])[0, 0] - np.trace(a) * np.trace(b)) < 1e-12
    # trace preservation on a random three-factor operator
    y = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    red = partial_trace(y, (2, 3, 4), [1])
    assert red.shape == (8, 8)
    assert abs(np.trace(red) - np.trace(y)) < 1e-12
    with pytest.raises(ValueError):
        partial_trace(y, (2, 3), [0])


def test_labeled_operator_basics():
    rng = np.random.default_rng(24)
    a = LabeledOperator(rng.normal(size=(2, 2)), (("A", 2),))
    b = LabeledOperator(rng.normal(size=(3, 3)), (("B", 3),))
    ab = a.tensor(b)
    assert ab.labels == ("A", "B")
    assert np.abs(ab.mat - np.kron(a.mat, b.mat)).max() == 0.0
    ba = ab.reorder(("B", "A"))
    assert np.abs(ba.mat - np.kron(b.mat, a.mat)).max() < 1e-14
    assert np.abs(ba.reorder(("A", "B")).mat - ab.mat).max() < 1e-14
    with pytest.raises(ValueError):
        a.tensor(LabeledOperator(np.eye(2), (("A", 2),)))
    with pytest.raises(ValueError):
        LabeledOperator(np.eye(5), (("A", 2), ("B", 3)))


def test_labeled_operator_partial_ops_match_plain():
    rng = np.random.default_rng(25)
    m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    op = LabeledOperator(m, (("X", 2), ("Y", 3), ("Z", 5)))
    red = op.partial_trace(["Y"])
    assert red.labels == ("X", "Z")
    assert np.abs(red.mat - partial_trace(m, (2, 3, 5), [1])).max() == 0.0
    scalar = op.partial_trace(["X", "Y", "Z"])
    assert scalar.spaces == ()
    assert abs(scalar.mat[0, 0] - np.trace(m)) < 1e-12


def _broadcast_residual(op, label, z):
    # the residual as one broadcast over the whole operator, the reference
    at = op.labels.index(label)
    d = op.dims[at]
    lo = int(np.prod(op.dims[:at]))
    hi = op.dim // (lo * d)
    x = op.mat.reshape(lo, d, hi, lo, d, hi)
    z = np.asarray(z).reshape(lo, 1, hi, lo, 1, hi)
    return float(np.abs(x - z * np.eye(d).reshape(1, d, 1, 1, d, 1)).max())


@pytest.mark.parametrize(
    "spaces, label",
    [
        ((("X", 2), ("Y", 3), ("Z", 4)), "X"),
        ((("X", 2), ("Y", 3), ("Z", 4)), "Y"),
        ((("X", 2), ("Y", 3), ("Z", 4)), "Z"),
        ((("X", 3), ("Y", 1), ("Z", 2)), "Y"),
        ((("X", 1000), ("Y", 2)), "Y"),
    ],
)
def test_identity_factor_residual_equals_the_broadcast_formula(spaces, label):
    rng = np.random.default_rng(27)
    dims = dict(spaces)
    d, d_rest = dims[label], int(np.prod(list(dims.values()))) // dims[label]
    z = rng.normal(size=(d_rest, d_rest)) + 1j * rng.normal(size=(d_rest, d_rest))
    rest = [(lbl, dim) for lbl, dim in spaces if lbl != label]
    near = LabeledOperator(z, tuple(rest)).tensor(LabeledOperator(np.eye(d), ((label, d),)))
    near = near.reorder([lbl for lbl, _ in spaces])
    dim = near.dim
    noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = LabeledOperator(noise, spaces)
    z_op = LabeledOperator(z, tuple(rest))
    assert op.identity_factor_residual(label, z_op) == _broadcast_residual(op, label, z)
    # close to z (x) I, with the largest deviation planted in each
    # (p, q) block of the identity's indices in turn
    lo = int(np.prod([size for _, size in spaces[: op.labels.index(label)]]))
    hi = dim // (lo * d)
    for p in range(d):
        for q in range(d):
            mat = near.mat + 1e-9 * noise
            mat.reshape(lo, d, hi, lo, d, hi)[-1, p, 0, 0, q, -1] += 5.0
            op = LabeledOperator(mat, spaces)
            assert op.identity_factor_residual(label, z_op) == _broadcast_residual(op, label, z)
    mat = near.mat.copy()
    mat[0, -1] = np.nan
    assert np.isnan(LabeledOperator(mat, spaces).identity_factor_residual(label, z_op))


@pytest.mark.parametrize("budget", [1, 100, 250, 10**9])
@pytest.mark.parametrize("count,item_bytes", [(0, 8), (1, 8), (7, 8), (30, 8), (5, 300)])
def test_stack_runs_cover_the_items_in_order_under_the_budget(monkeypatch, budget, count, item_bytes):
    monkeypatch.setattr(linalg, "STACK_BYTES", budget)
    runs = list(stack_runs(count, item_bytes))
    assert [i for run in runs for i in range(count)[run]] == list(range(count))
    for run in runs:
        size = run.stop - run.start
        # at least one item a run, and more only while they fit the budget
        assert size >= 1 and (size == 1 or size * item_bytes <= budget)
    # every run but the last is full: no run could take another item
    for run in runs[:-1]:
        assert (run.stop - run.start + 1) * item_bytes > budget
