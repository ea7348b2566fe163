"""The combs suite against test-local copies of the one-object-at-a-time code
it replaced.

The suite draws every random object first and builds same-shaped work as
stacks. These references draw and build one object at a time, with the link
product, comb certificate, square root and inverse square root written
for one matrix. The two must agree bit for bit: equal tester
elements and channels, equal worst residuals, and generators left in the
same state, at a one-byte stack budget (every object its own run) and at
the default one."""

import numpy as np
import pytest

from combcert import linalg, suites
from combcert.channels import Channel, choi_operator, random_channel
from combcert.linalg import LabeledOperator, herm_eig, psd_check, random_psd
from combcert.serialize import content_hash, matrix_to_wire

HEAD, TAIL = "_head", "_tail"
SEEDS = (7, 23)
BUDGETS = (1, linalg.STACK_BYTES)


def _link_product(x, y):
    shared = sorted(set(x.labels) & set(y.labels))
    out_labels = sorted(set(x.labels) ^ set(y.labels))
    dims = {**dict(y.spaces), **dict(x.spaces)}
    out_spaces = tuple((lbl, dims[lbl]) for lbl in out_labels)
    ids = {}

    def _id(owner, label, side):
        key = ("s" if label in shared else owner, label, side)
        return ids.setdefault(key, len(ids))

    x_sub = [_id("x", l, 0) for l in x.labels] + [_id("x", l, 1) for l in x.labels]
    y_sub = [_id("y", l, 0) for l in y.labels] + [_id("y", l, 1) for l in y.labels]
    owner = {l: ("x" if l in x.labels else "y") for l in out_labels}
    out_sub = [_id(owner[l], l, 0) for l in out_labels] + [_id(owner[l], l, 1) for l in out_labels]
    res = np.einsum(x.mat.reshape(x.dims + x.dims), x_sub, y.mat.reshape(y.dims + y.dims), y_sub,
                    out_sub, optimize=True)
    d_out = int(np.prod([d for _, d in out_spaces])) if out_spaces else 1
    return LabeledOperator(res.reshape(d_out, d_out), out_spaces)


def _certify_comb(op, sequence, tol=1e-8):
    """(ok, min_eig, chain residuals) of the comb conditions."""
    is_psd, lo = psd_check(op.mat, tol=tol, check_tol=max(tol, 1e-10))
    residuals = []
    cur = op
    for j in range(len(sequence) // 2, 0, -1):
        out_lbl, in_lbl = sequence[2 * j - 1], sequence[2 * j - 2]
        y = cur.partial_trace([out_lbl])
        z = y.partial_trace([in_lbl])
        z = LabeledOperator(z.mat / dict(op.spaces)[in_lbl], z.spaces)
        at = y.labels.index(in_lbl)
        d = y.dims[at]
        lo_dim = int(np.prod(y.dims[:at]))
        hi = y.dim // (lo_dim * d)
        x = y.mat.reshape(lo_dim, d, hi, lo_dim, d, hi)
        zz = z.mat.reshape(lo_dim, hi, lo_dim, hi)
        residuals.append(float(max(
            np.abs(x[:, p, :, :, q, :] - zz if p == q else x[:, p, :, :, q, :]).max()
            for p in range(d) for q in range(d)
        )))
        cur = z
    residuals.append(float(abs(cur.mat[0, 0] - 1.0)))
    return bool(is_psd and max(residuals) <= tol), lo, residuals


def _psd_sqrt(x):
    vals, vecs = herm_eig(x)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def _pseudo_inverse_sqrt(x, rank_tol=1e-10):
    vals, vecs = herm_eig(x)
    lam_max = float(vals[-1])
    keep = vals > rank_tol * lam_max
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / np.sqrt(vals[keep])
    return (vecs * inv) @ vecs.conj().T


def _random_small_channel(d_in, d_out, rng):
    return random_channel(d_in, d_out, max(int(rng.integers(1, 3)), -(-d_in // d_out)), rng)


def _random_comb(pair_dims, rng, labels):
    n = len(pair_dims)
    mem = [1] + [int(rng.integers(1, 3)) for _ in range(n)]
    net = None
    for j in range(1, n + 1):
        d_a, d_b = pair_dims[j - 1]
        ch = _random_small_channel(mem[j - 1] * d_a, d_b * mem[j], rng)
        spaces = ((labels[2 * j - 1], d_b), (f"_m{j}", mem[j]), (f"_m{j - 1}", mem[j - 1]),
                  (labels[2 * j - 2], d_a))
        step = LabeledOperator(choi_operator(ch).mat, spaces)
        net = step if net is None else _link_product(net, step)
    return net.partial_trace(["_m0", f"_m{n}"]).reorder(labels)


def _random_tester(pair_dims, n_outcomes, rng):
    """The tester's element matrices, on the slot labels in order."""
    n = len(pair_dims)
    labels = [f"{side}{j}" for j in range(1, n + 1) for side in ("A", "B")]
    cap_pairs = [(1, pair_dims[0][0])]
    cap_pairs += [(pair_dims[j][1], pair_dims[j + 1][0]) for j in range(n - 1)]
    cap_pairs += [(pair_dims[n - 1][1], 1)]
    comb = _random_comb(cap_pairs, rng, [HEAD] + labels + [TAIL])
    total = comb.partial_trace([HEAD, TAIL]).reorder(labels)
    root = _psd_sqrt(total.mat)
    parts = [random_psd(total.dim, rng) for _ in range(n_outcomes)]
    s_isqrt = _pseudo_inverse_sqrt(sum(parts))
    elements = []
    for a in parts:
        mat = root @ (s_isqrt @ a @ s_isqrt) @ root
        elements.append(LabeledOperator((mat + mat.conj().T) / 2, total.spaces))
    return elements, labels


def _testers(rng, count):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 3))
        pair_dims = [(int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)]
        elements, labels = _random_tester(pair_dims, int(rng.integers(2, 4)), rng)
        out.append((elements, labels, [_random_small_channel(a, b, rng) for a, b in pair_dims]))
    return out


def _tester_validity(testers):
    ok, worst = True, 0.0
    for elements, labels, _ in testers:
        ok = ok and all(psd_check(el.mat, tol=1e-8).ok for el in elements)
        total = elements[0].mat.copy()
        for el in elements[1:]:
            total += el.mat
        padded = (LabeledOperator(np.eye(1), ((HEAD, 1),))
                  .tensor(LabeledOperator(total, elements[0].spaces))
                  .tensor(LabeledOperator(np.eye(1), ((TAIL, 1),))))
        cert_ok, _, residuals = _certify_comb(padded, [HEAD] + labels + [TAIL])
        ok = ok and cert_ok
        worst = max(worst, max(residuals))
    return ok, worst


def _choi_comb(cfg, rng):
    worst, first = 0.0, None
    for _ in range(cfg["channels"]):
        d_in = int(rng.integers(2, cfg["max_dim"] + 1))
        d_out = int(rng.integers(2, cfg["max_dim"] + 1))
        choi = choi_operator(_random_small_channel(d_in, d_out, rng))
        _, lo, residuals = _certify_comb(choi, ("A", "B"), suites.COMB_TOL)
        worst = max(worst, max(residuals), -lo)
        first = choi.mat if first is None else first
    return worst, first


def _link_vs_kraus(cfg, rng):
    worst = 0.0
    for _ in range(cfg["pairs"]):
        d_a, d_m, d_b = (int(rng.integers(2, cfg["max_dim"] + 1)) for _ in range(3))
        ch1 = _random_small_channel(d_a, d_m, rng)
        ch2 = _random_small_channel(d_m, d_b, rng)
        composed = Channel(tuple(f @ e for e in ch1.kraus for f in ch2.kraus))
        direct = choi_operator(composed, out_label="B", in_label="A")
        linked = _link_product(
            choi_operator(ch1, out_label="M", in_label="A"),
            choi_operator(ch2, out_label="B", in_label="M"),
        ).reorder(direct.labels)
        worst = max(worst, float(np.abs(linked.mat - direct.mat).max()))
    return worst


def _twin_rngs(seed, tag):
    cell_seed = suites._cell_seed(seed, tag)
    return np.random.default_rng(cell_seed), np.random.default_rng(cell_seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_testers_equal_the_one_object_loop(monkeypatch, seed):
    count = suites.DEFAULT_CONFIG["combs"]["pairs"]
    rng_loop = _twin_rngs(seed, "tester")[0]
    expected = _testers(rng_loop, count)
    for budget in BUDGETS:
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
        rng_stack = _twin_rngs(seed, "tester")[0]
        built = suites._random_testers(rng_stack, count)
        assert len(built) == count
        for (elements, labels, channels), (tester, chans) in zip(expected, built):
            assert list(tester.sequence) == labels
            assert [el.spaces for el in tester.elements] == [el.spaces for el in elements]
            for got, want in zip(tester.elements, elements):
                assert np.array_equal(got.mat, want.mat), budget
            for got, want in zip(chans, channels, strict=True):
                assert len(got.kraus) == len(want.kraus)
                assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want.kraus)), budget
        assert rng_stack.bit_generator.state == rng_loop.bit_generator.state, budget


@pytest.mark.parametrize("seed", SEEDS)
def test_combs_records_equal_the_one_object_loops(monkeypatch, seed):
    cfg = suites.DEFAULT_CONFIG["combs"]
    choi_worst, first_choi = _choi_comb(cfg, _twin_rngs(seed, "choi-comb")[0])
    link_worst = _link_vs_kraus(cfg, _twin_rngs(seed, "link-vs-kraus")[0])
    ok, worst = _tester_validity(_testers(_twin_rngs(seed, "tester")[0], cfg["pairs"]))
    for budget in BUDGETS:
        monkeypatch.setattr(linalg, "STACK_BYTES", budget)
        records = {r.check_id: r for r in suites.run_combs_suite(seed=seed).records}
        assert records["choi-one-comb"].residual == choi_worst, budget
        assert records["choi-one-comb"].values["sample_choi"] == content_hash(matrix_to_wire(first_choi))
        assert records["link-vs-kraus"].residual == link_worst, budget
        assert ok and records["tester-validity"].status == "pass"
        assert records["tester-validity"].residual == worst, budget
