"""Verification suites: parameter-grid check tables and the one runner.

A suite is a check table: one group of checks per grid cell, each check a
row with an id, a claim anchor, a body that returns the record fields and
an optional precondition that returns a skip reason. The runner derives
each cell's seed, times and traps every check, turns non-finite output into
a ``fail``, and with ``jobs > 1`` runs whole groups in forked worker
processes. State a cell's checks share (a hard-instance spec, net blocks, a
separation audit) is built on first use inside the body that asks for it,
so that work is timed and trapped too. Grids whose preconditions fail are
recorded as skips with the reason, never silently dropped.
``effective_config`` validates the whole configuration before any check
runs and raises ``ConfigError`` (the CLI turns it into exit code 2).
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import BrokenExecutor, Future
from dataclasses import dataclass, field
from functools import cached_property
from math import comb as binom
from math import exp, isfinite, log, sqrt
from typing import Callable

import numpy as np

from .channels import Channel, choi_from_kraus, choi_operator, kraus_rank, random_channel
from .combs import (
    certify_comb,
    link_product,
    random_tester,
    success_probability,
    validate_tester,
)
from .hard import (
    GammaFamily,
    HardInstanceSpec,
    admissible_window,
    commutant_projector,
    domination_check,
    gamma_recursion_residual,
    gamma_twirl,
    gamma_twirl_exact_commutant,
    gamma_twirl_factor,
    gamma_twirl_monte_carlo,
    gamma_twirl_weingarten,
    hard_vector_expansion,
    kl_binary,
    lambda_schedule,
    log_binom,
    psd_domination_equiv,
    summand_chains,
    symmetric_span_dim,
    twirl_trace_bound,
    xlog_bound_values,
)
from .hard.instance import comb_sequence
from .hard.twirl import COMMUTANT_DIM_CAP, PERMUTATION_ORDER_CAP
from .linalg import haar_unitary, psd_sqrt, random_psd
from .net import (
    MIN_LIPSCHITZ_TRIALS,
    MIN_SEPARATION_PAIRS,
    NetParams,
    build_block_isometry,
    build_net_isometry,
    check_eps,
    f_operator,
    lipschitz_audit,
    moment_audit,
    separation_audit,
)
from .report import CheckRecord, VerificationReport, make_report
from .serialize import canonical_json, content_hash, matrix_to_wire

__all__ = [
    "Cell",
    "Check",
    "ConfigError",
    "DEFAULT_CONFIG",
    "Run",
    "check_table",
    "effective_config",
    "run_all_suites",
    "run_combs_suite",
    "run_hard_suite",
    "run_net_suite",
]


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


DEFAULT_CONFIG: dict = {
    "combs": {
        "channels": 50,
        "max_dim": 4,
        "pairs": 50,
        "comb_tol": 1e-8,
        "link_tol": 1e-9,
        "contraction_tol": 1e-8,
    },
    "hard": {
        "gamma_cells": [[1, 2], [1, 3], [2, 4], [2, 5]],
        "max_n": 3,
        "comb_tol": 1e-7,
        "recursion_tol": 1e-9,
        "expansion_tol": 1e-10,
        "family_eps": 0.3,
        "cross_tol": 1e-8,
        "mc_cells": [[1, 3, 2, 1]],
        "mc_samples": 100_000,
        "mc_sigma_factor": 5.0,
        "trace_dims": [2, 3, 4, 5, 6],
        "trace_samples": 30,
        "trace_tol": 1e-6,
        "rotor_trace_cells": [[1, 2], [1, 3]],
        "rotor_trace_max_n": 2,
        "span_max_d": 4,
        "span_max_m": 5,
        "domination": {
            "cells": [[1, 2], [1, 3]],
            "eps": [0.01, 0.05],
            "max_n": 3,
            "u_samples": 20,
            "lambda_scale": 1.0,
            "eig_tol": 1e-8,
        },
        "facts": {
            "dim_pairs": [[1, 2], [1, 3], [2, 4], [2, 5], [3, 6]],
            "eps": [0.005, 0.01, 0.05, 0.2],
            "chain_slack": 1e-12,
        },
    },
    "net": {
        "eps": 0.005,
        "cells": [[4, 3, 3], [2, 4, 2]],
        "member_checks": 5,
        "moment_cells": [[4, 3, 3], [6, 3, 4]],
        "moment_samples": 10_000,
        "lipschitz_cells": [[4, 3, 3], [2, 4, 2]],
        "lipschitz_trials": 500,
        "separation_cells": [[4, 3, 3], [2, 4, 2]],
        "separation_pairs": 100,
    },
}

_NET_MODES = ("auto", "even", "odd")
# the smallest allowed value of an integer setting, where it is not 1
_INT_FLOORS = {
    "combs.max_dim": 2,
    "net.lipschitz_trials": MIN_LIPSCHITZ_TRIALS,
    "net.separation_pairs": MIN_SEPARATION_PAIRS,
}


def effective_config(user: dict | None, samples: int | None = None) -> dict:
    """DEFAULT_CONFIG deep-merged with ``user`` and then ``samples`` (the
    Monte Carlo and moment sample counts), validated before any work.

    Keys must exist in the defaults and values have the default's type (an
    int is stored as a float where the default is a float). Counts are >= 1,
    floats finite and > 0, grid cells have the defaults' number of integer
    entries (net cells may add a mode: auto, even or odd), and cells are checked
    by the constructors that would reject them mid-run, as is ``net.eps`` (below
    1, and at most ``SEPARATION_MAX_EPS`` when separation cells are configured).
    Raises ConfigError."""
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {type(user).__name__}")
    layers = [user]
    if samples is not None:
        layers.append({"hard": {"mc_samples": samples}, "net": {"moment_samples": samples}})
    cfg = _resolve("", DEFAULT_CONFIG, layers)
    _check_cells(cfg)
    return cfg


def _resolve(path: str, default, layers: list):
    """The last layer's value (objects merge key by key), checked against the default."""
    if isinstance(default, dict):
        for layer in layers:
            if not isinstance(layer, dict):
                raise ConfigError(f"{path} must be an object, got {layer!r}")
            unknown = sorted(set(layer) - set(default))
            if unknown:
                raise ConfigError(f"unknown config keys in {path or 'config'}: {unknown}")
        return {
            key: _resolve(f"{path}.{key}" if path else key, val,
                          [layer[key] for layer in layers if key in layer])
            for key, val in default.items()
        }
    value = layers[-1] if layers else default
    if not isinstance(default, list):
        return _number(path, value, default, _INT_FLOORS.get(path, 1))
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list, got {value!r}")
    if isinstance(default[0], list):
        return [_cell(f"{path}[{k}]", v, len(default[0])) for k, v in enumerate(value)]
    return [_number(f"{path}[{k}]", v, default[0], 1) for k, v in enumerate(value)]


def _number(path: str, value, default, floor: int):
    is_int = isinstance(default, int)
    if isinstance(value, bool) or not isinstance(value, int if is_int else (int, float)):
        raise ConfigError(f"{path} must be {'an integer' if is_int else 'a number'}, got {value!r}")
    if is_int and value < floor:
        raise ConfigError(f"{path} must be >= {floor}, got {value}")
    if not is_int and not (isfinite(value) and value > 0):
        raise ConfigError(f"{path} must be finite and > 0, got {value}")
    return value if is_int else float(value)


def _cell(path: str, value, size: int) -> list:
    """A grid cell of ``size`` integers; net cells may add a mode."""
    net = path.startswith("net.")
    if not isinstance(value, list) or len(value) not in ((size, size + 1) if net else (size,)):
        mode = " and an optional mode" if net else ""
        raise ConfigError(f"{path} must be a list of {size} integers{mode}, got {value!r}")
    if len(value) > size and value[size] not in _NET_MODES:
        raise ConfigError(f"{path} mode must be one of {list(_NET_MODES)}, got {value[size]!r}")
    # a Monte Carlo cell ends with the twirl index i, which may be 0
    floors = [1] * (size - 1) + [0 if path.startswith("hard.mc_cells") else 1]
    ints = [_number(f"{path}[{k}]", v, 1, floors[k]) for k, v in enumerate(value[:size])]
    return ints + value[size:]


def _check_cells(cfg: dict) -> None:
    """Reject the cells and the net eps that the hard and net constructors
    would reject mid-run."""
    hard, net = cfg["hard"], cfg["net"]
    for path, cells in (
        ("hard.gamma_cells", hard["gamma_cells"]),
        ("hard.mc_cells", hard["mc_cells"]),
        ("hard.rotor_trace_cells", hard["rotor_trace_cells"]),
        ("hard.domination.cells", hard["domination"]["cells"]),
    ):
        for cell in cells:
            try:
                HardInstanceSpec.concrete(cell[0], cell[1])
            except ValueError as exc:
                raise ConfigError(f"{path} cell {cell}: {exc}") from exc
    for cell in hard["mc_cells"]:
        if cell[3] > cell[2]:
            raise ConfigError(f"hard.mc_cells cell {cell}: need 0 <= i <= n")
    try:
        check_eps(net["eps"], separation=bool(net["separation_cells"]))
    except ValueError as exc:
        raise ConfigError(f"net.eps: {exc}") from exc
    for key in ("cells", "moment_cells", "lipschitz_cells", "separation_cells"):
        for cell in net[key]:
            if len(cell) > 3:
                try:
                    NetParams(*cell[:3], net["eps"], mode=cell[3])
                except ValueError as exc:
                    raise ConfigError(f"net.{key} cell {cell}: {exc}") from exc


def _cell_seed(master: int, *parts) -> int:
    """Stable per-cell seed derived from the master seed and cell indices.

    String parts are reduced with sha256 (never the builtin hash, which is
    process-randomized and would break cross-run determinism)."""
    entropy = [int(master)]
    for p in parts:
        if isinstance(p, str):
            entropy.append(int.from_bytes(hashlib.sha256(p.encode()).digest()[:4], "big"))
        else:
            entropy.append(int(p))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# check tables and the runner


@dataclass
class Run:
    """The settings of one suite run, shared by every cell of its table."""

    cfg: dict
    seed: int = 0
    embed_matrices: bool = False
    matrices: dict = field(default_factory=dict)


class Cell:
    """One grid cell. Its checks run in order on one worker and share this
    object; each property below is built on first use, inside the timed and
    trapped body that asks for it."""

    def __init__(self, run: Run, tag: str, key=(), seed_key=None, mode: str = "auto"):
        self.run, self.cfg, self.key, self.mode = run, run.cfg, tuple(key), mode
        self.seed_parts = (tag, *(self.key if seed_key is None else seed_key))

    @cached_property
    def seed(self) -> int:
        return _cell_seed(self.run.seed, *self.seed_parts)

    def stash(self, mat: np.ndarray) -> str:
        """Content hash of ``mat``; its wire form is kept when embedding."""
        wire = matrix_to_wire(mat)
        digest = content_hash(wire)
        if self.run.embed_matrices:
            self.run.matrices[digest] = wire
        return digest

    @cached_property
    def spec(self) -> HardInstanceSpec:
        return HardInstanceSpec.concrete(*self.key[:2])

    @cached_property
    def params(self) -> NetParams:
        return NetParams(*self.key, self.cfg["eps"], mode=self.mode)

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @cached_property
    def testers(self) -> list:
        return [_random_tester(self.rng) for _ in range(self.cfg["pairs"])]

    @cached_property
    def blocks(self):
        return build_block_isometry(self.params, self.rng)

    @cached_property
    def audit(self):
        return separation_audit(self.blocks, self.cfg["separation_pairs"], self.rng)


@dataclass(frozen=True)
class Check:
    """One row of a check table. ``body(cell)`` returns the record fields
    (status, values, threshold, residual, reason); ``precondition(cell)``
    returns a skip reason, or None when the body should run."""

    check_id: str
    anchor: str
    body: Callable[[Cell], dict]
    precondition: Callable[[Cell], str | None] | None = None


def _group(cell: Cell, *rows) -> tuple[Cell, list[Check]]:
    """A cell and its checks; each row is (id prefix, anchor, body[, precondition])
    and the check id is the prefix followed by the cell's key."""
    suffix = "".join(f"-{k}" for k in cell.key)
    return cell, [Check(name + suffix, *rest) for name, *rest in rows]


def _run_check(cell: Cell, check: Check) -> CheckRecord:
    t0 = time.perf_counter()
    seed = cell.seed
    try:
        reason = check.precondition(cell) if check.precondition else None
        out = {"status": "skip", "reason": reason} if reason else _finite(check.body(cell))
    except Exception as exc:  # a crashed check is a failed check, not a crashed suite
        out = {"status": "fail", "reason": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    return CheckRecord(check.check_id, check.anchor, seed=seed, wall_time_s=wall, **out)


def _finite(out: dict) -> dict:
    """``out`` if it is canonical JSON, else a fail without its non-finite numbers."""
    try:
        canonical_json(out)
        return out
    except ValueError:
        bad: list[str] = []
        out = _drop_nonfinite(out, "", bad)
        return {**out, "status": "fail", "reason": f"non-finite numbers: {', '.join(bad)}"}


def _drop_nonfinite(obj, path: str, bad: list):
    """``obj`` without its non-finite floats; their paths are appended to ``bad``."""
    if not isinstance(obj, (dict, list)):
        return obj
    kept = []
    for key, val in obj.items() if isinstance(obj, dict) else enumerate(obj):
        where = f"{path}.{key}" if path else str(key)
        if isinstance(val, float) and not isfinite(val):
            bad.append(where)
        else:
            kept.append((key, _drop_nonfinite(val, where, bad)))
    return dict(kept) if isinstance(obj, dict) else [val for _, val in kept]


def _run_group(index: int, groups: list | None = None) -> tuple[list[CheckRecord], dict]:
    """Run group ``index`` (of the inherited table by default); its records and stashes."""
    cell, checks = (groups or _inherited)[index]
    cell.run.matrices = {}
    return [_run_check(cell, check) for check in checks], cell.run.matrices


_inherited: list = []  # filled by the pool's initializer, in each forked worker only


def _submit(ex, index: int) -> Future:
    future = Future()
    try:
        future = ex.submit(_run_group, index)
    except BrokenExecutor as exc:  # a worker died before every group was queued
        future.set_exception(exc)
    return future


def _worker_result(future: Future, cell: Cell, checks: list) -> tuple[list[CheckRecord], dict]:
    try:
        return future.result()
    except BrokenExecutor as exc:  # a worker died: its groups fail, the suite goes on
        return [CheckRecord(c.check_id, c.anchor, "fail", seed=cell.seed,
                            reason=f"its worker process died: {exc!r}") for c in checks], {}


def _run_table(groups: list, jobs: int) -> tuple[list[CheckRecord], dict]:
    """The records in table order and the matrices the checks stashed. With jobs > 1
    each group runs whole in one of ``jobs`` workers, forked before the pool starts a
    thread; they inherit the table, so only group indices and results are pickled."""
    workers = min(jobs, len(groups))
    if workers > 1:  # loaded only for a pool: they add about 20 ms to every start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        results = [_run_group(i, groups) for i in range(len(groups))]
    else:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_inherited.extend, initargs=(groups,)) as ex:
            futures = [_submit(ex, i) for i in range(len(groups))]
            results = [_worker_result(f, *group) for f, group in zip(futures, groups)]
    matrices = {key: wire for _, stashed in results for key, wire in stashed.items()}
    return [rec for records, _ in results for rec in records], matrices


def _verdict(ok: bool, threshold: float, residual: float, warn: bool = False, **values) -> dict:
    """Record fields of a check that ran: pass, warn (ok but flagged) or fail."""
    status = "pass" if ok and not warn else ("warn" if ok else "fail")
    return {"status": status, "values": values, "threshold": threshold, "residual": residual}


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# combs suite


def _random_channel(rng, d_in: int, d_out: int):
    """Kraus rank 1 or 2, raised to the least rank a d_in -> d_out channel needs."""
    return random_channel(d_in, d_out, max(int(rng.integers(1, 3)), -(-d_in // d_out)), rng)


def _choi_comb(c: Cell) -> dict:
    cfg = c.cfg
    rng = np.random.default_rng(c.seed)
    tol = cfg["comb_tol"]
    worst = 0.0
    ok = True
    first_hash = None
    for _ in range(cfg["channels"]):
        d_in = int(rng.integers(2, cfg["max_dim"] + 1))
        d_out = int(rng.integers(2, cfg["max_dim"] + 1))
        choi = choi_operator(_random_channel(rng, d_in, d_out))
        cert = certify_comb(choi, ("A", "B"), psd_tol=tol, chain_tol=tol)
        worst = max(worst, cert.max_chain_residual, -cert.min_eig)
        ok = ok and cert.ok
        if first_hash is None:
            first_hash = c.stash(choi.mat)
    return _verdict(ok, tol, worst, channels=cfg["channels"], sample_choi=first_hash)


def _link_vs_kraus(c: Cell) -> dict:
    cfg = c.cfg
    rng = np.random.default_rng(c.seed)
    tol = cfg["link_tol"]
    worst = 0.0
    for _ in range(cfg["pairs"]):
        d_a = int(rng.integers(2, cfg["max_dim"] + 1))
        d_m = int(rng.integers(2, cfg["max_dim"] + 1))
        d_b = int(rng.integers(2, cfg["max_dim"] + 1))
        ch1 = _random_channel(rng, d_a, d_m)
        ch2 = _random_channel(rng, d_m, d_b)
        composed = Channel(tuple(f @ e for e in ch1.kraus for f in ch2.kraus))
        direct = choi_operator(composed, out_label="B", in_label="A")
        linked = link_product(
            choi_operator(ch1, out_label="M", in_label="A"),
            choi_operator(ch2, out_label="B", in_label="M"),
        ).reorder(direct.labels)
        worst = max(worst, float(np.abs(linked.mat - direct.mat).max()))
    return _verdict(worst <= tol, tol, worst, pairs=cfg["pairs"])


def _random_tester(rng):
    n = int(rng.integers(1, 3))
    pair_dims = [(int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)]
    tester = random_tester(pair_dims, int(rng.integers(2, 4)), rng)
    return tester, [_random_channel(rng, a, b) for a, b in pair_dims]


def _tester_validity(c: Cell) -> dict:
    ok = True
    worst = 0.0
    for tester, _ in c.testers:
        cert = validate_tester(tester)
        ok = ok and cert.ok
        worst = max(worst, cert.sum_certificate.max_chain_residual)
    return _verdict(ok, c.cfg["comb_tol"], worst, testers=c.cfg["pairs"])


def _tester_contraction(c: Cell) -> dict:
    tol = c.cfg["contraction_tol"]
    worst = 0.0
    for tester, chans in c.testers:
        probs = success_probability(tester, chans)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    return _verdict(worst <= tol, tol, worst, pairs=c.cfg["pairs"])


def _combs_table(run: Run) -> list:
    return [
        _group(Cell(run, "choi-comb"), ("choi-one-comb", "channel-representations", _choi_comb)),
        _group(Cell(run, "link-vs-kraus"), ("link-vs-kraus", "link-product", _link_vs_kraus)),
        _group(
            Cell(run, "tester"),
            ("tester-validity", "tester-validity", _tester_validity),
            ("tester-contraction", "tester-contraction", _tester_contraction),
        ),
    ]


# ---------------------------------------------------------------------------
# hard suite


def _hard_family(c: Cell) -> dict:
    d1, d2 = c.key
    rng = np.random.default_rng(c.seed)
    gram_res = 0.0
    for n in range(1, c.cfg["max_n"] + 1):
        fam = GammaFamily(c.spec, n)
        gram_res = max(gram_res, float(np.abs(fam.gram() - d1**n * np.eye(n + 1)).max()))
    exp_res = 0.0
    for _ in range(3):
        u = haar_unitary(c.spec.rotor_dim, rng)
        chk = hard_vector_expansion(c.spec, c.cfg["max_n"], c.cfg["family_eps"], u)
        exp_res = max(exp_res, chk.residual)
    tol = c.cfg["expansion_tol"]
    worst = max(gram_res, exp_res)
    return _verdict(worst <= tol, tol, worst, d1=d1, d2=d2,
                    gram_residual=gram_res, expansion_residual=exp_res)


def _gamma_comb(c: Cell) -> dict:
    d1, d2 = c.key
    max_n = c.cfg["max_n"]
    tol = c.cfg["comb_tol"]
    worst = 0.0
    ok = True
    for n in range(1, max_n + 1):
        fam = GammaFamily(c.spec, n)
        for i in range(n + 1):
            cert = certify_comb(fam.factor(i), fam.comb_sequence, psd_tol=tol, chain_tol=tol)
            ok = ok and cert.ok
            worst = max(worst, cert.max_chain_residual, -cert.min_eig)
    return _verdict(ok, tol, worst, d1=d1, d2=d2, max_n=max_n)


def _gamma_twirl_comb(c: Cell) -> dict:
    d1, d2 = c.key
    max_n = c.cfg["max_n"]
    tol = c.cfg["comb_tol"]
    worst = 0.0
    ok = True
    # the sample is the dense Gamma_1 at n = 1, as gamma_twirl returns it
    gamma_hash = c.stash(gamma_twirl(c.spec, 1, 1, seed=c.seed))
    for n in range(1, max_n + 1):
        seq = comb_sequence(n)
        for i in range(n + 1):
            g = gamma_twirl_factor(c.spec, n, i, seed=c.seed)
            cert = certify_comb(g, seq, psd_tol=tol, chain_tol=tol)
            ok = ok and cert.ok
            worst = max(worst, cert.max_chain_residual, -cert.min_eig)
    return _verdict(ok, tol, worst, d1=d1, d2=d2, max_n=max_n, sample_twirl=gamma_hash)


def _gamma_recursion(c: Cell) -> dict:
    d1, d2 = c.key
    max_n = c.cfg["max_n"]
    tol = c.cfg["recursion_tol"]
    worst = 0.0
    # the two-term trace recursion relates slot counts n and n-1
    for n in range(2, max_n + 1):
        for i in range(n + 1):
            worst = max(worst, gamma_recursion_residual(c.spec, n, i))
    return _verdict(worst <= tol, tol, worst, d1=d1, d2=d2, max_n=max_n)


def _twirl_routes(c: Cell) -> dict:
    d1, d2 = c.key
    tol = c.cfg["cross_tol"]
    worst = 0.0
    compared = 0
    for n in range(1, c.cfg["max_n"] + 1):
        if (d1 * d2) ** n > COMMUTANT_DIM_CAP:
            continue
        proj = commutant_projector(c.spec, n, seed=c.seed)
        for i in range(min(n, PERMUTATION_ORDER_CAP) + 1):
            a = gamma_twirl_exact_commutant(c.spec, n, i, projector=proj)
            b = gamma_twirl_weingarten(c.spec, n, i)
            worst = max(worst, float(np.linalg.norm(a - b)))
            compared += 1
    if compared == 0:
        return {"status": "skip", "reason": "no cell fits both exact twirl routes within caps"}
    return _verdict(worst <= tol, tol, worst, d1=d1, d2=d2, compared=compared)


def _twirl_mc(c: Cell) -> dict:
    d1, d2, n, i = c.key
    n_samp = c.cfg["mc_samples"]
    exact = gamma_twirl(c.spec, n, i, seed=c.seed)
    est, stderr = gamma_twirl_monte_carlo(c.spec, n, i, samples=n_samp, seed=c.seed)
    diff = float(np.linalg.norm(est - exact))
    factor = c.cfg["mc_sigma_factor"]
    bound = factor * stderr
    warn = diff > (factor - 1.0) * stderr
    return _verdict(diff <= bound, bound, diff, warn=warn,
                    d1=d1, d2=d2, n=n, i=i, samples=n_samp, stderr=stderr)


def _trace_bound_unitary(c: Cell) -> dict:
    cfg = c.cfg
    if not cfg["trace_dims"]:
        return {"status": "skip", "reason": "trace_dims is empty"}
    rng = np.random.default_rng(c.seed)
    tol = cfg["trace_tol"]
    max_excess = -np.inf
    max_pure_gap = 0.0
    for d in cfg["trace_dims"]:
        for _ in range(cfg["trace_samples"]):
            x = random_psd(d, rng)
            twirled = np.trace(x).real / d * np.eye(d)
            val = twirl_trace_bound(x, twirled)
            max_excess = max(max_excess, val - d * (1 + tol))
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phi /= np.linalg.norm(phi)
        pure = np.outer(phi, phi.conj())
        val = twirl_trace_bound(pure, np.eye(d) / d)
        max_pure_gap = max(max_pure_gap, abs(val - d))
    ok = max_excess <= 0 and max_pure_gap <= tol
    return _verdict(ok, tol, max(max_excess, max_pure_gap - tol),
                    dims=list(cfg["trace_dims"]), samples=cfg["trace_samples"],
                    max_excess=max_excess, max_pure_gap=max_pure_gap)


def _trace_bound_rotor(c: Cell) -> dict:
    cfg = c.cfg
    if not cfg["rotor_trace_cells"]:
        return {"status": "skip", "reason": "rotor_trace_cells is empty"}
    rng = np.random.default_rng(c.seed)
    tol = cfg["trace_tol"]
    worst = -np.inf
    for d1, d2 in cfg["rotor_trace_cells"]:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in range(1, cfg["rotor_trace_max_n"] + 1):
            dim = (d1 * d2) ** n
            proj = commutant_projector(spec, n, seed=c.seed)
            for _ in range(5):
                x = random_psd(dim, rng)
                val = twirl_trace_bound(x, proj.twirl(x))
                worst = max(worst, val - dim * (1 + tol))
    return _verdict(worst <= 0, tol, worst, cells=list(cfg["rotor_trace_cells"]))


def _span_dim(c: Cell) -> dict:
    rng = np.random.default_rng(c.seed)
    mismatches = 0
    checked = 0
    for d in range(1, c.cfg["span_max_d"] + 1):
        for m in range(1, c.cfg["span_max_m"] + 1):
            if symmetric_span_dim(d, m, rng) != binom(d + m - 1, m):
                mismatches += 1
            checked += 1
    return _verdict(mismatches == 0, 0.0, float(mismatches),
                    checked=checked, mismatches=mismatches)


def _in_schedule_window(c: Cell) -> str | None:
    d1, d2, eps, n = c.key
    window = admissible_window(d1, d2, eps)
    if not 1 <= n <= window:
        return f"weight-schedule window violated: n={n} outside [1, {window:.2f}]"
    return None


def _domination(c: Cell) -> dict:
    d1, d2, eps, n = c.key
    dom = c.cfg["domination"]
    lam_scale = dom["lambda_scale"]
    res = domination_check(
        c.spec, n, eps, n_samples=dom["u_samples"], seed=c.seed, eig_tol=dom["eig_tol"]
    )
    q_eff = res.max_quadratic_form / lam_scale
    ok = res.ok and q_eff <= 1 + 1e-9
    values = {
        "d1": d1, "d2": d2, "n": n, "eps": eps,
        "max_quadratic_form": res.max_quadratic_form,
        "q_spread": float(max(res.quadratic_forms) - min(res.quadratic_forms)),
        "min_eig_ratio": res.min_eig_ratio,
        "trace_bound_margin": res.trace_bound_margin,
        "lambda_total": res.details["lambda_total"],
        "lambda_sum_bound": res.details["lambda_sum_bound"],
    }
    if lam_scale != 1.0:
        values["lambda_scale"] = lam_scale
        values["scaled_quadratic_form"] = q_eff
    return _verdict(ok, 1.0 + 1e-9, q_eff - 1.0, **values)


def _lambda_sum(c: Cell) -> dict:
    dom = c.cfg["domination"]
    worst = -np.inf
    cells_checked = 0
    for d1, d2 in dom["cells"]:
        for eps in dom["eps"]:
            window = admissible_window(d1, d2, eps)
            for n in range(1, int(min(dom["max_n"], window)) + 1):
                sched = lambda_schedule(d1, d2, n, eps)
                worst = max(worst, sched.total - sched.sum_bound)
                cells_checked += 1
    if cells_checked == 0:
        return {"status": "skip",
                "reason": "no domination cell lies inside the weight-schedule window"}
    return _verdict(worst <= 0, 0.0, worst, cells=cells_checked)


def _oversized_request(c: Cell) -> dict:
    """The auto twirl route must refuse a cell beyond both exact-route caps
    rather than return an operator from some other route."""
    d1, d2, n, i = 2, 5, 5, 5
    try:
        gamma_twirl(HardInstanceSpec.concrete(d1, d2), n, i)
    except ValueError:
        return {
            "status": "skip",
            "reason": (
                f"no exact twirl route: dim {(d1 * d2) ** n} exceeds the commutant cap "
                f"{COMMUTANT_DIM_CAP} and index {i} exceeds the permutation-frame "
                f"cap {PERMUTATION_ORDER_CAP}"
            ),
        }
    return {"status": "fail", "reason": f"the auto route returned a twirl for n={n}, i={i}"}


def _binomial_entropy(c: Cell) -> dict:
    slack = c.cfg["facts"]["chain_slack"]
    violations = 0
    worst_eq = 0.0
    for n in (1, 3, 10, 40):
        for p in (0.01, 0.2, 0.5, 0.9):
            for k in range(n + 1):
                lhs = log_binom(n, k) + k * log(p) + (n - k) * log(1 - p)
                rhs = -n * kl_binary(k / n, p)
                if lhs > rhs + slack:
                    violations += 1
                if k in (0, n):
                    worst_eq = max(worst_eq, abs(lhs - rhs))
    ok = violations == 0 and worst_eq <= slack
    return _verdict(ok, slack, worst_eq, violations=violations, endpoint_gap=worst_eq)


def _psd_inversion(c: Cell) -> dict:
    rng = np.random.default_rng(c.seed)
    ok = True
    worst = 0.0
    for dim in (2, 3, 5):
        m = random_psd(dim, rng) + 0.1 * np.eye(dim)
        root = psd_sqrt(m)
        for target in (0.5, 0.999, 1.001, 2.0):
            raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            raw = root @ raw
            raw *= sqrt(target) / sqrt(float((raw.conj() @ (np.linalg.pinv(m) @ raw)).real))
            wit = psd_domination_equiv(m, raw)
            ok = ok and (wit.dominates == (target <= 1.0))
            worst = max(worst, abs(wit.quadratic_form - target), wit.support_residual)
    return _verdict(ok and worst <= 1e-8, 1e-8, worst)


def _xlog(c: Cell) -> dict:
    worst = 0.0
    for budget in (0.5, 1.0, 7.3, 100.0):
        xs = np.linspace(budget * 1e-9, budget, 400)
        vals, envelope = xlog_bound_values(budget, xs)
        worst = max(worst, float(np.max(vals - envelope)))
        peak_val, peak_env = xlog_bound_values(budget, np.array([budget / exp(1)]))
        worst = max(worst, abs(float(peak_val[0]) - peak_env))
    return _verdict(worst <= 1e-12, 1e-12, worst)


def _summand_chain(c: Cell) -> dict:
    facts = c.cfg["facts"]
    slack = facts["chain_slack"]
    violations = 0
    summands = 0
    worst_assembled = -np.inf
    for d1, d2 in facts["dim_pairs"]:
        for eps in facts["eps"]:
            n_max = int(admissible_window(d1, d2, eps))
            for n in sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max}):
                sched = lambda_schedule(d1, d2, n, eps)
                total = 0.0
                for chain, log_weight in zip(summand_chains(d1, d2, n, eps), sched.log_weights):
                    if not chain.chain_ok(slack=slack):
                        violations += 1
                    summands += 1
                    total += exp(chain.t_exact - log_weight)
                worst_assembled = max(worst_assembled, total - 1.0)
    if summands == 0:
        return {"status": "skip",
                "reason": "no facts cell lies inside the weight-schedule window"}
    ok = violations == 0 and worst_assembled <= slack
    return _verdict(ok, slack, max(0.0, worst_assembled), summands=summands,
                    violations=violations, max_assembled_minus_1=worst_assembled)


def _hard_table(run: Run) -> list:
    cfg = run.cfg
    dom = cfg["domination"]
    groups = []
    for key in cfg["gamma_cells"]:
        groups += [
            _group(Cell(run, "family", key),
                   ("hard-family", "hard-isometry-family", _hard_family)),
            _group(
                Cell(run, "gamma", key),
                ("gamma-comb", "gamma-comb", _gamma_comb),
                ("gamma-twirl-comb", "gamma-comb", _gamma_twirl_comb),
                ("gamma-recursion", "gamma-comb-recursion", _gamma_recursion),
            ),
            _group(Cell(run, "cross", key), ("twirl-routes", "twirl-methods-agree", _twirl_routes)),
        ]
    for key in cfg["mc_cells"]:
        groups.append(_group(Cell(run, "mc", key), ("twirl-mc", "twirl-methods-agree", _twirl_mc)))
    groups.append(_group(
        Cell(run, "trace-bound"),
        ("twirl-trace-bound-unitary", "twirl-trace-bound", _trace_bound_unitary),
        ("twirl-trace-bound-rotor", "twirl-trace-bound", _trace_bound_rotor),
    ))
    groups.append(_group(Cell(run, "span"),
                         ("symmetric-span-dim", "symmetric-span-dim", _span_dim)))
    for d1, d2 in dom["cells"]:
        for eps in dom["eps"]:
            for n in range(1, dom["max_n"] + 1):
                cell = Cell(run, "domination", (d1, d2, eps, n), seed_key=(d1, d2, repr(eps), n))
                groups.append(_group(
                    cell, ("domination", "psd-domination", _domination, _in_schedule_window)
                ))
    groups += [
        _group(Cell(run, "lambda"), ("lambda-sum-bound", "lambda-schedule", _lambda_sum)),
        _group(Cell(run, "skip-probe"),
               ("twirl-oversized-request", "twirl-methods-agree", _oversized_request)),
        _group(
            Cell(run, "facts"),
            ("binomial-entropy-bound", "binomial-entropy-bound", _binomial_entropy),
            ("psd-inversion-equivalence", "psd-inversion-equivalence", _psd_inversion),
            ("xlog-bound", "xlog-bound", _xlog),
            ("summand-chain", "domination-summand-chain", _summand_chain),
        ),
    ]
    return groups


# ---------------------------------------------------------------------------
# net suite


def _in_window(c: Cell) -> str | None:
    """Why the cell lies outside both templates' parameter window, if it does."""
    try:
        c.params
    except ValueError as exc:
        return f"parameter window: {exc}"
    return None


def _odd_template(c: Cell) -> str | None:
    if _in_window(c) or c.params.mode == "odd":
        return _in_window(c)
    return "moment identities require the odd-mode template"


def _block_isometry(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    g = blocks.gram
    off = float(np.max(np.abs(g - np.diag(np.diag(g)))))
    diag_max = float(np.max(np.diag(g).real))
    values = {
        "mode": p.mode, "d1": p.d1, "d2": p.d2, "r": p.r,
        "gram_diag_max": diag_max, "gram_off_max": off,
        "gram_bound": blocks.gram_bound, "rejections": blocks.rejections,
    }
    if p.mode == "odd":
        values["subspace_dims"] = dict(blocks.subspace_dims)
    ok = diag_max <= blocks.gram_bound + 1e-9 and off <= 1e-9
    return _verdict(ok, blocks.gram_bound + 1e-9, max(diag_max - blocks.gram_bound, off), **values)


def _net_isometry(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    rng2 = np.random.default_rng(_cell_seed(c.run.seed, "member", *c.key))
    iso_res = 0.0
    rank_max = 0
    for _ in range(c.cfg["member_checks"]):
        u = haar_unitary(p.u_dim, rng2)
        v, ch = build_net_isometry(p, u, blocks)
        iso_res = max(iso_res, float(np.linalg.norm(v.conj().T @ v - np.eye(p.d1))))
        rank_max = max(rank_max, kraus_rank(choi_from_kraus(ch), rank_tol=1e-8))
    p0 = NetParams(p.d1, p.d2, p.r, 0.0, mode=p.mode)
    b0 = build_block_isometry(p0, np.random.default_rng(c.seed))
    c1 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
    c2 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
    eps0_res = float(np.linalg.norm(c1 - c2))
    ok = iso_res <= 1e-10 and rank_max <= p.r and eps0_res <= 1e-12
    return _verdict(ok, 1e-10, iso_res, mode=p.mode, kraus_rank_max=rank_max, rank_bound=p.r,
                    out_dim=p.out_dim, eps_zero_choi_residual=eps0_res)


def _f_operator(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    rng2 = np.random.default_rng(_cell_seed(c.run.seed, "fop", *c.key))
    ux, uy = haar_unitary(p.u_dim, rng2), haar_unitary(p.u_dim, rng2)
    f = f_operator(blocks, ux, uy)
    j = blocks.j_embed
    kx = (j @ (ux @ (j.conj().T @ blocks.delta_canon))).reshape(p.r, p.d2, p.d1)
    ky = (j @ (uy @ (j.conj().T @ blocks.delta_canon))).reshape(p.r, p.d2, p.d1)
    k0 = blocks.v0_full.reshape(p.r, p.d2, p.d1)
    f2 = sum(
        np.outer(k0[i].reshape(-1), (kx[i] - ky[i]).reshape(-1).conj())
        for i in range(p.r)
    ) / p.d1
    route_res = float(np.linalg.norm(f - f2))
    zero_res = float(np.linalg.norm(f_operator(blocks, ux, ux)))
    ok = route_res <= 1e-10 and zero_res <= 1e-14
    return _verdict(ok, 1e-10, route_res, mode=p.mode, sample_f=c.stash(f),
                    identical_pair_norm=zero_res)


def _f_moments(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    m = moment_audit(blocks, c.cfg["moment_samples"], c.rng)
    m2_gap = abs(m.m2_mean - m.m2_expected)
    return _verdict(
        m.ok, 4 * m.m2_stderr, m2_gap, warn=m2_gap > 3 * m.m2_stderr,
        **_fields(p, "d1", "d2", "r"),
        **_fields(m, "samples", "m2_mean", "m2_stderr", "m2_expected",
                  "m4_mean", "m4_stderr", "m4_bound"),
    )


def _f_lipschitz(c: Cell) -> dict:
    blocks = c.blocks
    a = lipschitz_audit(blocks, c.cfg["lipschitz_trials"], c.rng)
    return _verdict(a.ok, a.lipschitz_constant, a.max_ratio - a.lipschitz_constant,
                    mode=c.params.mode,
                    **_fields(a, "trials", "lipschitz_constant", "max_ratio", "violations"))


def _separation(c: Cell) -> dict:
    audit = c.audit
    margin_ok = audit.min_choi_distance >= audit.choi_threshold
    thin = audit.min_choi_distance < 1.05 * audit.choi_threshold
    ok = (
        margin_ok
        and audit.min_overlap_norm >= audit.overlap_threshold
        and audit.max_kraus_rank <= audit.rank_bound
    )
    return _verdict(
        ok, audit.choi_threshold, audit.choi_threshold - audit.min_choi_distance, warn=thin,
        mode=c.params.mode,
        **_fields(audit, "eps", "pairs", "min_choi_distance", "choi_threshold",
                  "min_overlap_norm", "overlap_threshold", "max_kraus_rank", "rank_bound",
                  "derived_choi_floor", "tight_eps_regime"),
    )


def _trace_norm_identities(c: Cell) -> dict:
    audit = c.audit
    worst = max(
        audit.branch_trace_residual,
        audit.symmetrized_norm_residual,
        audit.cross_route_residual,
        audit.choi_floor_violation,
    )
    ok = worst <= 1e-8 and audit.nilpotency_residual <= 1e-10
    return _verdict(
        ok, 1e-8, worst, mode=c.params.mode,
        **_fields(audit, "branch_trace_residual", "nilpotency_residual",
                  "symmetrized_norm_residual", "cross_route_residual", "choi_floor_violation"),
    )


# config key, seed tag, rows; a cell outside the parameter window keeps only
# its first row, whose precondition records the cell's one skip
_NET_GRID = (
    ("cells", "block", (
        ("block-isometry", "block-isometry", _block_isometry, _in_window),
        ("net-isometry", "net-isometry", _net_isometry),
        ("f-operator", "f-operator", _f_operator),
    )),
    ("moment_cells", "moment", (("f-moments", "f-moments", _f_moments, _odd_template),)),
    ("lipschitz_cells", "lipschitz", (("f-lipschitz", "f-lipschitz", _f_lipschitz, _in_window),)),
    ("separation_cells", "separation", (
        ("separation", "separation-audit", _separation, _in_window),
        ("trace-norm-identities", "trace-norm-identities", _trace_norm_identities),
    )),
)


def _net_table(run: Run) -> list:
    groups = []
    for key, tag, rows in _NET_GRID:
        for cell in run.cfg[key]:
            c = Cell(run, tag, cell[:3], mode=cell[3] if len(cell) > 3 else "auto")
            groups.append(_group(c, *(rows[:1] if _in_window(c) else rows)))
    return groups


# ---------------------------------------------------------------------------
# suites


# suite -> (check table, the tolerances its report lists)
_SUITES = {
    "combs": (_combs_table, lambda cfg: {
        k: cfg[k] for k in ("comb_tol", "link_tol", "contraction_tol")}),
    "hard": (_hard_table, lambda cfg: {
        **{k: cfg[k] for k in ("comb_tol", "recursion_tol", "cross_tol", "trace_tol")},
        "chain_slack": cfg["facts"]["chain_slack"],
    }),
    "net": (_net_table, lambda cfg: {"iso_tol": 1e-10, "f_route_tol": 1e-10, "identity_tol": 1e-8}),
}


def check_table(suite: str, run: Run) -> list[tuple[Cell, list[Check]]]:
    """The suite's groups in report order; building it runs no check body."""
    return _SUITES[suite][0](run)


def _run_suite(suite, config, seed, jobs, samples, embed_matrices):
    cfg = effective_config(config, samples)[suite]
    started = time.perf_counter()
    records, matrices = _run_table(check_table(suite, Run(cfg, seed, embed_matrices)), jobs)
    return make_report(
        suite=suite,
        config=cfg,
        records=records,
        seed=seed,
        started=started,
        tolerances=_SUITES[suite][1](cfg),
        matrices=matrices,
    )


def run_combs_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples: int | None = None,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("combs", config, seed, jobs, samples, embed_matrices)


def run_hard_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples: int | None = None,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("hard", config, seed, jobs, samples, embed_matrices)


def run_net_suite(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples: int | None = None,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("net", config, seed, jobs, samples, embed_matrices)


def run_all_suites(
    config: dict | None = None,
    seed: int = 0,
    jobs: int = 1,
    samples: int | None = None,
    embed_matrices: bool = False,
) -> list[VerificationReport]:
    return [
        _run_suite(suite, config, seed, jobs, samples, embed_matrices)
        for suite in _SUITES
    ]
