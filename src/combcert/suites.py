"""Verification suites: parameter-grid check tables and the one runner.

A suite is a check table: one group of checks per grid cell, each check a
row with an id, a claim anchor, a body that returns the record fields and
an optional precondition that returns a skip reason. The runner derives
each cell's seed, times and traps every check and turns non-finite output
into a ``fail``; every check runs in the calling process, in table order.
State a cell's checks share (a hard-instance spec, net blocks, a
separation audit) is built on first use inside the body that asks for it,
so that work is timed and trapped too. Grids whose preconditions fail are
recorded as skips with the reason, never silently dropped.
``effective_config`` validates the whole configuration before any check
runs and raises ``ConfigError`` (the CLI turns it into exit code 2).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import comb as binom
from math import exp, isfinite, log, sqrt
from typing import Callable, NamedTuple

import numpy as np

from .channels import channel_from_isometry, choi_from_kraus, kraus_rank
from .combs import (
    build_testers,
    certify_combs,
    draw_small_channel,
    draw_tester,
    link_product,
    small_channels,
    success_probability,
    validate_testers,
)
from .hard import (
    HardInstanceSpec,
    admissible_window,
    commutant_projector,
    domination_check,
    gamma_recursion_residual,
    gamma_state,
    gamma_twirl_exact_commutant,
    gamma_twirl_modes,
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
from .hard.domination import (
    EIG_TOL,
    Q_BOUND,
    Q_CLOSED_FORM_TOL,
    SPAN_RANK_TOL,
    SUPPORT_TOL,
    TRACE_MARGIN_TOL,
    check_admissible,
    largest_round,
)
from .hard.facts import CHAIN_SLACK, EQUIV_PSD_TOL
from .hard.instance import outer_modes
from .hard.modes import GAMMA_COMB_TOL, comb_certificate
from .hard.twirl import COMMUTANT_DIM_CAP, PERMUTATION_ORDER_CAP, exact_routes
from .linalg import (
    LabeledOperator,
    frobenius,
    ginibre,
    haar_unitary,
    pseudo_inverse,
    psd_sqrt,
    random_psd,
    stack_runs,
)
from .net import (
    EPS_ZERO_TOL,
    F_ROUTE_TOL,
    GRAM_TOL,
    IDENTICAL_PAIR_TOL,
    IDENTITY_TOL,
    ISO_TOL,
    LIPSCHITZ_PAD,
    MIN_LIPSCHITZ_TRIALS,
    MIN_MOMENT_SAMPLES,
    MIN_SEPARATION_PAIRS,
    NetParams,
    build_block_isometry,
    build_net_isometry,
    check_eps,
    f_operator,
    lipschitz_audit,
    moment_audit,
    rotated_branch,
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
    },
    "hard": {
        "gamma_cells": [[1, 2], [1, 3], [2, 4], [2, 5]],
        "max_n": 3,
        "family_eps": 0.3,
        "mc_cells": [[1, 3, 2, 1]],
        "mc_samples": 100_000,
        "trace_dims": [2, 3, 4, 5, 6],
        "trace_samples": 30,
        "rotor_trace_cells": [[1, 2], [1, 3]],
        "rotor_trace_max_n": 2,
        "span_max_d": 4,
        "span_max_m": 5,
        "domination": {
            "cells": [[1, 2], [1, 3]],
            "eps": [0.01, 0.05],
            "max_n": 3,
            "u_samples": 20,
        },
        "facts": {
            "dim_pairs": [[1, 2], [1, 3], [2, 4], [2, 5], [3, 6]],
            "eps": [0.005, 0.01, 0.05, 0.2],
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
    "net.moment_samples": MIN_MOMENT_SAMPLES,
    "net.separation_pairs": MIN_SEPARATION_PAIRS,
}


def effective_config(user: dict | None, samples: int | None = None) -> dict:
    """DEFAULT_CONFIG deep-merged with ``user`` and then ``samples`` (the
    Monte Carlo and moment sample counts), validated before any work.

    Keys must exist in the defaults and values have the default's type (an
    int is stored as a float where the default is a float). Counts are >= 1,
    floats finite and > 0, grid cells have the defaults' number of integer
    entries (net cells may add a mode: auto, even or odd), and cells are checked
    by the constructors that would reject them mid-run, as are
    ``hard.family_eps``, ``hard.facts.eps`` and ``hard.domination.eps``
    (below 1; the last two with a finite admissible window at each of their
    cells) and ``net.eps`` (below 1, and at most ``SEPARATION_MAX_EPS`` when
    separation cells are configured). Every hard twirl the checks ask for
    must have an exact route (``hard.twirl.exact_routes``). Raises ConfigError."""
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
    """Reject the cells and the eps values that the hard and net constructors
    would reject mid-run, and the hard cells that ask for a twirl no exact
    route takes."""
    hard, net = cfg["hard"], cfg["net"]
    # HardInstanceSpec.member and the weight-schedule window need eps < 1, and
    # the window d1*d2/(2e^4*eps^2) at each cell must be a finite float
    # (eps**2 underflows to 0 below about 1e-162)
    eps_values = [("hard.family_eps", hard["family_eps"], [])] + [
        (f"hard.{key}.eps[{k}]", eps, hard[key][cells])
        for key, cells in (("facts", "dim_pairs"), ("domination", "cells"))
        for k, eps in enumerate(hard[key]["eps"])
    ]
    for path, eps, cells in eps_values:
        if eps >= 1:
            raise ConfigError(f"{path} must be below 1, got {eps}")
        for cell in cells:
            if not (eps**2 > 0 and isfinite(admissible_window(cell[0], cell[1], eps))):
                raise ConfigError(f"{path} {eps}: the admissible window at cell {cell} is not a finite float")
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
    # summand-chain takes each facts cell at the round counts in its window
    for cell in hard["facts"]["dim_pairs"]:
        for eps in hard["facts"]["eps"]:
            top = largest_round(cell[0], cell[1], eps)
            if top >= 1:
                try:
                    check_admissible(cell[0], cell[1], top, eps)
                except ValueError as exc:
                    raise ConfigError(f"hard.facts.dim_pairs cell {cell}: {exc}") from exc
    # every Gamma_i a check asks for needs an exact twirl route; the routes
    # only narrow as n and i grow, so a cell is checked at its largest (n, i)
    max_n, dom = hard["max_n"], hard["domination"]
    twirls = [("hard.gamma_cells", cell, max_n, max_n) for cell in hard["gamma_cells"]]
    twirls += [("hard.mc_cells", cell, cell[2], cell[3]) for cell in hard["mc_cells"]]
    for cell in dom["cells"]:
        for eps in dom["eps"]:
            # the domination records skip the n outside the weight-schedule window
            top = largest_round(cell[0], cell[1], eps, dom["max_n"])
            if top >= 1:
                twirls.append(("hard.domination.cells", cell, top, top))
    for path, cell, n, i in twirls:
        if not exact_routes(cell[0], cell[1], n, i):
            raise ConfigError(
                f"{path} cell {cell}: no exact twirl route for i={i} at n={n}: i is above "
                f"{PERMUTATION_ORDER_CAP} and dimension {(cell[0] * cell[1]) ** n} above "
                f"{COMMUTANT_DIM_CAP}"
            )
    n = hard["rotor_trace_max_n"]
    for cell in hard["rotor_trace_cells"]:
        if "commutant" not in exact_routes(cell[0], cell[1], n, 0):
            raise ConfigError(
                f"hard.rotor_trace_cells cell {cell}: dimension {(cell[0] * cell[1]) ** n} at "
                f"rotor_trace_max_n {n} is above the exact-commutant cap {COMMUTANT_DIM_CAP}"
            )
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
    """The settings of one suite run, shared by every cell of its table, and
    the matrix wire forms its checks stash when embedding."""

    cfg: dict
    seed: int = 0
    embed_matrices: bool = False
    matrices: dict = field(default_factory=dict)


class Cell:
    """One grid cell. Its checks run one after another and share this
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
        return _random_testers(self.rng, self.cfg["pairs"])

    @cached_property
    def blocks(self):
        return build_block_isometry(self.params, self.rng)

    @cached_property
    def audit(self):
        return separation_audit(self.blocks, self.cfg["separation_pairs"], self.rng)


class Check(NamedTuple):
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


def _verdict(ok: bool, threshold: float, residual: float, warn: bool = False, **values) -> dict:
    """Record fields of a check that ran: pass, warn (ok but flagged) or fail."""
    status = "pass" if ok and not warn else ("warn" if ok else "fail")
    return {"status": status, "values": values, "threshold": threshold, "residual": residual}


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# ---------------------------------------------------------------------------
# combs suite


# Each body draws all of its random objects first, in the order a one-object
# loop draws them, and then builds them as stacks (see combcert.combs).

# the combs suite's tolerances, all listed in its reports
COMB_TOL = 1e-8  # PSD floor and chain residual of each certified comb
LINK_TOL = 1e-9  # link product against the composed Kraus family, entrywise
CONTRACTION_TOL = 1e-8  # |sum of a tester's outcome probabilities - 1|


def _dims(rng, max_dim: int, count: int) -> list[int]:
    return [int(rng.integers(2, max_dim + 1)) for _ in range(count)]


def _choi_comb(c: Cell) -> dict:
    cfg = c.cfg
    rng = np.random.default_rng(c.seed)
    ok = True
    draws = []
    for _ in range(cfg["channels"]):
        d_in, d_out = _dims(rng, cfg["max_dim"], 2)
        draws.append((d_in, draw_small_channel(d_in, d_out, rng)))
    chois = [
        LabeledOperator(choi, (("B", draw.d_out), ("A", d_in)))
        for (d_in, draw), choi in zip(draws, small_channels([d for _, d in draws])[1])
    ]
    worst = 0.0
    certs = certify_combs(chois, [("A", "B")] * len(chois), psd_tol=COMB_TOL, chain_tol=COMB_TOL)
    for cert in certs:
        worst = max(worst, cert.max_chain_residual, -cert.min_eig)
        ok = ok and cert.ok
    return _verdict(ok, COMB_TOL, worst, channels=cfg["channels"], sample_choi=c.stash(chois[0].mat))


def _link_vs_kraus(c: Cell) -> dict:
    cfg = c.cfg
    rng = np.random.default_rng(c.seed)
    dims, draws = [], []
    for _ in range(cfg["pairs"]):
        d_a, d_m, d_b = _dims(rng, cfg["max_dim"], 3)
        dims.append((d_a, d_m, d_b))
        draws += [draw_small_channel(d_a, d_m, rng), draw_small_channel(d_m, d_b, rng)]
    isometries, chois = small_channels(draws)
    worst = 0.0
    for k, (d_a, d_m, d_b) in enumerate(dims):
        first, second = (channel_from_isometry(isometries[j], draws[j].rank).kraus
                         for j in (2 * k, 2 * k + 1))
        composed = [f @ e for e in first for f in second]
        linked = link_product(
            LabeledOperator(chois[2 * k], (("M", d_m), ("A", d_a))),
            LabeledOperator(chois[2 * k + 1], (("B", d_b), ("M", d_m))),
        ).reorder(("B", "A"))
        worst = max(worst, float(np.abs(linked.mat - choi_from_kraus(composed)).max()))
    return _verdict(worst <= LINK_TOL, LINK_TOL, worst, pairs=cfg["pairs"])


# _random_testers draws at most 2 slot pairs of dimensions at most 3 and at
# most 3 outcomes, so a tester's elements are at most 3 complex matrices of
# side (3 * 3)^2: the bytes of one tester in a run
_TESTER_BYTES = 3 * 81**2 * 16


def _random_testers(rng, count: int) -> list:
    """``count`` random testers, each with one random channel per slot pair,
    drawn and built one run (:func:`stack_runs`) at a time, in draw order."""
    testers = []
    for run in stack_runs(count, _TESTER_BYTES):
        draws, channel_draws = [], []
        for _ in range(run.start, run.stop):
            n = int(rng.integers(1, 3))
            pair_dims = [(int(rng.integers(2, 4)), int(rng.integers(2, 4))) for _ in range(n)]
            draws.append(draw_tester(pair_dims, int(rng.integers(2, 4)), rng))
            channel_draws.append([draw_small_channel(a, b, rng) for a, b in pair_dims])
        isometries = iter(small_channels([d for ds in channel_draws for d in ds])[0])
        channels = [[channel_from_isometry(next(isometries), d.rank) for d in ds] for ds in channel_draws]
        testers += zip(build_testers(draws), channels)
    return testers


def _tester_validity(c: Cell) -> dict:
    ok = True
    worst = 0.0
    testers = [t for t, _ in c.testers]
    # one run at a time: validating every tester at once raises the 400-pair peak RSS
    for run in stack_runs(len(testers), _TESTER_BYTES):
        for cert in validate_testers(testers[run], psd_tol=COMB_TOL, chain_tol=COMB_TOL):
            ok = ok and cert.ok
            worst = max(worst, cert.sum_certificate.max_chain_residual)
    return _verdict(ok, COMB_TOL, worst, testers=c.cfg["pairs"])


def _tester_contraction(c: Cell) -> dict:
    worst = 0.0
    for tester, chans in c.testers:
        probs = success_probability(tester, chans)
        worst = max(worst, abs(float(probs.sum()) - 1.0))
    return _verdict(worst <= CONTRACTION_TOL, CONTRACTION_TOL, worst, pairs=c.cfg["pairs"])


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

# the hard suite's tolerances, all listed in its reports with the gamma combs'
# GAMMA_COMB_TOL, domination_check's bounds, the summand chains' CHAIN_SLACK,
# symmetric_span_dim's SPAN_RANK_TOL and psd_domination_equiv's EQUIV_PSD_TOL
RECURSION_TOL = 1e-9  # the two-term trace recursion of the gamma combs
EXPANSION_TOL = 1e-10  # the gamma Gram matrix and the hard-vector expansion
CROSS_TOL = 1e-8  # ||exact commutant - permutation frame||_F of each Gamma_i
MC_SIGMA_FACTOR = 5.0  # Monte Carlo twirl: fail above this many standard errors, warn at 1 fewer
TRACE_TOL = 1e-6  # relative slack on tr(twirl^+ x) <= rank(twirl)
PSD_INVERSION_TOL = 1e-8  # |q - target| and the support residual of psd_domination_equiv
XLOG_TOL = 1e-12  # how far x log(B / x) may exceed its envelope, and its gap at the peak


def _hard_family(c: Cell) -> dict:
    d1, d2 = c.key
    rng = np.random.default_rng(c.seed)
    gram_res = 0.0
    for n in range(1, c.cfg["max_n"] + 1):
        gammas = np.stack([gamma_state(c.spec, n, i) for i in range(n + 1)], axis=1)
        gram = gammas.conj().T @ gammas
        gram_res = max(gram_res, float(np.abs(gram - d1**n * np.eye(n + 1)).max()))
    exp_res = 0.0
    for _ in range(3):
        u = haar_unitary(c.spec.rotor_dim, rng)
        exp_res = max(exp_res, hard_vector_expansion(c.spec, c.cfg["max_n"], c.cfg["family_eps"], u))
    worst = max(gram_res, exp_res)
    return _verdict(worst <= EXPANSION_TOL, EXPANSION_TOL, worst, d1=d1, d2=d2,
                    gram_residual=gram_res, expansion_residual=exp_res)


def _certify_gamma_family(c: Cell, build, **values) -> dict:
    """The comb certificate of build(spec, n, i), an operator on Sym^n(M),
    for every n <= max_n and i <= n (:func:`hard.modes.comb_certificate`)."""
    d1, d2 = c.key
    max_n = c.cfg["max_n"]
    worst = 0.0
    ok = True
    for n in range(1, max_n + 1):
        for i in range(n + 1):
            cert = comb_certificate(c.spec, build(c.spec, n, i))
            ok = ok and cert.ok
            worst = max(worst, cert.max_chain_residual, -cert.min_eig)
    return _verdict(ok, GAMMA_COMB_TOL, worst, d1=d1, d2=d2, max_n=max_n, **values)


def _gamma_comb(c: Cell) -> dict:
    return _certify_gamma_family(c, outer_modes)


def _gamma_twirl_comb(c: Cell) -> dict:
    # the sample is the dense slot-space Gamma_1 at n = 1
    gamma_hash = c.stash(gamma_twirl_weingarten(c.spec, 1, 1))
    return _certify_gamma_family(c, partial(gamma_twirl_modes, seed=c.seed), sample_twirl=gamma_hash)


def _gamma_recursion(c: Cell) -> dict:
    d1, d2 = c.key
    max_n = c.cfg["max_n"]
    worst = 0.0
    # the two-term trace recursion relates slot counts n and n-1
    for n in range(2, max_n + 1):
        for i in range(n + 1):
            worst = max(worst, gamma_recursion_residual(c.spec, n, i))
    return _verdict(worst <= RECURSION_TOL, RECURSION_TOL, worst, d1=d1, d2=d2, max_n=max_n)


def _twirl_routes(c: Cell) -> dict:
    d1, d2 = c.key
    worst = 0.0
    compared = 0
    for n in range(1, c.cfg["max_n"] + 1):
        both = [i for i in range(n + 1) if exact_routes(d1, d2, n, i) == ("frame", "commutant")]
        if not both:
            continue
        proj = commutant_projector(c.spec, n, seed=c.seed)
        for i in both:
            a = gamma_twirl_exact_commutant(c.spec, n, i, projector=proj)
            b = gamma_twirl_weingarten(c.spec, n, i)
            worst = max(worst, float(frobenius(a - b)))
            compared += 1
    if compared == 0:
        return {"status": "skip", "reason": "no cell fits both exact twirl routes within caps"}
    return _verdict(worst <= CROSS_TOL, CROSS_TOL, worst, d1=d1, d2=d2, compared=compared)


def _twirl_mc(c: Cell) -> dict:
    d1, d2, n, i = c.key
    n_samp = c.cfg["mc_samples"]
    # both on sector i of Sym^n(M): E_n is an isometry, so this is the
    # Frobenius distance of the slot-space operators
    op = gamma_twirl_modes(c.spec, n, i, seed=c.seed)
    exact = np.einsum("ik,jk->ij", op.vecs * op.vals, op.vecs.conj())
    est, stderr = gamma_twirl_monte_carlo(c.spec, n, i, samples=n_samp, seed=c.seed)
    diff = float(frobenius(est - exact))
    bound = MC_SIGMA_FACTOR * stderr
    warn = diff > (MC_SIGMA_FACTOR - 1.0) * stderr
    return _verdict(diff <= bound, bound, diff, warn=warn,
                    d1=d1, d2=d2, n=n, i=i, samples=n_samp, stderr=stderr)


def _trace_bound_unitary(c: Cell) -> dict:
    cfg = c.cfg
    if not cfg["trace_dims"]:
        return {"status": "skip", "reason": "trace_dims is empty"}
    rng = np.random.default_rng(c.seed)
    max_excess = -np.inf
    max_pure_gap = 0.0
    for d in cfg["trace_dims"]:
        for _ in range(cfg["trace_samples"]):
            x = random_psd(d, rng)
            twirled = np.trace(x).real / d * np.eye(d)
            val = twirl_trace_bound(x, twirled)
            max_excess = max(max_excess, val - d * (1 + TRACE_TOL))
        phi = ginibre(d, rng)
        phi /= frobenius(phi)
        pure = np.outer(phi, phi.conj())
        val = twirl_trace_bound(pure, np.eye(d) / d)
        max_pure_gap = max(max_pure_gap, abs(val - d))
    ok = max_excess <= 0 and max_pure_gap <= TRACE_TOL
    return _verdict(ok, TRACE_TOL, max(max_excess, max_pure_gap - TRACE_TOL),
                    dims=list(cfg["trace_dims"]), samples=cfg["trace_samples"],
                    max_excess=max_excess, max_pure_gap=max_pure_gap)


def _trace_bound_rotor(c: Cell) -> dict:
    cfg = c.cfg
    if not cfg["rotor_trace_cells"]:
        return {"status": "skip", "reason": "rotor_trace_cells is empty"}
    rng = np.random.default_rng(c.seed)
    worst = -np.inf
    for d1, d2 in cfg["rotor_trace_cells"]:
        spec = HardInstanceSpec.concrete(d1, d2)
        for n in range(1, cfg["rotor_trace_max_n"] + 1):
            dim = (d1 * d2) ** n
            proj = commutant_projector(spec, n, seed=c.seed)
            for _ in range(5):
                x = random_psd(dim, rng)
                val = twirl_trace_bound(x, proj.twirl(x))
                worst = max(worst, val - dim * (1 + TRACE_TOL))
    return _verdict(worst <= 0, TRACE_TOL, worst, cells=list(cfg["rotor_trace_cells"]))


def _span_dim(c: Cell) -> dict:
    rng = np.random.default_rng(c.seed)
    max_d, max_m = c.cfg["span_max_d"], c.cfg["span_max_m"]
    mismatches = sum(symmetric_span_dim(d, m, rng) != binom(d + m - 1, m)
                     for d in range(1, max_d + 1) for m in range(1, max_m + 1))
    return _verdict(mismatches == 0, 0.0, float(mismatches), checked=max_d * max_m, mismatches=mismatches)


def _in_schedule_window(c: Cell) -> str | None:
    d1, d2, eps, n = c.key
    if largest_round(d1, d2, eps, n) < n:
        window = admissible_window(d1, d2, eps)
        return f"weight-schedule window violated: n={n} outside [1, {window:.2f}]"
    return None


def _domination(c: Cell) -> dict:
    d1, d2, eps, n = c.key
    dom = c.cfg["domination"]
    res = domination_check(c.spec, n, eps, n_samples=dom["u_samples"], seed=c.seed)
    return _verdict(
        res.ok, Q_BOUND, res.max_quadratic_form - 1.0,
        d1=d1, d2=d2, n=n, eps=eps,
        **_fields(res, "max_quadratic_form", "q_closed_form"),
        q_spread=float(max(res.quadratic_forms) - min(res.quadratic_forms)),
        **_fields(res, "max_support_residual", "min_eig_ratio", "support_margin",
                  "trace_bound_margin", "lambda_total", "lambda_sum_bound"),
    )


def _lambda_sum(c: Cell) -> dict:
    dom = c.cfg["domination"]
    worst = -np.inf
    cells_checked = 0
    for d1, d2 in dom["cells"]:
        for eps in dom["eps"]:
            for n in range(1, largest_round(d1, d2, eps, dom["max_n"]) + 1):
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
        gamma_twirl_modes(HardInstanceSpec.concrete(d1, d2), n, i)
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
    violations = 0
    worst_eq = 0.0
    for n in (1, 3, 10, 40):
        k = np.arange(n + 1)
        for p in (0.01, 0.2, 0.5, 0.9):
            lhs = log_binom(n, k) + k * log(p) + (n - k) * log(1 - p)
            rhs = -n * kl_binary(k / n, p)
            violations += int(np.count_nonzero(lhs > rhs + CHAIN_SLACK))
            worst_eq = max(worst_eq, float(np.max(np.abs(lhs - rhs)[[0, n]])))
    ok = violations == 0 and worst_eq <= CHAIN_SLACK
    return _verdict(ok, CHAIN_SLACK, worst_eq, violations=violations, endpoint_gap=worst_eq)


def _psd_inversion(c: Cell) -> dict:
    rng = np.random.default_rng(c.seed)
    ok = True
    worst = 0.0
    for dim in (2, 3, 5):
        m = random_psd(dim, rng) + 0.1 * np.eye(dim)
        root = psd_sqrt(m)
        for target in (0.5, 0.999, 1.001, 2.0):
            raw = root @ ginibre(dim, rng)
            raw *= sqrt(target) / sqrt(float((raw.conj() @ (pseudo_inverse(m) @ raw)).real))
            wit = psd_domination_equiv(m, raw)
            ok = ok and (wit.dominates == (target <= 1.0))
            worst = max(worst, abs(wit.quadratic_form - target), wit.support_residual)
    return _verdict(ok and worst <= PSD_INVERSION_TOL, PSD_INVERSION_TOL, worst)


def _xlog(c: Cell) -> dict:
    worst = 0.0
    for budget in (0.5, 1.0, 7.3, 100.0):
        xs = np.linspace(budget * 1e-9, budget, 400)
        vals, envelope = xlog_bound_values(budget, xs)
        worst = max(worst, float(np.max(vals - envelope)))
        peak_val, peak_env = xlog_bound_values(budget, np.array([budget / exp(1)]))
        worst = max(worst, abs(float(peak_val[0]) - peak_env))
    return _verdict(worst <= XLOG_TOL, XLOG_TOL, worst)


def _summand_chain(c: Cell) -> dict:
    facts = c.cfg["facts"]
    violations = 0
    summands = 0
    worst_assembled = -np.inf
    for d1, d2 in facts["dim_pairs"]:
        for eps in facts["eps"]:
            n_max = largest_round(d1, d2, eps)
            for n in sorted({x for x in (1, 2, 3, 17, n_max) if 1 <= x <= n_max}):
                chains = summand_chains(d1, d2, n, eps)
                violations += int(np.count_nonzero(~chains.chain_ok()))
                summands += chains.i.size
                log_terms = chains.t_exact - lambda_schedule(d1, d2, n, eps).log_weights
                # a left-to-right sum, as a += loop over the terms adds them
                terms = np.fromiter(map(exp, log_terms.tolist()), dtype=float, count=n + 1)
                worst_assembled = max(worst_assembled, float(np.cumsum(terms)[-1]) - 1.0)
    if summands == 0:
        return {"status": "skip",
                "reason": "no facts cell lies inside the weight-schedule window"}
    ok = violations == 0 and worst_assembled <= CHAIN_SLACK
    return _verdict(ok, CHAIN_SLACK, max(0.0, worst_assembled), summands=summands,
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
        "gram_bound": p.gram_bound, "rejections": blocks.rejections,
    }
    if p.mode == "odd":
        values["subspace_dims"] = dict(blocks.subspace_dims)
    bound = p.gram_bound + GRAM_TOL
    ok = diag_max <= bound and off <= GRAM_TOL
    return _verdict(ok, bound, max(diag_max - p.gram_bound, off), **values)


def _net_isometry(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    rng2 = np.random.default_rng(_cell_seed(c.run.seed, "member", *c.key))
    iso_res = 0.0
    rank_max = 0
    for _ in range(c.cfg["member_checks"]):
        u = haar_unitary(p.u_dim, rng2)
        v, ch = build_net_isometry(p, u, blocks)
        iso_res = max(iso_res, float(frobenius(v.conj().T @ v - np.eye(p.d1))))
        rank_max = max(rank_max, kraus_rank(choi_from_kraus(ch)))
    p0 = NetParams(p.d1, p.d2, p.r, 0.0, mode=p.mode)
    b0 = build_block_isometry(p0, np.random.default_rng(c.seed))
    c1 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
    c2 = choi_from_kraus(build_net_isometry(p0, haar_unitary(p0.u_dim, rng2), b0)[1])
    eps0_res = float(frobenius(c1 - c2))
    ok = iso_res <= ISO_TOL and rank_max <= p.r and eps0_res <= EPS_ZERO_TOL
    return _verdict(ok, ISO_TOL, iso_res, mode=p.mode, kraus_rank_max=rank_max, rank_bound=p.r,
                    out_dim=p.out_dim, eps_zero_choi_residual=eps0_res)


def _f_operator(c: Cell) -> dict:
    p, blocks = c.params, c.blocks
    rng2 = np.random.default_rng(_cell_seed(c.run.seed, "fop", *c.key))
    ux, uy = haar_unitary(p.u_dim, rng2), haar_unitary(p.u_dim, rng2)
    f = f_operator(blocks, ux, uy)
    kx = rotated_branch(blocks, ux).reshape(p.r, p.d2, p.d1)
    ky = rotated_branch(blocks, uy).reshape(p.r, p.d2, p.d1)
    k0 = blocks.v0_full.reshape(p.r, p.d2, p.d1)
    f2 = sum(
        np.outer(k0[i].reshape(-1), (kx[i] - ky[i]).reshape(-1).conj())
        for i in range(p.r)
    ) / p.d1
    route_res = float(frobenius(f - f2))
    zero_res = float(frobenius(f_operator(blocks, ux, ux)))
    ok = route_res <= F_ROUTE_TOL and zero_res <= IDENTICAL_PAIR_TOL
    return _verdict(ok, F_ROUTE_TOL, route_res, mode=p.mode, sample_f=c.stash(f),
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
    thin = audit.min_choi_distance < 1.05 * audit.choi_threshold
    return _verdict(
        audit.separated, audit.choi_threshold, audit.choi_threshold - audit.min_choi_distance, warn=thin,
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
    return _verdict(
        audit.identities_hold, IDENTITY_TOL, worst, mode=c.params.mode,
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
    "combs": (_combs_table, {
        "comb_tol": COMB_TOL, "link_tol": LINK_TOL, "contraction_tol": CONTRACTION_TOL}),
    "hard": (_hard_table, {
        "comb_tol": GAMMA_COMB_TOL, "recursion_tol": RECURSION_TOL, "expansion_tol": EXPANSION_TOL,
        "cross_tol": CROSS_TOL, "mc_sigma_factor": MC_SIGMA_FACTOR, "trace_tol": TRACE_TOL,
        "eig_tol": EIG_TOL, "support_tol": SUPPORT_TOL, "trace_margin_tol": TRACE_MARGIN_TOL,
        "q_closed_form_tol": Q_CLOSED_FORM_TOL,
        "chain_slack": CHAIN_SLACK, "span_rank_tol": SPAN_RANK_TOL, "equiv_psd_tol": EQUIV_PSD_TOL,
        "psd_inversion_tol": PSD_INVERSION_TOL, "xlog_tol": XLOG_TOL}),
    "net": (_net_table, {
        "iso_tol": ISO_TOL, "f_route_tol": F_ROUTE_TOL, "identity_tol": IDENTITY_TOL,
        "gram_tol": GRAM_TOL, "eps_zero_tol": EPS_ZERO_TOL, "identical_pair_tol": IDENTICAL_PAIR_TOL,
        "lipschitz_pad": LIPSCHITZ_PAD}),
}


def check_table(suite: str, run: Run) -> list[tuple[Cell, list[Check]]]:
    """The suite's groups in report order; building it runs no check body."""
    return _SUITES[suite][0](run)


def _run_suite(suite, config, seed, embed_matrices):
    cfg = effective_config(config)[suite]
    started = time.perf_counter()
    run = Run(cfg, seed, embed_matrices)
    records = [_run_check(cell, check)
               for cell, checks in check_table(suite, run) for check in checks]
    return make_report(
        suite=suite,
        config=cfg,
        records=records,
        seed=seed,
        started=started,
        tolerances=_SUITES[suite][1],
        matrices=run.matrices,
    )


def run_combs_suite(
    config: dict | None = None,
    seed: int = 0,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("combs", config, seed, embed_matrices)


def run_hard_suite(
    config: dict | None = None,
    seed: int = 0,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("hard", config, seed, embed_matrices)


def run_net_suite(
    config: dict | None = None,
    seed: int = 0,
    embed_matrices: bool = False,
) -> VerificationReport:
    return _run_suite("net", config, seed, embed_matrices)
