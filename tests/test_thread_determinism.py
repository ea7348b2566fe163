"""The hard and net suites' canonical bodies must not depend on the BLAS
thread count: one (config, seed) gives one digest at any thread count. The
net suite's audits run stacked LAPACK and matmul calls. ``--jobs`` changes
nothing, since every check runs in one process; ``test_cli`` checks that a
``--jobs`` value leaves the digest as it is.

Each combination runs ``combcert verify --suite <suite>`` in a fresh process,
since OpenBLAS reads its thread count once, when numpy loads. The thread
count is set in the child's environment only. With it unset the CLI pins
BLAS to one thread, so "unset" means the CLI's default of 1; "2" still
covers a multithreaded BLAS.

OpenBLAS built with DYNAMIC_ARCH picks its kernel from the CPU, and a
kernel's products may split their sums differently at each thread count.
So the children run under this process's kernel (the CPU's own, unless
``OPENBLAS_CORETYPE`` is set) and again under the Haswell kernel (the one
AMD Zen CPUs get) and the Prescott one, each forced with
``OPENBLAS_CORETYPE`` in the child's environment only. A forced-kernel test
skips when the BLAS ignores that variable. Different kernels may write
different bodies; only the thread count must not matter."""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from combcert.hard import HardInstanceSpec
from combcert.hard.twirl import _twirled_core
from combcert.report import report_digest
from combcert.suites import run_hard_suite

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREADS = (None, "1", "2")  # None: OPENBLAS_NUM_THREADS unset, the CLI's default of 1
KERNELS = ("Haswell", "Prescott")  # forced with OPENBLAS_CORETYPE
# CI's domination config: (2,5) at n = 4 reads Sym^4(M), 210 dimensions,
# where a LAPACK eigensolve or a BLAS dot splits its sums with the thread
# count; the least eigenvalues and Frobenius residuals are numpy sums
DOMINATION = {"hard": {"domination": {"cells": [[2, 4], [2, 5]], "max_n": 4}}}
# the runs of the forced-kernel test: suite and config
FORCED = {"hard": ("hard", None), "net": ("net", None), "domination": ("hard", DOMINATION)}


def _env(threads: str | None, kernel: str | None) -> dict:
    """This process's environment with the BLAS thread count set, or unset
    where None, the kernel forced where given (else this process's), and
    ``src`` on the path."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@cache
def _ignored_kernel_reason(kernel: str) -> str | None:
    """Why a child cannot run under ``kernel``, or None when it can. With
    OPENBLAS_VERBOSE=2, OpenBLAS names the core it loads on stderr
    ("Core: ..."), and says "Core not found" for a name it does not know;
    another BLAS, or an OpenBLAS without DYNAMIC_ARCH, says nothing."""
    env = {**_env(None, kernel), "OPENBLAS_VERBOSE": "2"}
    err = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                         capture_output=True, text=True, check=True).stderr
    cores = [line for line in err.splitlines() if line.startswith("Core")]
    if not cores:
        return f"the BLAS ignores OPENBLAS_CORETYPE (no core reported for {kernel})"
    if any("not found" in line for line in cores):
        return f"OpenBLAS has no {kernel} kernel: {cores[0]}"
    return None


def _digest(tmp_path: Path, suite: str, seed: int, threads: str | None, kernel: str | None = None,
            config: dict | None = None) -> str:
    out = tmp_path / f"{suite}-seed{seed}-threads{threads}-kernel{kernel}"
    args = []
    if config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["--config", str(path)]
    subprocess.run(
        [sys.executable, "-m", "combcert.cli", "verify", "--suite", suite,
         "--seed", str(seed), "--out", str(out), *args],
        env=_env(threads, kernel), check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / f"{suite}_report.json").read_text())["body_digest"]


def _digests(tmp_path: Path, suite: str, seed: int, kernel: str | None = None,
             config: dict | None = None) -> dict:
    return {threads: _digest(tmp_path, suite, seed, threads, kernel, config) for threads in THREADS}


@pytest.mark.parametrize("seed", [7, 23])
def test_hard_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "hard", seed)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_domination_digest_at_2_4_is_independent_of_blas_threads(tmp_path, seed):
    # the (2,4) cell at n = 3 works in dimension D^n = 512, where a dense
    # eigensolve's sums split with the thread count; the default cells stay
    # at D^n <= 27
    config = {"hard": {"domination": {"cells": [[2, 4]], "max_n": 3}}}
    digests = {threads: _digest(tmp_path, "hard", seed, threads, config=config) for threads in THREADS}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_domination_digest_at_the_d1_2_cells_to_n4_is_independent_of_blas_threads(tmp_path, seed):
    digests = _digests(tmp_path, "hard", seed, config=DOMINATION)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_hard_digest_at_n4_is_independent_of_blas_threads(tmp_path, seed):
    # the comb walk's largest products at n = 4 (168-square on Sym^3(M) (x) A)
    # moved in their last bits with the thread count as BLAS products
    config = {"hard": {"max_n": 4}}
    digests = {threads: _digest(tmp_path, "hard", seed, threads, config=config) for threads in THREADS}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_net_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "net", seed)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("suite", FORCED)
def test_digest_is_independent_of_blas_threads_under_a_forced_kernel(tmp_path, suite, kernel, seed):
    reason = _ignored_kernel_reason(kernel)
    if reason:
        pytest.skip(reason)
    name, config = FORCED[suite]
    digests = _digests(tmp_path, name, seed, kernel, config)
    assert len(set(digests.values())) == 1, digests


def test_hard_digest_is_the_same_with_the_per_process_caches_warm(tmp_path):
    # specs, gamma vectors and twirl cores are kept for the life of a process
    HardInstanceSpec.concrete.cache_clear()
    _twirled_core.cache_clear()
    cold = report_digest(run_hard_suite(seed=7).to_dict())
    warm = report_digest(run_hard_suite(seed=7).to_dict())
    assert cold == warm == _digest(tmp_path, "hard", 7, None)
