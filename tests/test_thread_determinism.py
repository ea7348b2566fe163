"""The hard and net suites' canonical bodies must not depend on the BLAS
thread count: one (config, seed) gives one digest on any machine. The net
suite's audits run stacked LAPACK and matmul calls. ``--jobs`` changes
nothing, since every check runs in one process; ``test_cli`` checks that a
``--jobs`` value leaves the digest as it is.

Each combination runs ``combcert verify --suite <suite>`` in a fresh process,
since OpenBLAS reads its thread count once, when numpy loads. The thread
count is set in the child's environment only. With it unset the CLI pins
BLAS to one thread, so "unset" means the CLI's default of 1; "2" still
covers a multithreaded BLAS."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from combcert.hard import HardInstanceSpec
from combcert.hard.twirl import _twirled_core
from combcert.report import report_digest
from combcert.suites import run_hard_suite

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREADS = (None, "1", "2")  # None: OPENBLAS_NUM_THREADS unset, the CLI's default of 1


def _digest(tmp_path: Path, suite: str, seed: int, threads: str | None) -> str:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = tmp_path / f"{suite}-seed{seed}-threads{threads}"
    subprocess.run(
        [sys.executable, "-m", "combcert.cli", "verify", "--suite", suite,
         "--seed", str(seed), "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / f"{suite}_report.json").read_text())["body_digest"]


def _digests(tmp_path: Path, suite: str, seed: int) -> dict:
    return {threads: _digest(tmp_path, suite, seed, threads) for threads in THREADS}


@pytest.mark.parametrize("seed", [7, 23])
def test_hard_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "hard", seed)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("seed", [7, 23])
def test_net_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = _digests(tmp_path, "net", seed)
    assert len(set(digests.values())) == 1, digests


def test_hard_digest_is_the_same_with_the_per_process_caches_warm(tmp_path):
    # specs, gamma vectors and twirl cores are kept for the life of a process
    HardInstanceSpec.concrete.cache_clear()
    _twirled_core.cache_clear()
    cold = report_digest(run_hard_suite(seed=7).to_dict())
    warm = report_digest(run_hard_suite(seed=7).to_dict())
    assert cold == warm == _digest(tmp_path, "hard", 7, None)
