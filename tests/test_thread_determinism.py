"""The hard suite's canonical body must not depend on the BLAS thread count
or on ``--jobs``: one (config, seed) gives one digest on any machine.

Each combination runs ``combcert verify --suite hard`` in a fresh process,
since OpenBLAS reads its thread count once, when numpy loads. The thread
count is set in the child's environment only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREADS = (None, "1", "2")  # None: OPENBLAS_NUM_THREADS unset, the library's default
JOBS = ("1", "2")


def _hard_digest(tmp_path: Path, seed: int, threads: str | None, jobs: str) -> str:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = tmp_path / f"seed{seed}-threads{threads}-jobs{jobs}"
    subprocess.run(
        [sys.executable, "-m", "combcert.cli", "verify", "--suite", "hard",
         "--seed", str(seed), "--jobs", jobs, "--out", str(out)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return json.loads((out / "hard_report.json").read_text())["body_digest"]


@pytest.mark.parametrize("seed", [7, 23])
def test_hard_digest_is_independent_of_blas_threads_and_jobs(tmp_path, seed):
    digests = {
        (threads, jobs): _hard_digest(tmp_path, seed, threads, jobs)
        for threads in THREADS
        for jobs in JOBS
    }
    assert len(set(digests.values())) == 1, digests
