"""Layer microbenchmarks at the sizes the verify suites use.

    PYTHONPATH=src python3 perfbench/micro.py --seed 7

Prints one JSON object: metric name -> seconds per call. Each figure is the
median of REPEATS timed repeats after one untimed warm-up call; a repeat
runs the call ``inner`` times so that sub-millisecond layers are not timed
at the clock's resolution. Inputs come from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from combcert.combs import certify_comb, link_product
from combcert.channels import choi_operator, random_channel
from combcert.hard import HardInstanceSpec, commutant_projector, gamma_twirl_weingarten
from combcert.hard.instance import comb_sequence, slot_spaces
from combcert.linalg import LabeledOperator, herm_eig, partial_trace, psd_check, random_psd
from combcert.net import NetParams, build_block_isometry, moment_audit, separation_audit

REPEATS = 5
SEPARATION_PAIRS = 50  # the smallest audit separation_audit accepts


def _median_time(call, inner=1):
    call()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(inner):
            call()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def run(seed):
    rng = np.random.default_rng(seed)
    out = {}

    # psd_check / herm_eig: dim 27 is (1,3) at n=3, 100 is (2,5) at n=2,
    # 1000 is (2,5) at n=3 -- the gamma-comb and gamma-twirl-comb sizes
    for dim, inner in ((27, 200), (100, 20), (1000, 1)):
        x = random_psd(dim, rng)
        out[f"micro.herm_eig.d{dim}_s"] = _median_time(lambda: herm_eig(x), inner)
        out[f"micro.psd_check.d{dim}_s"] = _median_time(lambda: psd_check(x), inner)

    # first step of the comb chain walk on a (2,5), n=3 slot layout
    spec25 = HardInstanceSpec.concrete(2, 5)
    spaces = slot_spaces(spec25, 3)
    dims = [d for _, d in spaces]
    x = random_psd(1000, rng)
    out["micro.partial_trace.d1000_s"] = _median_time(
        lambda: partial_trace(x, dims, [len(dims) - 1]), 5)

    # link product of two Choi operators at the combs suite's largest dims
    ch1 = random_channel(4, 4, 2, rng)
    ch2 = random_channel(4, 4, 2, rng)
    c1 = choi_operator(ch1, out_label="M", in_label="A")
    c2 = choi_operator(ch2, out_label="B", in_label="M")
    out["micro.link_product.d4_s"] = _median_time(lambda: link_product(c1, c2), 200)

    spec13 = HardInstanceSpec.concrete(1, 3)
    out["micro.commutant_projector.1-3.n3_s"] = _median_time(
        lambda: commutant_projector(spec13, 3, seed=seed))
    # every rotated-slot count i = 1..3, as gamma-twirl-comb-2-5 builds them
    out["micro.gamma_twirl_weingarten.2-5.n3_s"] = _median_time(
        lambda: [gamma_twirl_weingarten(spec25, 3, i) for i in (1, 2, 3)])

    g = LabeledOperator(gamma_twirl_weingarten(spec25, 3, 2), spaces)
    out["micro.certify_comb.d1000_s"] = _median_time(
        lambda: certify_comb(g, comb_sequence(3), psd_tol=1e-7, chain_tol=1e-7))

    # net cell (4,3,3): the odd-mode template of the moment and separation audits
    blocks = build_block_isometry(NetParams(4, 3, 3, 0.005), rng)
    out["micro.moment_audit.batch2000_s"] = _median_time(
        lambda: moment_audit(blocks, 2000, rng))
    out["micro.separation_audit.per_pair_s"] = _median_time(
        lambda: separation_audit(blocks, SEPARATION_PAIRS, rng)) / SEPARATION_PAIRS
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
