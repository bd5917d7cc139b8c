"""Rerun the Monte Carlo acceptance criteria on fresh seeds and count passes.

    PYTHONPATH=src python tests/seed_sweep.py --seeds 20

Criteria 05, 06, 07 and 11 each run their body from test_acceptance.py, with
its committed band, on N seeds that no test uses; criterion 11 takes three
consecutive seeds per trial. A trial passes when the body raises no
AssertionError. The tests show that the bands hold on the committed seeds;
the counts show whether they hold on others too. The file name does not
start with test_, so pytest does not collect it.
"""

import argparse
import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_acceptance as acceptance  # noqa: E402

from gasketlab import build_level_graph, build_step_kernel  # noqa: E402


@functools.cache
def graphs(m):
    return build_level_graph(m)


@functools.cache
def kernels(m):
    return build_step_kernel(graphs(m))


FIRST_SEED = 900_000  # trial i uses FIRST_SEED + 3i; no test uses these

CRITERIA = {
    "05": lambda seed: acceptance.mc_05_clock_mean(kernels, graphs, seed=seed),
    "06": lambda seed: acceptance.mc_06_exit_means(kernels, graphs, seed=seed),
    "07": lambda seed: acceptance.mc_07_linear_triangle(kernels, graphs, seed=seed),
    "11": lambda seed: acceptance.mc_11_bounds(kernels, graphs,
                                               seeds=(seed, seed + 1, seed + 2)),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="trials per criterion")
    args = ap.parse_args(argv)
    seeds = [FIRST_SEED + 3 * i for i in range(args.seeds)]
    for name, body in CRITERIA.items():
        t0 = time.monotonic()
        failed = []
        for seed in seeds:
            try:
                body(seed)
            except AssertionError:
                failed.append(seed)
        print(f"criterion {name}: {len(seeds) - len(failed)}/{len(seeds)} seeds pass"
              f" ({time.monotonic() - t0:.0f}s); failing seeds {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
