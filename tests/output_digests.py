"""Print a sha256 digest of every solver output, to compare two trees byte for byte.

    PYTHONPATH=src python tests/output_digests.py [--against FILE]

Each line is `name  digest`, the digest a 16-hex-digit sha256 prefix of the
output's dtype, shape and bytes (floats, lists and dicts through their
repr). Save the output on one checkout and run it with --against that file
on another: it exits 1 and names, on stderr, each output whose digest
differs or that only one side has, so a refactor that exits 0 keeps every
output. No value is stored in the repository, since the bits may differ
between numpy builds. The file name does not start with test_, so pytest
does not collect it.

Covered: `solve_dp` (explicit and picard-in-step, killed and reflected,
m = 3-5), `picard_iterate` from zero and from the DP seed, `vbeta_norm` on
its own (reflected, killed, and killed from a V_0 start, at three weights,
one of them past the exponent shift), the linear closed
form's Y0 and Z0 and its MC estimates, the weak PDE's u, gradients and
residuals, the fk-ladder sups, the moment and joint bound fits, and the
files of the `bsde`, `pde`, `check fk` and `walk --emit paths|stats|histogram`
subcommands; the DP, Picard, closed form (with its MC route) and weak PDE
once more on a killed problem whose phi on V_0 is affine and not zero; and
the walks: `simulate_paths`, reflected and killed, in one block, in three,
and in three under 2 workers, and from a V_0 and an interior start;
`_run_blocks` snapshots at mixed layers; `exit_time_stats`,
`occupation_histogram` and `expint_estimate`.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from gasketlab import bounds, bsde, cli, pde, problems, walk
from gasketlab.gasket import build_level_graph

SIN_KILLED = {"driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
              "terminal": {"name": "bump"}, "duration": {"kind": "killed", "T": 0.25}}
# phi(t) = values + slope t on V_0, apart from psi there
AFFINE_PHI = {"values": [0.2, -0.1, 0.05], "slope": [1.0, -0.5, 0.3]}


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        data = f"{value.dtype}|{value.shape}|".encode() + np.ascontiguousarray(value).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def problem(duration: str, horizon: float = 0.25, boundary=None) -> problems.BsdeProblem:
    spec = dict(SIN_KILLED, duration={"kind": duration, "T": horizon})
    if boundary is not None:
        spec["boundary"] = boundary
    return problems.build_problem(problems.validate_problem_dict(spec))


def rows():
    graphs = {m: build_level_graph(m) for m in range(2, 6)}
    kernels = {m: walk.build_step_kernel(g) for m, g in graphs.items()}

    for m in (3, 4, 5):
        for duration in ("killed", "deterministic"):
            for scheme in ("explicit", "picard-in-step"):
                sol = bsde.solve_dp(problem(duration), kernels[m], graphs[m], scheme=scheme)
                yield f"dp.{scheme}.{duration}.m{m}.Y", sol.Y
                yield f"dp.{scheme}.{duration}.m{m}.Z", sol.Z
                yield f"dp.{scheme}.{duration}.m{m}.iterations", sol.iterations

    # criterion 08's set-up, killed and reflected, from zero and from the DP seed
    g, k = graphs[3], kernels[3]
    for duration in ("deterministic", "killed"):
        p = problem(duration, 1.0 if duration == "deterministic" else 0.25)
        cfg = walk.WalkConfig(level=3, horizon=p.horizon, path_count=600, seed=808,
                              killed=duration == "killed")
        ens = walk.simulate_paths(cfg, k, g)
        seed_field = bsde.solve_dp(problems.BsdeProblem(
            g=lambda t, x, y: np.zeros_like(y), f=lambda t, x, y, z: np.zeros_like(y),
            terminal_psi=p.terminal_psi, horizon=p.horizon, duration=duration,
            boundary_phi=p.boundary_phi), k, g).Y
        for label, initial in (("zero", None), ("dp_seed", seed_field)):
            rep = bsde.picard_iterate(p, k, 12, ens, bsde.BetaWeights(36.0, 36.0), g,
                                      initial=initial, stop_rel=1e-19)
            yield f"picard.{duration}.{label}.distances", rep["distances"]
            yield f"picard.{duration}.{label}.ratios", rep["ratios"]
            yield f"picard.{duration}.{label}.Y", rep["final"][0]
            yield f"picard.{duration}.{label}.Z", rep["final"][1]

    # the V^beta norm alone: reflected, killed, and killed from a V_0 start,
    # whose first step from the corner is live and whose later ones there stop
    g, k = graphs[3], kernels[3]
    rng = np.random.default_rng(17)
    for label, killed, start in (("reflected", False, "mu"), ("killed", True, "mu"),
                                 ("killed.start0", True, 0)):
        ens = walk.simulate_paths(walk.WalkConfig(level=3, horizon=0.5, path_count=500,
                                                  seed=41, killed=killed, start=start), k, g)
        y, z = rng.standard_normal((2, ens.n_steps + 1, k.n_vertices))
        # at beta 400 the exponent passes 600, so it is shifted, and the
        # fields are scaled so that the norm stays finite
        for beta, scale in ((1.0, 1.0), (36.0, 1.0), (400.0, 1e-100)):
            yield (f"vbeta_norm.{label}.beta{beta:g}",
                   bsde.vbeta_norm(ens, scale * y, scale * z, bsde.BetaWeights(beta, beta)))

    for m in (2, 4):
        g, k = graphs[m], kernels[m]
        start = k.n_vertices // 2
        for duration in ("deterministic", "killed"):
            p = problem(duration, 0.05)
            out = bsde.linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=[start, 3],
                                          mc_paths=2000, seed=5)
            yield f"closed_form.{duration}.m{m}.Y0", out["Y0"]
            yield f"closed_form.{duration}.m{m}.Z0", out["Z0"]
            yield f"closed_form.{duration}.m{m}.mc", sorted(out["mc"].items())

    for m in (2, 3, 4, 5):
        sol = pde.solve_weak_pde(problem("killed"), graphs[m])
        yield f"pde.m{m}.u", sol.u
        yield f"pde.m{m}.gradients", sol.gradients
        yield f"pde.m{m}.residuals", sol.residuals
        yield f"pde.m{m}.meta", sorted(sol.meta.items())

    rep = pde.feynman_kac_check(lambda m: (problem("killed"),) * 2, (3, 4, 5),
                                (0.0, 0.0625, 0.125, 0.1875))
    yield "fk_ladder.sups", rep["sup_errors"]
    yield "fk_ladder.errors", sorted((m, sorted(e.items())) for m, e in rep["errors"].items())

    qv = walk.ensemble_qv_snapshots(walk.WalkConfig(level=3, horizon=1.0, path_count=4000,
                                                    seed=11), kernels[3], (0.25, 0.5, 1.0))
    expint = {(b, t): float(np.exp(b * qv[t]).mean()) for b in (0.25, 0.5, 1.0) for t in qv}
    yield "bounds.moment_fit", bounds.fit_moment_constant(qv)
    yield "bounds.joint_fit", bounds.fit_joint_constant(qv, expint)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = tmp / "p.json"
        spec.write_text(json.dumps(SIN_KILLED))
        runs = {
            "bsde.csv": ["bsde", "--problem", spec, "--level", "3", "--scheme", "picard-in-step"],
            "pde.csv": ["pde", "--problem", spec, "--level", "3"],
            "fk.csv": ["check", "fk", "--problem", spec, "--levels", "2,3,4",
                       "--probe-times", "0,0.125"],
            "walk_paths.csv": ["walk", "--level", "2", "--paths", "300", "--horizon", "0.5",
                               "--killed", "--emit", "paths", "--seed", "3"],
            "walk_stats.json": ["walk", "--level", "3", "--paths", "500", "--horizon", "0.5",
                                "--killed", "--emit", "stats", "--seed", "3"],
            "walk_hist.csv": ["walk", "--level", "3", "--paths", "500", "--horizon", "0.5",
                              "--emit", "histogram", "--at-time", "0.25", "--cell-level", "2"],
        }
        for name, argv in runs.items():
            code = cli.main([str(a) for a in argv] + ["--out", str(tmp / name)])
            yield f"cli.{name}.exit", code
        # not the sidecars: they hold the wall time
        for path in sorted([*tmp.glob("*.csv"), tmp / "walk_stats.json"]):
            yield f"cli.{path.name}", path.read_bytes()

    # killed, with an affine phi != 0 on V_0
    g, k = graphs[3], kernels[3]
    p = problem("killed", boundary=AFFINE_PHI)
    for m in (3, 4, 5):
        for scheme in ("explicit", "picard-in-step"):
            sol = bsde.solve_dp(p, kernels[m], graphs[m], scheme=scheme)
            yield f"affine.dp.{scheme}.m{m}.Y", sol.Y
            yield f"affine.dp.{scheme}.m{m}.Z", sol.Z
    ens = walk.simulate_paths(walk.WalkConfig(level=3, horizon=p.horizon, path_count=600,
                                              seed=808, killed=True), k, g)
    seed_field = bsde.solve_dp(problems.BsdeProblem(
        g=lambda t, x, y: np.zeros_like(y), f=lambda t, x, y, z: np.zeros_like(y),
        terminal_psi=p.terminal_psi, horizon=p.horizon, duration="killed",
        boundary_phi=p.boundary_phi), k, g).Y
    for label, initial in (("zero", None), ("dp_seed", seed_field)):
        rep = bsde.picard_iterate(p, k, 12, ens, bsde.BetaWeights(36.0, 36.0), g,
                                  initial=initial, stop_rel=1e-19)
        yield f"affine.picard.{label}.distances", rep["distances"]
        yield f"affine.picard.{label}.Y", rep["final"][0]
        yield f"affine.picard.{label}.Z", rep["final"][1]
    for m in (2, 4):
        start = kernels[m].n_vertices // 2
        out = bsde.linear_closed_form(0.5, 0.3, 0.4, problem("killed", 0.05, AFFINE_PHI),
                                      kernels[m], graphs[m], mc_starts=[start, 3],
                                      mc_paths=2000, seed=5)
        yield f"affine.closed_form.m{m}.Y0", out["Y0"]
        yield f"affine.closed_form.m{m}.Z0", out["Z0"]
        yield f"affine.closed_form.m{m}.mc", sorted(out["mc"].items())
    for m in (2, 3, 4, 5):
        sol = pde.solve_weak_pde(p, graphs[m])
        yield f"affine.pde.m{m}.u", sol.u
        yield f"affine.pde.m{m}.gradients", sol.gradients
        yield f"affine.pde.m{m}.residuals", sol.residuals
        yield f"affine.pde.m{m}.meta", sorted(sol.meta.items())

    # walks: recorded paths, snapshots and the streaming statistics
    g, k = graphs[3], kernels[3]
    for killed in (False, True):
        mode = "killed" if killed else "reflected"
        cfg = walk.WalkConfig(level=3, horizon=0.4, path_count=600, seed=29, killed=killed)
        for label, blocks, workers in (("one_block", 25_000, 1), ("three_blocks", 200, 1),
                                       ("three_blocks.2_workers", 200, 2)):
            ens = walk.simulate_paths(replace(cfg, block_size=blocks, workers=workers), k, g)
            for name in ("vertices", "dW", "dqv", "hit_step"):
                yield f"walk.paths.{mode}.{label}.{name}", getattr(ens, name)
        for start in (1, 9):  # on V_0, interior
            ens = walk.simulate_paths(walk.WalkConfig(level=2, horizon=0.6, path_count=300,
                                                      seed=7, killed=killed, start=start),
                                      kernels[2], graphs[2])
            for name in ("vertices", "dW", "dqv", "hit_step"):
                yield f"walk.paths.{mode}.start{start}.{name}", getattr(ens, name)
        cfg = replace(cfg, block_size=250)
        run = walk._run_blocks(cfg, k, g, layers=(0, 1, 6, 7, 40, 97, cfg.n_steps))
        for key in sorted(run):
            yield f"walk.snapshots.{mode}.{key}", run[key]
        hist = walk.occupation_histogram(cfg, k, 0.2, 2, g)
        yield f"walk.histogram.{mode}", (hist["t"], sorted(hist["masses"].items()))
        yield f"walk.expint.{mode}", sorted(walk.expint_estimate(cfg, k, 0.5, g=g).items())
    yield "walk.exit_time", sorted(walk.exit_time_stats(cfg, k, g).items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 digests of every solver output")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="an earlier output of this script: exit 1, naming each output "
                             "whose digest differs or that only one side has")
    args = parser.parse_args(argv)
    digests = {}
    for name, value in rows():
        digests[name] = digest(value)
        print(f"{name:45s} {digests[name]}", flush=True)
    if args.against is None:
        return 0
    earlier = dict(line.split() for line in args.against.read_text().splitlines() if line.strip())
    differ = [name for name in [*digests, *(n for n in earlier if n not in digests)]
              if digests.get(name) != earlier.get(name)]
    for name in differ:
        print(f"differs: {name} ({earlier.get(name, 'absent')} in {args.against}, "
              f"{digests.get(name, 'absent')} here)", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
