"""Command-line front end: deterministic seeding, schema-validated configs,
CSV/JSON emission with a metadata sidecar.

Reproducibility contract: an identical resolved configuration (seed included)
produces byte-identical primary outputs regardless of --workers; Monte-Carlo
work is split into fixed blocks with counter-based RNG streams and reduced in
block order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .bounds import (
    GAMMA_S,
    SPECTRAL_DIMENSION,
    beta_chain_identity,
    fit_joint_constant,
    mittag_leffler,
)
from .bsde import BetaWeights, BsdeProblem, picard_iterate, solve_dp
from .errors import GasketLabError, UsageError
from .gasket import build_level_graph, graph_to_json
from .harmonic import harmonic_extend_to_level
from .measures import energy_measure_table, hausdorff_measure, kusuoka_identity_check, kusuoka_measure
from .pde import feynman_kac_check, solve_weak_pde
from .problems import build_problem, load_problem_file, make_terminal, schema_violation
from .walk import (
    WalkConfig,
    build_step_kernel,
    ensemble_qv_snapshots,
    ensemble_qv_stats,
    exit_time_stats,
    occupation_histogram,
    simulate_paths,
)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config(args) -> dict:
    """The flags that have a value, with the defaults a command resolved itself."""
    return {k: v for k, v in vars(args).items() if v is not None}


def _write_sidecar(out_path: str, config: dict, t0: float) -> None:
    meta = {
        "version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(_canonical_json(config).encode()).hexdigest(),
        "seed": config.get("seed"),
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(out_path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(path: str, header: list[str], columns, fmt: str) -> None:
    """One column per header name, each an array or a sequence of equal length.

    CSV writes floats by repr; JSON writes one record per row.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if fmt == "json":
        _write_json(path, [dict(zip(header, row)) for row in zip(*cols)])
        return
    text = [map(repr if c and isinstance(c[0], float) else str, c) for c in cols]
    with open(path, "w") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*text))]) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _validate_runconfig(cfg: dict) -> dict:
    bad = schema_violation(cfg, "runconfig.schema.json")
    if bad:
        path, kw, message = bad
        if kw == "required":
            raise UsageError(f"config missing required fields: {message}")
        raise UsageError(f"config invalid at {path}: {message}")
    return cfg


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma-separated values of `flag` as `kind`; UsageError names the flag."""
    try:
        return [kind(s) for s in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be comma-separated {kind.__name__} values, "
                         f"got {text!r}") from exc


# --- subcommand implementations ----------------------------------------------

def _cmd_graph(args):
    g = build_level_graph(args.level)
    _write_json(args.out, graph_to_json(g))


def _cmd_harmonic(args):
    u = tuple(_parse_list(args.boundary, "--boundary", Fraction))
    if len(u) != 3:
        raise UsageError("--boundary needs exactly three comma-separated rationals")
    g = build_level_graph(args.level)
    table = harmonic_extend_to_level(u, args.level, g)
    xy = np.array([v.euclidean() for v in g.vertices])
    _write_table(args.out, ["vertex_id", "x", "y", "value"],
                 [[v.id for v in g.vertices], xy[:, 0], xy[:, 1],
                  [float(table[v.id]) for v in g.vertices]], args.format)


def _cmd_measure(args):
    if args.kind == "mu":
        table = hausdorff_measure(args.level)
    elif args.kind == "nu":
        table = kusuoka_measure(args.level)
    else:
        if not args.boundary:
            raise UsageError("--kind energy requires --boundary u1,u2,u3")
        u = tuple(_parse_list(args.boundary, "--boundary", Fraction))
        table = energy_measure_table(u, args.level)
    words = sorted(table.masses)
    masses = [table.masses[w] for w in words]
    _write_table(args.out, ["word", "mass_numerator", "mass_denominator", "mass_float"],
                 [words, [x.numerator for x in masses], [x.denominator for x in masses],
                  [float(x) for x in masses]], args.format)


def _layer_vertex(shape: tuple[int, int], stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of every stride-th row of a (layers, columns) field."""
    layers = np.arange(0, shape[0], stride)
    return np.repeat(layers, shape[1]), np.tile(np.arange(shape[1]), len(layers))


def _parse_start(s: str):
    if s is None or s == "mu":
        return "mu"
    try:
        return int(s)
    except ValueError:
        return s  # cell word


def _cmd_walk(args):
    if args.emit != "histogram" and (args.at_time is not None or args.cell_level is not None):
        raise UsageError("--at-time and --cell-level apply only to --emit histogram")
    if args.emit == "stats" and args.format is not None:
        raise UsageError("--format does not apply to --emit stats, which writes JSON")
    args.format = None if args.emit == "stats" else args.format or "csv"
    g = build_level_graph(args.level)
    kernel = build_step_kernel(g)
    cfg = WalkConfig(
        level=args.level, horizon=args.horizon, path_count=args.paths,
        seed=args.seed, killed=args.killed, start=_parse_start(args.start),
        workers=args.workers,
    )
    if args.emit == "paths":
        ens = simulate_paths(cfg, kernel, g)
        n, K = ens.n_paths, ens.n_steps
        hit = ens.hit_step[:, None]
        hit_flag = (hit >= 0) & (hit <= np.arange(1, K + 1))
        _write_table(args.out,
                     ["path_id", "step", "vertex_id", "dW", "dQV", "cumQV", "hit_flag"],
                     [np.repeat(np.arange(n), K), np.tile(np.arange(K), n),
                      ens.vertices[:, 1:].ravel(), ens.dW.ravel(), ens.dqv.ravel(),
                      ens.cum_qv.ravel(), hit_flag.ravel().astype(int)], args.format)
    elif args.emit == "stats":
        report = {"qv": ensemble_qv_stats(cfg, kernel, g)}
        if args.killed:
            report["exit_time"] = exit_time_stats(cfg, kernel, g)
        _write_json(args.out, report)
    else:  # histogram
        t = args.at_time if args.at_time is not None else args.horizon
        masses = occupation_histogram(cfg, kernel, t, args.cell_level, g)["masses"]
        words = sorted(masses)
        _write_table(args.out, ["word", "mass"],
                     [words, [float(masses[w]) for w in words]], args.format)


def _cmd_bsde(args):
    problem = build_problem(load_problem_file(args.problem))
    g = build_level_graph(args.level)
    sol = solve_dp(problem, build_step_kernel(g), g, scheme=args.scheme)
    _write_table(args.out, ["step", "vertex_id", "Y", "Z"],
                 [*_layer_vertex(sol.Y.shape, args.stride),
                  sol.Y[::args.stride].ravel(), sol.Z[::args.stride].ravel()], args.format)


def _cmd_pde(args):
    problem = build_problem(load_problem_file(args.problem))
    ts = None if args.steps is None else problem.horizon / args.steps
    sol = solve_weak_pde(problem, build_level_graph(args.level), ts)
    _write_table(args.out, ["layer", "vertex_id", "u"],
                 [*_layer_vertex(sol.u.shape, args.stride), sol.u[::args.stride].ravel()],
                 args.format)
    layer, cell = _layer_vertex(sol.gradients.shape, args.stride)
    _write_table(args.out + ".gradients.csv", ["layer", "word", "grad"],
                 [layer, np.array(sol.cell_words)[cell], sol.gradients[::args.stride].ravel()],
                 args.format)


def _cmd_check_fk(args):
    problem = build_problem(load_problem_file(args.problem))
    levels = _parse_list(args.levels, "--levels", int)
    probe_times = _parse_list(args.probe_times, "--probe-times", float)
    rep = feynman_kac_check(lambda level: (problem, problem), levels, probe_times)
    _write_table(args.out, ["level", "sup_error"],
                 [rep["levels"], [float(s) for s in rep["sup_errors"]]], args.format)
    return 0 if rep["decreasing"] else 3


def _cmd_check_bounds(args):
    which = args.which
    ensemble = {"level": 4, "paths": 20000, "seed": 0, "workers": 1}  # the flags' defaults
    given = [f"--{k}" for k in ensemble if getattr(args, k) is not None]
    if which in ("beta-chain", "ml") and given:
        raise UsageError(f"--which {which} reads none of {', '.join(given)}")
    if which == "beta-chain":
        report = {
            "cases": [beta_chain_identity(p, gam)
                      for p in (2, 3) for gam in (GAMMA_S, 0.5)],
            "d_s": SPECTRAL_DIMENSION,
            "gamma_s": GAMMA_S,
        }
        _write_json(args.out, report)
        return 0
    if which == "ml":
        grid = [-5.0, -2.0, 0.0, 1.0, 5.0, 10.0]
        report = {
            "exp_agreement": [
                {"z": z, "E11": mittag_leffler(1.0, 1.0, z),
                 "exp": float(np.exp(z))}
                for z in grid
            ]
        }
        _write_json(args.out, report)
        return 0
    # moments / expint need an ensemble
    vars(args).update({k: v for k, v in ensemble.items() if getattr(args, k) is None})
    g = build_level_graph(args.level)
    kernel = build_step_kernel(g)
    cfg = WalkConfig(level=args.level, horizon=1.0, path_count=args.paths,
                     seed=args.seed, workers=args.workers)
    tgrid = (0.25, 0.5, 1.0)
    qv = ensemble_qv_snapshots(cfg, kernel, tgrid, g)
    if which == "moments":
        from .bounds import check_moment_bound, fit_moment_constant

        fit = fit_moment_constant(qv)
        report = {"C": fit["C"],
                  "check": check_moment_bound(qv, fit["C"])["rows"]}
        _write_json(args.out, report)
        return 0
    # expint: joint constant report
    expint = {}
    for beta in (0.25, 0.5, 1.0):
        for t in tgrid:
            expint[(beta, t)] = float(np.exp(beta * qv[t]).mean())
    joint = fit_joint_constant(qv, expint)
    report = {
        "C": joint["C"],
        "moments_hold": joint["moments"]["holds"],
        "ml_hold": joint["mittag_leffler"]["holds"],
    }
    _write_json(args.out, report)
    return 0


def _cmd_check_contraction(args):
    g = build_level_graph(args.level)
    kernel = build_step_kernel(g)
    bp = BsdeProblem(
        g=lambda t, x, y: -0.5 * y,
        f=lambda t, x, y, z: 0.5 * np.sin(y) + z,
        terminal_psi=make_terminal({"terminal": {"name": "bump"}}),
        horizon=1.0, k0=1.0, k1=1.0, duration="deterministic",
    )
    cfg = WalkConfig(level=args.level, horizon=1.0, path_count=args.paths,
                     seed=args.seed, workers=args.workers)
    ens = simulate_paths(cfg, kernel, g)
    w = BetaWeights(36.0, 36.0)
    rep = picard_iterate(bp, kernel, args.iters, ens, w, g)
    from .bsde import contraction_constant

    bound = 3 * 2**0.5 * contraction_constant(1.0, 1.0, w)
    report = {
        "distances": rep["distances"],
        "ratios": rep["ratios"],
        "bound": bound,
        "all_below_bound": all(r <= bound for r in rep["ratios"]),
    }
    _write_json(args.out, report)
    return 0 if report["all_below_bound"] else 3


def _cmd_check_identity(args):
    levels = _parse_list(args.levels, "--levels", int)
    report = {}
    for m in levels:
        defect = kusuoka_identity_check(m)
        total = kusuoka_measure(m).total()
        report[str(m)] = {
            "max_defect": str(defect),
            "total_mass": str(total),
            "exact_zero": defect == 0 and total == 1,
        }
    _write_json(args.out, report)
    return 0 if all(v["exact_zero"] for v in report.values()) else 3


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gasketlab",
        description="Dirichlet-form calculus, walks, BSDE and weak-PDE solvers "
                    "on finite gasket approximations",
    )
    sub = ap.add_subparsers(dest="subcommand", parser_class=argparse.ArgumentParser)
    flags = {"seed": {"type": int, "default": 0},
             "workers": {"type": int, "default": 1},
             "format": {"choices": ["csv", "json"], "default": "csv"}}

    def add(name, *flag_names, group=sub, **kw):
        """A subcommand that takes, of the flags above, only those it reads."""
        p = group.add_parser(name, **kw)
        for flag in flag_names:
            p.add_argument(f"--{flag}", **flags[flag])
        return p

    p = add("graph", help="export a level graph as JSON")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("harmonic", "format", help="harmonic extension table as CSV")
    p.add_argument("--boundary", required=True, help="u1,u2,u3 rationals")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("measure", "format", help="cell-measure table as CSV")
    p.add_argument("--kind", choices=["mu", "nu", "energy"], required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--boundary")
    p.add_argument("--out", required=True)

    p = add("walk", "seed", "workers", "format", help="simulate the level-m random walk")
    p.set_defaults(format=None)  # _cmd_walk resolves it: --emit stats reads none
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--killed", action="store_true")
    p.add_argument("--start", default="mu", help="'mu', vertex id, or cell word")
    p.add_argument("--emit", choices=["paths", "stats", "histogram"], default="stats")
    p.add_argument("--at-time", type=float, default=None)
    p.add_argument("--cell-level", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("bsde", "format", help="solve a BSDE problem file by chain DP")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--scheme", choices=["explicit", "picard-in-step"], default="explicit")
    p.add_argument("--stride", type=int, default=1, help="emit every k-th layer")
    p.add_argument("--out", required=True)

    p = add("pde", "format", help="solve a weak-form PDE problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add("check", help="cross-validation pipelines")
    csub = p.add_subparsers(dest="check_kind", required=True,
                            metavar="{fk,bounds,contraction,identity}")

    c = add("fk", "format", group=csub)
    c.add_argument("--problem", required=True)
    c.add_argument("--levels", default="3,4,5")
    c.add_argument("--probe-times", default="0.0,0.25,0.5,0.75")
    c.add_argument("--out", required=True)

    c = add("bounds", "seed", "workers", group=csub)
    c.add_argument("--which", choices=["ml", "beta-chain", "moments", "expint"],
                   required=True)
    c.add_argument("--level", type=int)
    c.add_argument("--paths", type=int)
    c.set_defaults(seed=None, workers=None)  # _cmd_check_bounds resolves these four
    c.add_argument("--out", required=True)

    c = add("contraction", "seed", "workers", group=csub)
    c.add_argument("--level", type=int, default=3)
    c.add_argument("--paths", type=int, default=500)
    c.add_argument("--iters", type=int, default=12)
    c.add_argument("--out", required=True)

    c = add("identity", group=csub)
    c.add_argument("--levels", default="1,3,5")
    c.add_argument("--out", required=True)

    return ap


# keyed by subcommand, or by check kind under `check`
COMMANDS = {
    "graph": _cmd_graph,
    "harmonic": _cmd_harmonic,
    "measure": _cmd_measure,
    "walk": _cmd_walk,
    "bsde": _cmd_bsde,
    "pde": _cmd_pde,
    "fk": _cmd_check_fk,
    "bounds": _cmd_check_bounds,
    "contraction": _cmd_check_contraction,
    "identity": _cmd_check_identity,
}


def main(argv=None) -> int:
    ap = build_parser()
    words = sys.argv[1:] if argv is None else list(argv)
    # a flag before the subcommand or the check kind: argparse would read its
    # value as the subcommand and name only that
    first = words[1:2] if words[:1] == ["check"] else words[:1]
    if first and first[0].startswith("-") and first[0] not in ("-h", "--help"):
        ap.error(f"{first[0].split('=')[0]} goes after the subcommand")
    args = ap.parse_args(words)
    if not args.subcommand:
        print("error: config missing required fields: subcommand, out",
              file=sys.stderr)
        ap.print_help()
        return 2

    t0 = time.time()
    try:
        _validate_runconfig(_config(args))
        name = args.check_kind if args.subcommand == "check" else args.subcommand
        rc = COMMANDS[name](args)
    except GasketLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_sidecar(args.out, _config(args), t0)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
