"""Command-line front end: deterministic seeding, schema-validated configs,
CSV/JSON emission with a metadata sidecar.

Reproducibility contract: an identical resolved configuration (seed included)
produces byte-identical primary outputs regardless of --workers; Monte-Carlo
work is split into fixed blocks with counter-based RNG streams and reduced in
block order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from fractions import Fraction
from importlib import resources

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
from .pde import feynman_kac_check, require_killed, solve_weak_pde
from .problems import build_problem_pair, load_problem_file, make_terminal
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


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _write_table(path: str, header: list[str], rows, fmt: str) -> None:
    if fmt == "json":
        _write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        _write_csv(path, header, rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _validate_runconfig(cfg: dict) -> dict:
    import jsonschema

    with resources.files("gasketlab.schemas").joinpath("runconfig.schema.json").open() as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(cfg, schema)
    except jsonschema.ValidationError as exc:
        if exc.validator == "required":
            raise UsageError(f"config missing required fields: {exc.message}") from exc
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise UsageError(f"config invalid at {path}: {exc.message}") from exc
    return cfg


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma-separated values of `flag` as `kind`; UsageError names the flag."""
    try:
        return [kind(s) for s in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} must be comma-separated {kind.__name__} values, "
                         f"got {text!r}") from exc


def _frac_row(x: Fraction) -> tuple[int, int, float]:
    return x.numerator, x.denominator, float(x)


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
    rows = []
    for v in g.vertices:
        x, y = v.euclidean()
        rows.append((v.id, float(x), float(y), float(table[v.id])))
    _write_table(args.out, ["vertex_id", "x", "y", "value"], rows, args.format)


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
    rows = [
        (w, *_frac_row(mass))
        for w, mass in sorted(table.masses.items())
    ]
    _write_table(args.out, ["word", "mass_numerator", "mass_denominator", "mass_float"],
                 rows, args.format)


def _parse_start(s: str):
    if s is None or s == "mu":
        return "mu"
    try:
        return int(s)
    except ValueError:
        return s  # cell word


def _cmd_walk(args):
    g = build_level_graph(args.level)
    kernel = build_step_kernel(g)
    cfg = WalkConfig(
        level=args.level, horizon=args.horizon, path_count=args.paths,
        seed=args.seed, killed=args.killed, start=_parse_start(args.start),
        workers=args.workers,
    )
    if args.emit == "paths":
        ens = simulate_paths(cfg, kernel, g)
        rows = []
        cum = ens.cum_qv
        for i in range(ens.n_paths):
            hit = int(ens.hit_step[i])
            for k in range(ens.n_steps):
                hit_flag = 1 if 0 <= hit <= k + 1 else 0
                rows.append((i, k, int(ens.vertices[i, k + 1]),
                             float(ens.dW[i, k]), float(ens.dqv[i, k]),
                             float(cum[i, k]), hit_flag))
        _write_table(args.out,
                     ["path_id", "step", "vertex_id", "dW", "dQV", "cumQV", "hit_flag"],
                     rows, args.format)
    elif args.emit == "stats":
        report = {"qv": ensemble_qv_stats(cfg, kernel, g)}
        if args.killed:
            report["exit_time"] = exit_time_stats(cfg, kernel, g)
        _write_json(args.out, report)
    else:  # histogram
        t = args.at_time if args.at_time is not None else args.horizon
        hist = occupation_histogram(cfg, kernel, t, args.cell_level, g)
        rows = [(w, float(mass)) for w, mass in sorted(hist["masses"].items())]
        _write_table(args.out, ["word", "mass"], rows, args.format)


def _cmd_bsde(args):
    spec = load_problem_file(args.problem)
    g = build_level_graph(args.level)
    kernel = build_step_kernel(g)
    _, bp = build_problem_pair(spec, args.level)
    sol = solve_dp(bp, kernel, g, scheme=args.scheme)
    rows = []
    for k in range(0, sol.Y.shape[0], args.stride):
        for v in range(sol.Y.shape[1]):
            rows.append((k, v, float(sol.Y[k, v]), float(sol.Z[k, v])))
    _write_table(args.out, ["step", "vertex_id", "Y", "Z"], rows, args.format)


def _cmd_pde(args):
    spec = load_problem_file(args.problem)
    require_killed(spec["duration"]["kind"])
    g = build_level_graph(args.level)
    ts = None if args.steps is None else spec["duration"]["T"] / args.steps
    wp, _ = build_problem_pair(spec, args.level, time_step=ts)
    sol = solve_weak_pde(wp, g)
    rows = []
    for k in range(0, sol.u.shape[0], args.stride):
        for v in range(sol.u.shape[1]):
            rows.append((k, v, float(sol.u[k, v])))
    _write_table(args.out, ["layer", "vertex_id", "u"], rows, args.format)
    grad_rows = []
    for k in range(0, sol.gradients.shape[0], args.stride):
        for ci, w in enumerate(sol.cell_words):
            grad_rows.append((k, w, float(sol.gradients[k, ci])))
    _write_table(args.out + ".gradients.csv", ["layer", "word", "grad"], grad_rows,
                 args.format)


def _cmd_check_fk(args):
    spec = load_problem_file(args.problem)
    levels = _parse_list(args.levels, "--levels", int)
    probe_times = _parse_list(args.probe_times, "--probe-times", float)

    def make(level):
        return build_problem_pair(spec, level)

    rep = feynman_kac_check(make, levels, probe_times)
    rows = [(m, float(s)) for m, s in zip(rep["levels"], rep["sup_errors"])]
    _write_table(args.out, ["level", "sup_error"], rows, args.format)
    return 0 if rep["decreasing"] else 3


def _cmd_check_bounds(args):
    which = args.which
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["csv", "json"], default=argparse.SUPPRESS)

    ap = argparse.ArgumentParser(
        prog="gasketlab",
        description="Dirichlet-form calculus, walks, BSDE and weak-PDE solvers "
                    "on finite gasket approximations",
        parents=[common],
    )
    # global-flag defaults are filled after parsing: set_defaults would mutate
    # the shared parent actions and let subparsers clobber pre-subcommand flags
    sub = ap.add_subparsers(dest="subcommand", parser_class=argparse.ArgumentParser)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("graph", help="export a level graph as JSON")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("harmonic", help="harmonic extension table as CSV")
    p.add_argument("--boundary", required=True, help="u1,u2,u3 rationals")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("measure", help="cell-measure table as CSV")
    p.add_argument("--kind", choices=["mu", "nu", "energy"], required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--boundary")
    p.add_argument("--out", required=True)

    p = add("walk", help="simulate the level-m random walk")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--killed", action="store_true")
    p.add_argument("--start", default="mu", help="'mu', vertex id, or cell word")
    p.add_argument("--emit", choices=["paths", "stats", "histogram"], default="stats")
    p.add_argument("--at-time", type=float, default=None)
    p.add_argument("--cell-level", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("bsde", help="solve a BSDE problem file by chain DP")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--scheme", choices=["explicit", "picard-in-step"], default="explicit")
    p.add_argument("--stride", type=int, default=1, help="emit every k-th layer")
    p.add_argument("--out", required=True)

    p = add("pde", help="solve a weak-form PDE problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add("check", help="cross-validation pipelines")
    csub = p.add_subparsers(dest="check_kind")

    c = csub.add_parser("fk", parents=[common])
    c.add_argument("--problem", required=True)
    c.add_argument("--levels", default="3,4,5")
    c.add_argument("--probe-times", default="0.0,0.25,0.5,0.75")
    c.add_argument("--out", required=True)

    c = csub.add_parser("bounds", parents=[common])
    c.add_argument("--which", choices=["ml", "beta-chain", "moments", "expint"],
                   required=True)
    c.add_argument("--level", type=int, default=4)
    c.add_argument("--paths", type=int, default=20000)
    c.add_argument("--out", required=True)

    c = csub.add_parser("contraction", parents=[common])
    c.add_argument("--level", type=int, default=3)
    c.add_argument("--paths", type=int, default=500)
    c.add_argument("--iters", type=int, default=12)
    c.add_argument("--out", required=True)

    c = csub.add_parser("identity", parents=[common])
    c.add_argument("--levels", default="1,3,5")
    c.add_argument("--out", required=True)

    return ap


GLOBAL_DEFAULTS = {"seed": 0, "workers": 1, "format": "csv"}

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
    args = ap.parse_args(argv)
    for key, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    if not args.subcommand:
        print("error: config missing required fields: subcommand, out",
              file=sys.stderr)
        ap.print_help()
        return 2

    config = {k: v for k, v in vars(args).items() if v is not None}
    t0 = time.time()
    try:
        _validate_runconfig(config)
        name = args.check_kind if args.subcommand == "check" else args.subcommand
        if name not in COMMANDS:
            raise UsageError("check requires one of: fk, bounds, contraction, identity")
        rc = COMMANDS[name](args)
    except GasketLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_sidecar(args.out, config, t0)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
