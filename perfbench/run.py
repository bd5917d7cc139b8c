"""gasketlab benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload walk-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
separate traced run, whose spans are also written to `perfbench/out/`.
`--workload all` runs every workload in its own process and prints each
one's metrics, by name and unit. Lines before the last start with `#`.

Timed units repeat until `--seconds` would be exceeded (at least MIN_UNITS
of them). Every unit repeats the same calls on the same inputs, and each call
is timed on its own; `wall_s` sums, over the calls of a unit, each call's
fastest time in the run. `setup_s` is the median over this process and
SETUP_PROBES fresh processes that only import and set up. Both are divided
by the host's slowdown at the time (see hostspeed.py): for `wall_s` the one
over the whole timed phase, for each set-up the one just around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, counting any BLAS pool; the host has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("exact-certify", "walk-mc", "fk-ladder", "picard-paths")
MIN_UNITS = 3
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up, then print the set-up time")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import gasketlab from this checkout's src/, never from elsewhere."""
    init = SRC / "gasketlab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: no gasketlab sources at {init}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gasketlab

    if Path(gasketlab.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported gasketlab from {gasketlab.__file__}, not {init}")
    return gasketlab


def set_up(name: str, seed: int, tracer: bool = False):
    """Import the program and build the workload; returns (workload, seconds, tracer or None)."""
    t0 = time.perf_counter()
    import_program()
    if tracer:
        from tracing import Tracer

        tracer = Tracer(f"{name}-s{seed}")
        tracer.install("setup")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.remove()
    return workload, setup_s, tracer


def probe_setups(name: str, seed: int, host) -> list[tuple[float, float]]:
    """(set-up seconds, host slowdown around it) of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        host.reset()
        host.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True)
        host.sample()
        samples.append((float(proc.stdout.strip().splitlines()[-1]), host.slowdown()))
    return samples


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def host_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "src_lines": src_lines()}


class StepClock:
    """Times each named call of one unit: `clock(name, fn, *args, **kwargs)`."""

    def __init__(self):
        self.times: dict[str, float] = {}

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0
        return out


def fastest_unit(units: list[dict[str, float]]) -> float:
    """Sum over a unit's calls of each call's fastest time among `units`.

    The host's speed swings by up to ~2x in stretches; the fastest repeat of
    each call is the time it takes when the host is least in the way.
    """
    return sum(min(u[name] for u in units) for name in units[0])


class Ledger:
    """Correctness checks attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, checks):
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(label)


def run_units(workload, seconds: float, ledger: Ledger, host, tracer=None):
    """Timed units until the budget is spent, with a host speed sample after each.

    With a tracer, untraced and traced units alternate, and one last unit runs
    under tracemalloc for the per-call peaks only: tracing every allocation
    slows the solvers several-fold, so its times are not used.
    Returns (untraced unit call times, traced unit call times, last output,
    work of the first unit); call times are a {call name: seconds} dict per unit.
    """
    times = {"plain": [], "timed": [], "peak": []}
    first_work = None
    t_start = time.perf_counter()

    def one_unit(kind):
        nonlocal first_work
        if kind != "plain":
            tracer.install(kind)
        gc.collect()
        clock = StepClock()
        out = workload.unit(clock)
        times[kind].append(clock.times)
        if kind != "plain":
            tracer.remove()
        ledger.record(workload.check_unit(out))
        work = workload.work(out)
        first_work = first_work or work
        ledger.record([("work repeats", work == first_work)])
        host.sample()
        return out

    kinds = ("plain", "timed") if tracer else ("plain",)
    while True:
        for kind in kinds:
            out = one_unit(kind)
        spent = time.perf_counter() - t_start
        if len(times["plain"]) >= MIN_UNITS and spent * (1 + 1 / len(times["plain"])) > seconds:
            break
    if tracer:
        out = one_unit("peak")
    return times["plain"], times["timed"], out, first_work


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, setup_s, _ = set_up(args.workload, args.seed)
        print(repr(setup_s))
        return 0

    workload, setup_s, tracer = set_up(args.workload, args.seed, tracer=bool(args.trace))
    from hostspeed import HostSpeed

    host = HostSpeed()
    host.sample()
    own_setup = (setup_s, host.slowdown())
    host.reset()
    ledger = Ledger()
    plain, traced, last_out, work = run_units(workload, args.seconds, ledger, host, tracer)
    slowdown = host.slowdown()
    if tracer:
        tracer.install("check")
    ledger.record(workload.check_run())
    if tracer:
        tracer.remove()

    facts = host_facts(args.seed)
    raw_wall_s = fastest_unit(plain)
    wall_s = raw_wall_s / slowdown
    totals = [sum(u.values()) for u in plain]
    lines = [f"workload {args.workload}  " + "  ".join(f"{k}={v}" for k, v in facts.items()),
             f"units {len(plain)} checks {ledger.attempted} "
             f"unit times {[round(t, 4) for t in totals]} median {statistics.median(totals):.4f}",
             f"fastest unit {raw_wall_s:.4f} s; host slowdown {slowdown:.4f} "
             f"(reference loops {[round(b * 1e3, 3) for b in host.best]} ms)",
             "work per unit " + json.dumps(work)]
    lines += [f"FAILED check: {label}" for label in ledger.failures]
    fail_ratio = len(ledger.failures) / ledger.attempted
    accuracy = getattr(workload, "accuracy", None)

    if tracer:
        from tracing import layer_metrics

        traced_s = fastest_unit(traced)
        overhead = traced_s - raw_wall_s
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["pde.fk_sup_error"] = (accuracy(last_out) if accuracy else 0.0, "abs")
        path = write_trace(args, facts, tracer, metrics, plain, traced)
        lines.append(f"traced unit {traced_s:.4f} untraced {raw_wall_s:.4f} "
                     f"overhead {overhead:.4f} s; spans -> {path.relative_to(ROOT)}")
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        setup_samples = probe_setups(args.workload, args.seed, host) + [own_setup]
        metrics = {
            "setup_s": (statistics.median(t / slow for t, slow in setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "pass_ratio": (1.0 - fail_ratio, "ratio"),
        }
        lines.append("setup_s samples (s, host slowdown) "
                     f"{[(round(t, 4), round(slow, 3)) for t, slow in setup_samples]}")
        lines.append(f"fail_ratio = {fail_ratio:.6g} ratio "
                     f"({len(ledger.failures)} of {ledger.attempted} checks)")
        if accuracy:
            lines.append(f"fk_sup_error = {accuracy(last_out):.6e} abs")
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]

    for line in lines:
        print(f"# {line}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(args, facts, tracer, metrics, plain, traced) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps({
        "meta": facts, "untraced_call_s": plain, "traced_call_s": traced,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": [vars(s) for s in tracer.spans],
    }, default=str))
    return path


def run_all(args) -> int:
    """Each workload in a fresh process; print every end-to-end metric by name and unit."""
    rc = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            rc = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"failed {result['failed']} of {result['attempted']} checks")
        for line in lines[:-1]:
            print("  " + line[2:])
        rc |= not result["correct"]
    return rc


if __name__ == "__main__":
    sys.exit(main())
