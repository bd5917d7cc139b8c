"""The four benchmark workloads.

Each workload builds what it reuses in `__init__` (timed as set-up), runs one
fixed-size unit of work in `unit` (timed), and checks a unit's outputs in
`check_unit` and the run as a whole in `check_run` (both untimed). A unit
makes each call into the program through `step(name, fn, *args)`, which times
that call alone; a name stands for the same call on the same inputs in every
unit of a run. Every call goes through a module attribute
(`walk.exit_time_stats`, not a name imported from it), so the tracer's shims
see it.

Inputs come only from the seed, and every unit of a run repeats them. The
amount of work in a unit does not depend on the seed, so the work counts
repeat exactly from run to run.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from gasketlab import bounds, bsde, gasket, harmonic, measures, pde, problems, walk

MIDPOINT_OPP_P1 = (Fraction(3, 4), Fraction(1, 4))
MC_SIGMAS = 5.0  # an MC estimate may sit this many standard errors from its reference


def mc_close(estimate, reference, stderr, rel_band):
    """|estimate - reference| within max(MC_SIGMAS standard errors, rel_band * |reference|)."""
    return abs(estimate - reference) <= max(MC_SIGMAS * stderr, rel_band * abs(reference))


class ExactCertify:
    """Fraction-only identities: energy tables, graph energy, Kusuoka masses."""

    name = "exact-certify"
    TRIPLES = 10
    WORD_LEN = 8
    IDENTITY_LEVEL = 7  # the Kusuoka identity and total are certified once per run
    BASIS = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))

    def __init__(self, seed: int):
        self.seed = seed
        self.g5 = gasket.build_level_graph(5)
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.TRIPLES):
            u = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                      for _ in range(3))
            word = "".join(str(int(x)) for x in rng.integers(1, 4, size=self.WORD_LEN))
            self.inputs.append((u, word))

    def unit(self, step) -> dict:
        triples = []
        for i, (u, word) in enumerate(self.inputs):
            extended = step(f"extend.{i}", harmonic.harmonic_extend_to_level, u, 5, self.g5)
            triples.append({
                "energy": step(f"energy.{i}", harmonic.harmonic_energy, u),
                "table6": step(f"table6.{i}", measures.energy_measure_table, u, 6),
                "table5": step(f"table5.{i}", measures.energy_measure_table, u, 5),
                "graph_energy": step(f"graph_energy.{i}", harmonic.graph_energy, self.g5, extended),
                "kusuoka": step(f"kusuoka_mass.{i}", measures.kusuoka_mass, word),
                "cell_energies": [step(f"cell_energy.{i}.{j}", harmonic.cell_energy_measure, e, word)
                                  for j, e in enumerate(self.BASIS)],
            })
        return {"triples": triples}

    def check_unit(self, out: dict) -> list[tuple[str, bool]]:
        checks = []
        for t in out["triples"]:
            t6, t5 = t["table6"].masses, t["table5"].masses
            checks += [
                ("energy table total", t["table6"].total() == t["energy"]),
                ("table cells sum to parents",
                 all(t5[w] == t6[w + "1"] + t6[w + "2"] + t6[w + "3"] for w in t5)),
                ("graph energy", t["graph_energy"] == t["energy"]),
                ("kusuoka mass = mean cell energy",
                 t["kusuoka"] == sum(t["cell_energies"], Fraction(0)) / 3),
            ]
        return checks

    def check_run(self) -> list[tuple[str, bool]]:
        levels = range(self.IDENTITY_LEVEL + 1)
        checks = [(f"kusuoka identity m={m}", measures.kusuoka_identity_check(m) == 0)
                  for m in levels]
        checks.append(("kusuoka total",
                       measures.kusuoka_measure(self.IDENTITY_LEVEL).total() == 1))
        return checks

    def work(self, out: dict) -> dict:
        return {"leaf_cells": self.TRIPLES * (3**6 + 3**5)}


class WalkMc:
    """Streaming MC at m = 5: reflected clock, killed exit time, weighted linear BSDE."""

    name = "walk-mc"
    LEVEL = 4
    PATHS = 50_000  # two default 25 000-path blocks per estimate
    QV_TIMES = (0.01, 0.02, 0.04)
    EXPINT_BETAS = (0.25, 0.5, 1.0)
    KILLED_HORIZON = 0.25  # ~2x the mean exit time: most path-steps are taken by dead paths
    WEIGHTED_HORIZON = 0.02
    LINEAR = (0.5, 0.3, 0.4)
    QV_BAND = 0.03  # relative bands beside the 5 SE ones
    EXIT_BAND = 0.02
    WEIGHTED_BAND = 0.02

    def __init__(self, seed: int):
        self.seed = seed
        self.g = gasket.build_level_graph(self.LEVEL)
        self.kernel = walk.build_step_kernel(self.g)
        self.start = self.g.index_by_coord[MIDPOINT_OPP_P1]
        a, b, c = self.LINEAR
        spec = problems.validate_problem_dict({
            "driver": {"name": "linear", "a": a, "b": b, "c": c},
            "terminal": {"name": "bump"},
            "duration": {"kind": "deterministic", "T": self.WEIGHTED_HORIZON},
        })
        _, self.linear_problem = problems.build_problem_pair(spec, self.LEVEL)
        self._exit_reference = None

    def _config(self, **kw) -> walk.WalkConfig:
        return walk.WalkConfig(level=self.LEVEL, path_count=self.PATHS, seed=self.seed, **kw)

    def unit(self, step) -> dict:
        qv = step("reflected", walk.ensemble_qv_snapshots,
                  self._config(horizon=max(self.QV_TIMES)), self.kernel, self.QV_TIMES, self.g)
        expint = {(b, t): float(np.exp(b * qv[t]).mean())
                  for b in self.EXPINT_BETAS for t in self.QV_TIMES}
        joint = step("fit_joint", bounds.fit_joint_constant, qv, expint)
        exit_stats = step("killed", walk.exit_time_stats,
                          self._config(horizon=self.KILLED_HORIZON, killed=True, start=self.start),
                          self.kernel, self.g)
        closed = step("closed_form", bsde.linear_closed_form,
                      *self.LINEAR, self.linear_problem, self.kernel, self.g)
        weighted = step("weighted", bsde.linear_closed_form,
                        *self.LINEAR, self.linear_problem, self.kernel, self.g,
                        mc_starts=[self.start], mc_paths=self.PATHS, seed=self.seed)
        return {
            "qv": {t: (float(s.mean()), float(s.std(ddof=1) / math.sqrt(len(s))))
                   for t, s in qv.items()},
            "bounds_hold": joint["moments"]["holds"] and joint["mittag_leffler"]["holds"],
            "exit": exit_stats,
            "closed_y0": float(closed["Y0"][self.start]),
            "weighted": weighted["mc"][self.start],
        }

    def exit_reference(self) -> dict:
        """Exact law of the exit step from the start, by propagating the killed chain.

        Returns the mean exit time conditional on exiting by the horizon (what
        `exit_time_stats` estimates) and the unconditional mean.
        """
        if self._exit_reference is None:
            k = self.kernel
            rows = np.repeat(np.arange(k.n_vertices), k.deg)
            cols = np.concatenate([k.nbr[x, :d] for x, d in enumerate(k.deg)])
            step = sp.csr_matrix((1.0 / k.deg[rows], (rows, cols)),
                                 shape=(k.n_vertices, k.n_vertices)).T.tocsr()
            interior = ~k.is_boundary
            horizon_steps = int(round(self.KILLED_HORIZON / k.dt))
            p = np.zeros(k.n_vertices)
            p[self.start] = 1.0
            alive = 1.0
            mean_steps = 0.0  # sum over n >= 0 of P(exit > n)
            hit_mass = hit_steps = 0.0  # exits by the horizon: mass and step moment
            n = 0
            while alive > 1e-15:
                mean_steps += alive
                p = step @ p
                p[~interior] = 0.0
                n += 1
                exited, alive = alive - p.sum(), p.sum()
                if n <= horizon_steps:
                    hit_mass += exited
                    hit_steps += n * exited
            self._exit_reference = {
                "conditional_mean": hit_steps / hit_mass * k.dt,
                "mean": mean_steps * k.dt,
            }
        return self._exit_reference

    def check_unit(self, out: dict) -> list[tuple[str, bool]]:
        checks = [(f"E_mu<W>_{t} = {t}", mc_close(m, t, se, self.QV_BAND))
                  for t, (m, se) in out["qv"].items()]
        checks.append(("moment and Mittag-Leffler bounds hold", out["bounds_hold"]))
        ex = out["exit"]
        checks.append(("exit time vs exact law",
                       mc_close(ex["mean"], self.exit_reference()["conditional_mean"],
                                ex["stderr"], self.EXIT_BAND)))
        w = out["weighted"]
        checks.append(("weighted MC vs closed form",
                       mc_close(w["estimate"], out["closed_y0"], w["stderr"], self.WEIGHTED_BAND)))
        return checks

    def check_run(self) -> list[tuple[str, bool]]:
        exact_mean = walk.exact_exit_steps(self.kernel)[self.start] * self.kernel.dt
        law_mean = self.exit_reference()["mean"]
        closed = bsde.linear_closed_form(*self.LINEAR, self.linear_problem, self.kernel, self.g)
        dp = bsde.solve_dp(self.linear_problem, self.kernel, self.g)
        return [
            ("exact_exit_steps vs propagated law", abs(exact_mean - law_mean) <= 1e-9 * exact_mean),
            ("closed form vs solve_dp", float(np.abs(closed["Y0"] - dp.Y[0]).max()) <= 1e-9),
            ("walk output identical with 1 and 2 workers", self._workers_identical()),
        ]

    def _workers_identical(self) -> bool:
        """Three 1000-path blocks, so workers=2 reaches the process pool."""
        g = gasket.build_level_graph(3)
        kernel = walk.build_step_kernel(g)
        runs = []
        for workers in (1, 2):
            cfg = walk.WalkConfig(level=3, horizon=0.2, path_count=3_000, seed=self.seed,
                                  block_size=1_000, workers=workers)
            ens = walk.simulate_paths(cfg, kernel, g)
            runs.append(b"".join(a.tobytes() for a in (ens.vertices, ens.dW, ens.dqv, ens.hit_step)))
        return runs[0] == runs[1]

    def work(self, out: dict) -> dict:
        def steps(horizon):
            return int(round(horizon / self.kernel.dt))

        return {
            "path_steps": self.PATHS * (steps(max(self.QV_TIMES)) + steps(self.KILLED_HORIZON)),
            "mc_path_steps": self.PATHS * steps(self.WEIGHTED_HORIZON),
            "closed_form_layers": 2 * steps(self.WEIGHTED_HORIZON),
        }


class FkLadder:
    """Criterion 09's Feynman-Kac ladder: sin driver, bump terminal, killed, levels 3-5.

    A unit makes, level by level, the calls `pde.feynman_kac_check` makes
    (graph, kernel, problem pair, weak PDE, DP), each timed on its own, and
    compares the two fields at the probes as it does; `check_run` requires
    `feynman_kac_check` itself to give the same sup errors.

    The killed problem is used because reflected problems in `pde` get Dirichlet
    data imposed anyway; that known defect is neither measured nor hidden here.
    """

    name = "fk-ladder"
    LEVELS = (3, 4, 5)
    PROBE_LEVEL = 2
    # T = 1/4 rather than criterion 09's 1, so that no call takes much more
    # than half a second; the probe times scale with it
    HORIZON = 0.25
    PROBE_TIMES = (0.0, 0.0625, 0.125, 0.1875)

    def __init__(self, seed: int):
        self.seed = seed  # the ladder has no random input
        self.spec = problems.validate_problem_dict({
            "driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
            "terminal": {"name": "bump"},
            "duration": {"kind": "killed", "T": self.HORIZON},
        })
        probe_graph = gasket.build_level_graph(self.PROBE_LEVEL)
        self.probe_coords = [(v.x, v.y) for v in probe_graph.vertices]
        self._first_sups = None

    def _make_problem(self, m):
        return problems.build_problem_pair(self.spec, m)

    def unit(self, step) -> dict:
        sups = []
        for m in self.LEVELS:
            g = step(f"graph.m{m}", gasket.build_level_graph, m)
            kernel = step(f"kernel.m{m}", walk.build_step_kernel, g)
            wp, bp = step(f"problem.m{m}", self._make_problem, m)
            sol_pde = step(f"pde.m{m}", pde.solve_weak_pde, wp, g)
            sol_bsde = step(f"dp.m{m}", bsde.solve_dp, bp, kernel, g)
            ids = np.array([g.index_by_coord[c] for c in self.probe_coords])
            sups.append(max(
                float(np.abs(sol_pde.u[int(round(t / sol_pde.time_step))][ids]
                             - sol_bsde.Y[int(round(t / kernel.dt))][ids]).max())
                for t in self.PROBE_TIMES))
        return {"sup_errors": sups}

    def check_unit(self, out: dict) -> list[tuple[str, bool]]:
        sups = out["sup_errors"]
        if self._first_sups is None:
            self._first_sups = sups
        return [
            ("sup errors strictly decreasing", all(b < a for a, b in zip(sups, sups[1:]))),
            ("ladder repeats exactly", sups == self._first_sups),
        ]

    def check_run(self) -> list[tuple[str, bool]]:
        report = pde.feynman_kac_check(self._make_problem, self.LEVELS, self.PROBE_TIMES,
                                       probe_level=self.PROBE_LEVEL, horizon=self.HORIZON)
        return [("feynman_kac_check gives the unit's sup errors",
                 report["sup_errors"] == self._first_sups)]

    def work(self, out: dict) -> dict:
        layers = sum(int(round(self.HORIZON / walk.step_duration(m))) for m in self.LEVELS)
        return {"dp_layers": layers, "pde_layers": layers}

    @staticmethod
    def accuracy(out: dict) -> float:
        return out["sup_errors"][-1]


class PicardPaths:
    """Criterion 08 at m = 4: recorded paths, Picard from zero and from the DP seed."""

    name = "picard-paths"
    LEVEL = 3
    PATHS = 1500
    SWEEPS = 14  # the two starts then agree to ~1e-11, inside the 1e-9 check

    def __init__(self, seed: int):
        self.seed = seed
        self.g = gasket.build_level_graph(self.LEVEL)
        self.kernel = walk.build_step_kernel(self.g)
        spec = problems.validate_problem_dict({
            "driver": {"name": "zero"}, "terminal": {"name": "bump"},
            "duration": {"kind": "deterministic", "T": 1.0},
        })
        _, self.driverless = problems.build_problem_pair(spec, self.LEVEL)
        psi = problems.make_terminal(spec)(self.g)
        self.problem = bsde.BsdeProblem(
            g=lambda t, x, y: -0.5 * y,                 # K0/2 = 1/2 in y
            f=lambda t, x, y, z: 0.5 * np.sin(y) + z,   # K0/2 in y, K1 = 1 in z
            terminal_psi=psi, horizon=1.0, k0=1.0, k1=1.0,
        )
        self.weights = bsde.BetaWeights(36.0, 36.0)
        self.bound = 3 * math.sqrt(2) * bsde.contraction_constant(1.0, 1.0, self.weights)

    def unit(self, step) -> dict:
        cfg = walk.WalkConfig(level=self.LEVEL, horizon=1.0, path_count=self.PATHS,
                              seed=self.seed)
        paths = step("record", walk.simulate_paths, cfg, self.kernel, self.g)
        seed_field = step("dp_seed", bsde.solve_dp, self.driverless, self.kernel, self.g).Y
        # stop_rel=0 runs all SWEEPS unless an iterate repeats exactly, so the
        # sweep count does not depend on the paths
        runs = [step(f"picard.{label}", bsde.picard_iterate, self.problem, self.kernel,
                     self.SWEEPS, paths, self.weights, self.g, initial=init, stop_rel=0.0)
                for label, init in (("zero", None), ("dp", seed_field))]
        y, z = runs[0]["final"]
        norm = step("vbeta_norm", bsde.vbeta_norm, paths, y, z, self.weights)
        return {
            "distances": [r["distances"] for r in runs],
            "ratios": [r["ratios"] for r in runs],
            "final_gap": float(np.abs(runs[0]["final"][0] - runs[1]["final"][0]).max()),
            "norm": norm,
        }

    def check_unit(self, out: dict) -> list[tuple[str, bool]]:
        checks = []
        for label, dist, ratios in zip(("zero", "DP seed"), out["distances"], out["ratios"]):
            floor = 1e-12 * dist[0]  # below it, ratios are roundoff
            meaningful = [r for r, d in zip(ratios, dist[1:]) if d > floor]
            checks.append((f"Picard ratios <= 3 sqrt2 K_beta from {label}",
                           bool(meaningful) and all(r <= self.bound for r in meaningful)))
        checks.append(("two initialisations agree", out["final_gap"] <= 1e-9))
        checks.append(("V^beta norm finite and positive", 0.0 < out["norm"] < math.inf))
        return checks

    def check_run(self) -> list[tuple[str, bool]]:
        return []

    def work(self, out: dict) -> dict:
        layers = int(round(1.0 / self.kernel.dt))
        return {"path_steps": self.PATHS * layers, "dp_layers": layers,
                "picard_sweeps": sum(len(d) for d in out["distances"])}


WORKLOADS = {w.name: w for w in (ExactCertify, WalkMc, FkLadder, PicardPaths)}
