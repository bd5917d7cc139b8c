"""Weak-form solver for the measure-valued semi-linear terminal-boundary
problem, and the Feynman-Kac cross-check against the chain BSDE.

Weak form per interior test vertex (hat basis vanishing on V_0):

    (u^k - u^{k+1})/h * mu_x - E^(m)(u^k, hat_x)
        = -g(t_k, x, u^{k+1}) mu_x - f(t_k, x, u^{k+1}, z(u^{k+1})) nu_x,

with the energy term implicit and the nonlinearities explicit (IMEX; the
energy operator is stiff, its spectral gap grows like 5^m). The mu and nu
vertex masses are the cell masses split equally over the three corners; the
nu-loaded term is assembled from cell data only, never from a mu/nu density.

The f-term's gradient argument is sqrt(2) times the energy-isometric cell
gradient: the chain's covariation variable Z carries twice the isometric
energy density because the clock's Revuz measure is nu while quadratic
variation flows at rate 2 x energy measure. Without the factor the two
solvers converge to different limits; with it the cross-solver gap closes
under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bsde import _terminal_values, solve_dp
from .errors import UsageError
from .gasket import LevelGraph, build_level_graph
from .harmonic import CellGradientTables
from .measures import kusuoka_measure
from .walk import build_step_kernel, field_layers, layer_at, step_duration

BROWNIAN_GRADIENT_SCALE = math.sqrt(2.0)


def assemble_masses(g: LevelGraph) -> tuple[list[Fraction], list[Fraction]]:
    """Exact mu and nu vertex masses: each cell mass split equally over its
    three corners. Both vectors sum to 1.

    A vertex sums integer numerators, its cell count over 3^(m+1) and its
    Kusuoka numerators over 54 * 15^m, and one Fraction is built per mass.
    """
    m = g.level
    nu_den = 18 * 15**m  # a common denominator of every level-m Kusuoka mass
    cells = [0] * g.n_vertices
    nu_num = [0] * g.n_vertices
    for w, mass in kusuoka_measure(m).masses.items():
        num = mass.numerator * (nu_den // mass.denominator)
        for c in g.cells[w]:
            cells[c] += 1
            nu_num[c] += num
    return ([Fraction(k, 3 ** (m + 1)) for k in cells],
            [Fraction(k, 3 * nu_den) for k in nu_num])


@dataclass
class WeakPdeProblem:
    """Reaction pair, boundary/terminal data, horizon and discretization."""

    g: callable                  # (t, x_ids, u) -> array, mu-loaded
    f: callable                  # (t, x_ids, u, grad) -> array, nu-loaded
    terminal_psi: object         # array over vertices or callable graph->array
    horizon: float
    level: int
    boundary_phi: object = None  # callable t -> (3,) values on (p1,p2,p3)
    time_step: float | None = None
    lip_g: float | None = None
    lip_f: float | None = None

    def __post_init__(self):
        if self.boundary_phi is None:
            self.boundary_phi = lambda t: np.zeros(3)
        if self.time_step is None:
            self.time_step = step_duration(self.level)


@dataclass
class WeakPdeSolution:
    u: np.ndarray                  # (K+1, V)
    gradients: np.ndarray          # (K+1, ncells), isometric normalization
    residuals: np.ndarray          # (K,) IMEX lag per layer
    level: int
    time_step: float
    cell_words: list[str]
    meta: dict = field(default_factory=dict)


def stiffness_matrix(g: LevelGraph) -> sp.csr_matrix:
    """S[i,j] = E^(m)(hat_i, hat_j) = (1/2)(5/3)^m (D - Adj)."""
    con = 0.5 * (5.0 / 3.0) ** g.level
    n = g.n_vertices
    rows, cols, vals = [], [], []
    for a, b in g.edges:
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        vals += [-con, -con, con, con]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def solve_weak_pde(problem: WeakPdeProblem, g: LevelGraph | None = None) -> WeakPdeSolution:
    """Backward IMEX solve of the weak form, every layer kept.

    CapacityError, before anything is assembled, when a (K+1, V) field
    passes walk.MAX_RECORDED_ENTRIES.
    """
    if g is None:
        g = build_level_graph(problem.level)
    if g.level != problem.level:
        raise UsageError("graph level does not match problem level")
    h = problem.time_step
    for lip in (problem.lip_g, problem.lip_f):
        if lip is not None and h * lip >= 1:
            raise UsageError("time step violates the h*Lip < 1 guard")
    n = g.n_vertices
    K = field_layers(problem.horizon, h, n)

    mu_ex, nu_ex = assemble_masses(g)
    mu = np.array([float(x) for x in mu_ex])
    nu = np.array([float(x) for x in nu_ex])
    S = stiffness_matrix(g)
    tables = CellGradientTables(g)
    ncells = len(tables.words)
    # cell -> corner incidence; row v sums v's cells in cell order
    incidence = sp.csr_matrix(
        (np.ones(3 * ncells), (tables.corners.ravel(), np.repeat(np.arange(ncells), 3))),
        shape=(n, ncells))
    nu_around = incidence @ tables.nu

    def zbar(grads_k):  # nu-weighted vertex average of the scaled cell gradients
        return incidence @ (tables.nu * (BROWNIAN_GRADIENT_SCALE * grads_k)) / nu_around

    xs = np.arange(n)

    def load(t, u, z):
        return problem.g(t, xs, u) * mu + problem.f(t, xs, u, z) * nu

    bnd = np.array(g.boundary_ids)
    inter = np.ones(n, dtype=bool)
    inter[bnd] = False

    A = sp.csr_matrix(sp.diags(mu / h) + S)
    A_ii = A[inter][:, inter].tocsc()
    A_ib = A[inter][:, ~inter].tocsc()
    try:
        lu = spla.splu(A_ii)
    except RuntimeError as exc:  # pragma: no cover
        raise UsageError(f"assembly failed: {exc}") from exc

    psi = _terminal_values(problem.terminal_psi, g, n)
    u = np.empty((K + 1, n))
    grads = np.empty((K + 1, ncells))
    residuals = np.empty(K)
    u[K] = psi
    phi_T = np.asarray(problem.boundary_phi(problem.horizon), dtype=float)
    # compatibility recorded, not enforced: the terminal map's case split
    # allows phi(T,.) != psi on V_0
    mismatch = float(np.abs(psi[bnd] - phi_T).max())
    u[K][bnd] = phi_T
    grads[K] = tables.gradients(u[K])

    z = zbar(grads[K])
    for k in range(K - 1, -1, -1):
        t = k * h
        un = u[k + 1]
        uk = u[k]
        uk[bnd] = problem.boundary_phi(t)
        uk[inter] = lu.solve((mu / h * un + load(t, un, z))[inter] - A_ib @ uk[~inter])
        grads[k] = tables.gradients(uk)

        # IMEX lag: defect when the nonlinearity is re-evaluated at u^k; the
        # average at u^k is also the next layer's driver argument
        z = zbar(grads[k])
        res = (mu / h) * (uk - un) + (S @ uk) - load(t, uk, z)
        residuals[k] = float(np.abs(res[inter]).max())

    return WeakPdeSolution(
        u=u, gradients=grads, residuals=residuals, level=g.level,
        time_step=h, cell_words=tables.words,
        meta={"horizon": problem.horizon, "realized_horizon": K * h,
              "terminal_boundary_mismatch": mismatch},
    )


def require_killed(duration: str) -> None:
    """UsageError unless duration is "killed": the weak solver pins phi on V_0."""
    if duration != "killed":
        raise UsageError(f"the weak solver pins phi on V_0: it solves killed problems, "
                         f"not {duration} ones")


def feynman_kac_check(make_problem, levels, probe_times, probe_level: int = 2,
                      horizon: float | None = None) -> dict:
    """Cross-validate the weak solver against the chain BSDE on a level ladder.

    make_problem(level) must return a pair (WeakPdeProblem, BsdeProblem) for
    the same data. Probes are the vertices of V_{probe_level} (present at all
    deeper levels) times the given probe times; the field value Y at layer k
    of the killed DP run is the BSDE value started at time t_k. A probe time
    outside [0, T] of a level's problem raises UsageError, and so does a
    horizon, when given, that differs from T by more than 1e-12 relative,
    and so does a deterministic duration (see require_killed).
    """
    probe_graph = build_level_graph(probe_level)
    probe_coords = [(v.x, v.y) for v in probe_graph.vertices]
    table = {}
    sups = []
    for m in levels:
        if m < probe_level:
            raise UsageError("probe level exceeds a ladder level")
        wp, bp = make_problem(m)
        require_killed(bp.duration)
        T = min(wp.horizon, bp.horizon)
        if horizon is not None and abs(horizon - T) > 1e-12 * T:
            raise UsageError(f"horizon {horizon} differs from the level-{m} problem horizon {T}")
        outside = [t for t in probe_times if not 0 <= t <= T]
        if outside:
            raise UsageError(f"probe times {outside} lie outside [0, {T}]")
        g = build_level_graph(m)
        kernel = build_step_kernel(g)
        sol_pde = solve_weak_pde(wp, g)
        sol_bsde = solve_dp(bp, kernel, g)
        ids = np.array([g.index_by_coord[c] for c in probe_coords])
        errs = {}
        worst = 0.0
        for t in probe_times:
            k_pde = layer_at(t, sol_pde.time_step, wp.horizon)
            k = layer_at(t, kernel.dt, bp.horizon)
            diff = np.abs(sol_pde.u[k_pde][ids] - sol_bsde.Y[k][ids])
            for pid, d in zip(ids, diff):
                errs[(t, int(pid))] = float(d)
            worst = max(worst, float(diff.max()))
        table[m] = errs
        sups.append(worst)
    return {
        "levels": list(levels),
        "sup_errors": sups,
        "errors": table,
        "decreasing": all(sups[i + 1] < sups[i] for i in range(len(sups) - 1)),
    }
