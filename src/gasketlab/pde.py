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

A layer is three compiled sparse products, with operators assembled once per
solve (solve_weak_pde): B for the right-hand side, CellGradientTables for the
rank-2 cell gradients and W for their interior average. The layers run on
the BSDE solvers' backward loop, bsde._backward, which owns the loop, phi
on V_0 and the checks after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .bsde import (BsdeProblem, _backward, _block_rows, _csr_product, _pinned_terminal,
                   _terminal_values, solve_dp)
from .errors import UsageError
from .exact import P_INT, Y_INT, cell_leaves, fractions_over
from .gasket import LevelGraph, build_level_graph
from .harmonic import CellGradientTables
# not called here: perfbench's tracer shims pde.kusuoka_measure by name
from .measures import kusuoka_measure  # noqa: F401
from .walk import build_step_kernel, field_layers, layer_at, step_duration

BROWNIAN_GRADIENT_SCALE = math.sqrt(2.0)


def _mass_numerators(g: LevelGraph) -> tuple[np.ndarray, int, np.ndarray, int]:
    """(mu numerators, mu denominator, nu numerators, nu denominator): per
    vertex its cell count over 3^(m+1), and the int64 Y-route sums of its
    cells (as kusuoka_measure reads them) over 54 * 15^m. Below 2^53, as a
    mass is at most 1: a float division gives float(Fraction)'s bits."""
    m = g.level
    words, cols = cell_leaves(m, P_INT, Y_INT)
    corners = np.array([g.cells[w] for w in words], dtype=np.int64)
    nu_num = np.zeros(g.n_vertices, dtype=np.int64)
    np.add.at(nu_num, corners, (cols * cols).sum(axis=(1, 2))[:, None])
    cells = np.bincount(corners.ravel(), minlength=g.n_vertices)
    nu_den = 3 * 18 * 15**m
    assert nu_den < 2**53  # 7.0e15 at MAX_LEVEL
    return cells, 3 ** (m + 1), nu_num, nu_den


def assemble_masses(g: LevelGraph) -> tuple[list[Fraction], list[Fraction]]:
    """Exact mu and nu vertex masses: each cell mass split equally over its
    three corners. Both vectors sum to 1. One Fraction is built per mass
    from _mass_numerators' integers.
    """
    cells, mu_den, nu_num, nu_den = _mass_numerators(g)
    return fractions_over(cells, mu_den), fractions_over(nu_num, nu_den)


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
    a, b = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    # per edge the entries (a,b), (b,a), (a,a), (b,b), summed in edge order
    return sp.csr_matrix((np.tile([-con, -con, con, con], len(a)),
                          (np.column_stack([a, b, a, b]).ravel(), np.column_stack([b, a, a, b]).ravel())),
                         shape=(g.n_vertices, g.n_vertices))


def solve_weak_pde(problem: BsdeProblem, g: LevelGraph,
                   time_step: float | None = None) -> WeakPdeSolution:
    """Backward IMEX solve of the weak form on g's level, every layer kept;
    the step h defaults to walk.step_duration(g.level), and h (K0 + K1) < 1.

    V_0 is ids 0-2, the interior 3:. bsde._pinned_terminal gives the
    terminal row, and bsde._backward runs the loop with phi(t_k) on row k's
    V_0 before layer k, which reads it. A
    layer makes three products through bsde._csr_product: B on the window
    u[k:k+2] gives the interior right-hand side (mu/h) u^{k+1} - A_ib
    phi(t_k), to which g mu and f nu are added; A_ii = diag(mu/h) + S_ii is
    exactly symmetric, so its faster transposed SuperLU solve gives u^k;
    CellGradientTables.gradients takes its cell gradients, and W, the
    sqrt(2)-scaled nu-weighted average of the two cells around each interior
    vertex, the next layer's driver argument z. The IMEX residuals come
    after the loop in row blocks (_imex_residuals);
    meta["max_imex_residual"] is the largest.

    UsageError for a duration other than "killed" (phi is pinned on V_0) or
    at level 0, whose vertices all lie on V_0, and CapacityError when a
    (K+1, V) field passes walk.MAX_RECORDED_ENTRIES, all before anything is
    assembled. UsageError names a driver g or f whose result does not have
    its input's shape, and non-finite phi, before any layer; the loop runs
    with numpy's floating-point warnings off, and NumericOverflowError then
    names the first layer where u or the gradients are not finite.
    """
    if problem.duration != "killed":
        raise UsageError(f"the weak solver pins phi on V_0: it solves killed problems, "
                         f"not {problem.duration} ones")
    if g.level < 1:
        raise UsageError("V_0 has no interior vertex to solve for; solve at level 1 or deeper")
    assert g.boundary_ids == (0, 1, 2)
    h = step_duration(g.level) if time_step is None else time_step
    if h * (problem.k0 + problem.k1) >= 1:
        raise UsageError("time step violates the h*(K0 + K1) < 1 guard")
    n = g.n_vertices
    K = field_layers(problem.horizon, h, n)

    cells, mu_den, nu_num, nu_den = _mass_numerators(g)
    mu, nu = cells / mu_den, nu_num / nu_den  # exact operands: the bits of float(Fraction)
    S = stiffness_matrix(g)
    tables = CellGradientTables(g)
    W = _interior_average(tables, n)
    A = sp.csr_matrix(sp.diags(mu / h) + S)
    from scipy.sparse.linalg import splu  # imported here: keeps the package import light

    try:
        lu = splu(A[3:, 3:].tocsc())
    except RuntimeError as exc:  # pragma: no cover
        raise UsageError(f"assembly failed: {exc}") from exc
    # columns: u^k's V_0 entries, then u^{k+1}'s interior ones
    rhs_of, rhs = _csr_product(sp.hstack([-A[3:, :3], sp.csr_matrix((n - 3, n)),
                                          sp.diags(mu[3:] / h, format="csr")], format="csr"))
    average, z = _csr_product(W)

    psi = _terminal_values(problem.terminal_psi, g, n)
    u_K = _pinned_terminal(problem, g, n, psi)
    # compatibility recorded, not enforced: the terminal map's case split
    # allows phi(T,.) != psi on V_0
    mismatch = float(np.abs(psi[:3] - u_K[:3]).max())
    grads_K = np.empty(len(tables.words))
    tables.gradients(u_K, out=grads_K)
    average(grads_K)

    ii, mu_i, nu_i = np.arange(3, n), mu[3:], nu[3:]
    _driver_values("g", problem.g((K - 1) * h, ii, u_K[3:]), n - 3)
    _driver_values("f", problem.f((K - 1) * h, ii, u_K[3:], z), n - 3)

    def layer(k, t, u, grads):
        ui = u[k + 1, 3:]
        rhs_of(u[k:k + 2].ravel())
        np.add(rhs, problem.g(t, ii, ui) * mu_i, out=rhs)
        np.add(rhs, problem.f(t, ii, ui, z) * nu_i, out=rhs)
        u[k, 3:] = lu.solve(rhs, trans="T")
        tables.gradients(u[k], out=grads[k])
        average(grads[k])

    u, grads = _backward(problem, h, layer, {"u": u_K, "gradients": grads_K}, pin_first=True)
    residuals = _imex_residuals(problem, h, u, grads, mu, nu, S, W)
    return WeakPdeSolution(
        u=u, gradients=grads, residuals=residuals, level=g.level,
        time_step=h, cell_words=tables.words,
        meta={"horizon": problem.horizon, "realized_horizon": K * h,
              "terminal_boundary_mismatch": mismatch,
              "max_imex_residual": float(residuals.max())},
    )


def _interior_average(tables: CellGradientTables, n: int) -> sp.csr_matrix:
    """W: z = W @ grads at the interior vertices 3:, the nu-weighted average
    of the sqrt(2)-scaled gradients of the two cells around each."""
    cells = np.arange(len(tables.words)).repeat(3)
    rows = tables.corners.ravel() - 3
    rows, cells = rows[rows >= 0], cells[rows >= 0]
    assert (np.bincount(rows) == 2).all(), "an interior vertex lies in two cells"
    around = np.bincount(rows, weights=tables.nu[cells])
    return sp.csr_matrix((BROWNIAN_GRADIENT_SCALE * tables.nu[cells] / around[rows], (rows, cells)),
                         shape=(n - 3, len(tables.words)))


def _driver_values(name: str, values, points: int):
    """values, or UsageError naming the driver unless it gave one per point."""
    if np.shape(values) != (points,):
        raise UsageError(f"driver {name} returned shape {np.shape(values)} for {points} "
                         "points; PDE drivers are elementwise")
    return values


def _imex_residuals(problem: BsdeProblem, h: float, u, grads, mu, nu, S, W) -> np.ndarray:
    """IMEX lag per layer k < K: the largest interior defect

        (mu/h)(u^k - u^{k+1}) + S u^k - g(t_k, x, u^k) mu - f(t_k, x, u^k, z(u^k)) nu

    when the nonlinearity is re-evaluated at u^k, z(u^k) = W @ grads[k] being
    the average of layer k's gradients. Rows go in the blocks of
    bsde._block_rows, as _backward's finite check does, each with one call
    of g and of f on flat arrays (drivers are elementwise, t included) and
    one product each with S and W, so no (K+1, V) array is made; every entry
    is summed in the order of the per-layer form.
    """
    K, n = u.shape[0] - 1, u.shape[1]
    n_i = n - 3
    mu_h_i, mu_i, nu_i = (mu / h)[3:], mu[3:], nu[3:]
    S_i = S[3:]
    rows = _block_rows(K, n)
    xs = np.tile(np.arange(3, n), rows)
    out = np.empty(K)
    for lo in range(0, K, rows):
        hi = min(K, lo + rows)
        r = hi - lo
        block = u[lo:hi]
        ui = block[:, 3:]
        ts = np.repeat(np.arange(lo, hi) * h, n_i)
        flat_u, x = ui.ravel(), xs[:r * n_i]
        z = (W @ grads[lo:hi].T).T.ravel()
        load = (_driver_values("g", problem.g(ts, x, flat_u), r * n_i).reshape(r, n_i) * mu_i
                + _driver_values("f", problem.f(ts, x, flat_u, z), r * n_i).reshape(r, n_i) * nu_i)
        res = mu_h_i * (ui - u[lo + 1:hi + 1, 3:])
        res += (S_i @ block.T).T
        res -= load
        np.abs(res, out=res)
        res.max(axis=1, out=out[lo:hi])
    return out


def feynman_kac_check(make_problem, levels, probe_times, probe_level: int = 2,
                      horizon: float | None = None) -> dict:
    """Cross-validate the weak solver against the chain BSDE on a level ladder.

    make_problem(level) returns a pair of BsdeProblems, for the weak solver
    and the DP. Probes are the vertices of V_{probe_level} (present at all
    deeper levels) times the given probe times; the field value Y at layer k
    of the killed DP run is the BSDE value started at time t_k. A callable
    terminal that both problems share is evaluated once per level. UsageError
    for a pair whose horizons or durations differ, a probe time outside [0, T],
    a horizon, when given, that differs from T by more than 1e-12 relative,
    a deterministic duration and a level-0 rung (see solve_weak_pde).
    """
    probe_graph = build_level_graph(probe_level)
    probe_coords = [(v.x, v.y) for v in probe_graph.vertices]
    table = {}
    sups = []
    for m in levels:
        if m < probe_level:
            raise UsageError("probe level exceeds a ladder level")
        wp, bp = make_problem(m)
        if (wp.horizon, wp.duration) != (bp.horizon, bp.duration):
            raise UsageError(f"the level-{m} problem pair differs in horizon or duration")
        T = bp.horizon
        if horizon is not None and abs(horizon - T) > 1e-12 * T:
            raise UsageError(f"horizon {horizon} differs from the level-{m} problem horizon {T}")
        outside = [t for t in probe_times if not 0 <= t <= T]
        if outside:
            raise UsageError(f"probe times {outside} lie outside [0, {T}]")
        g = build_level_graph(m)
        kernel = build_step_kernel(g)
        if callable(wp.terminal_psi) and wp.terminal_psi is bp.terminal_psi:  # evaluated once
            psi = _terminal_values(wp.terminal_psi, g, g.n_vertices)
            wp, bp = (replace(p, terminal_psi=psi) for p in (wp, bp))
        sol_pde = solve_weak_pde(wp, g)
        sol_bsde = solve_dp(bp, kernel, g)
        ids = np.array([g.index_by_coord[c] for c in probe_coords])
        errs = {}
        worst = 0.0
        for t in probe_times:
            k_pde = layer_at(t, sol_pde.time_step, T)
            k = layer_at(t, kernel.dt, T)
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
