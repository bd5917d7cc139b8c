"""Backward-SDE solvers on the level-m chain.

Conditional expectations are exact finite sums over the <=4 neighbors, so the
only error sources are the time discretization and (for the MC route) path
sampling. The control variable is extracted as the covariation ratio

    Z_k(x) = E[Y_{k+1} dW | x] / dqv(x),

the discrete transcription of the martingale representation against the
walk's clock.

Drivers are Markovian: g(t, x, y) and f(t, x, y, z) receive the vertex-index
array and vectorized y, z arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import DeclaredConstantError, SchemeError, UsageError
from .gasket import vertex_count
from .walk import PathEnsemble, StepKernel, WalkConfig, _run_blocks, heavy_tailed, layer_count


@dataclass(frozen=True)
class BetaWeights:
    b0: float
    b1: float

    def __post_init__(self):
        if self.b0 < 1 or self.b1 < 1:
            raise UsageError("beta weights must both be >= 1")


def contraction_constant(k0: float, k1: float, w: BetaWeights) -> float:
    """K_beta = sqrt(K0^2/beta0 + K1^2/beta1)."""
    return math.sqrt(k0 * k0 / w.b0 + k1 * k1 / w.b1)


@dataclass
class BsdeProblem:
    """Driver pair, terminal data and duration for the chain BSDE.

    duration 'deterministic' runs on the reflected chain to horizon T;
    'killed' runs to T ^ sigma_V0 with boundary rows pinned to phi(t).
    terminal_psi: value array over vertices (or callable graph -> array).
    boundary_phi: callable t -> (3,) values at (p1, p2, p3).
    """

    g: callable
    f: callable
    terminal_psi: object
    horizon: float
    k0: float = 0.0
    k1: float = 0.0
    duration: str = "deterministic"
    boundary_phi: object = None
    kappa0: float | None = None
    kappa1: float | None = None

    def __post_init__(self):
        if self.k0 < 0 or self.k1 < 0:
            raise UsageError("Lipschitz constants must be nonnegative")
        if self.duration not in ("deterministic", "killed"):
            raise UsageError("duration must be 'deterministic' or 'killed'")
        if self.duration == "killed" and self.boundary_phi is None:
            self.boundary_phi = lambda t: np.zeros(3)

    def check_beta_margins(self, w: BetaWeights) -> None:
        if self.kappa0 is None or self.kappa1 is None:
            return
        if not (w.b0 - self.kappa0 > 0 and w.b1 - self.kappa1 + self.k1**2 / 2 > 0):
            raise UsageError("declared kappas violate the beta margin conditions")


@dataclass
class BsdeSolution:
    Y: np.ndarray             # (K+1, V)
    Z: np.ndarray             # (K+1, V); terminal row zero
    level: int
    dt: float
    scheme: str
    iterations: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.Y.shape[0] - 1


def _terminal_values(psi, graph, n_vertices: int) -> np.ndarray:
    """Terminal data as a fresh float array: psi, or psi(graph) when callable."""
    if callable(psi):
        psi = psi(graph)
    psi = np.array(psi, dtype=float)
    if psi.shape != (n_vertices,):
        raise UsageError("terminal data must be one value per vertex")
    return psi


def _pinned_terminal(problem: BsdeProblem, kernel: StepKernel, graph) -> np.ndarray:
    """The terminal layer: terminal data, with phi(T) on V_0 in killed mode."""
    y = _terminal_values(problem.terminal_psi, graph, kernel.n_vertices)
    if problem.duration == "killed":
        y[kernel.is_boundary] = problem.boundary_phi(problem.horizon)
    return y


def _sweep(problem: BsdeProblem, kernel: StepKernel, terminal: np.ndarray, layer):
    """One backward pass from the terminal layer; returns (Y, Z), each (K+1, V).

    layer(k, t, ey, z) gives Y_k from ey = E[Y_{k+1} | x] and the covariation
    ratio z = E[Y_{k+1} dW | x] / dqv. In killed mode phi(t) is then pinned on
    V_0 and Z_k = 0 there. The terminal row of Z is zero.
    """
    dt = kernel.dt
    K = layer_count(problem.horizon, dt)
    killed = problem.duration == "killed"
    Y = np.empty((K + 1, kernel.n_vertices))
    Z = np.zeros((K + 1, kernel.n_vertices))
    Y[K] = terminal
    for k in range(K - 1, -1, -1):
        t = k * dt
        z = (kernel.Q @ Y[k + 1]) / kernel.dqv
        y = layer(k, t, kernel.P @ Y[k + 1], z)
        if killed:
            y[kernel.is_boundary] = problem.boundary_phi(t)
            z[kernel.is_boundary] = 0.0
        Y[k] = y
        Z[k] = z
    return Y, Z


def _spot_check_lipschitz(problem: BsdeProblem, kernel: StepKernel, seed=1234):
    if problem.k0 == 0 and problem.k1 == 0:
        return
    rng = Generator(Philox(key=[seed, 0]))
    n = 64
    t = rng.random(n) * problem.horizon
    x = rng.integers(0, kernel.n_vertices, size=n)
    y, yb, z, zb = (rng.standard_normal((4, n)) * 2.0)
    dg = np.abs(problem.g(t, x, y) - problem.g(t, x, yb))
    if np.any(dg > problem.k0 / 2 * np.abs(y - yb) + 1e-9):
        warnings.warn("driver g violates the declared K0/2 Lipschitz bound on samples")
    df = np.abs(problem.f(t, x, y, z) - problem.f(t, x, yb, zb))
    bound = problem.k0 / 2 * np.abs(y - yb) + problem.k1 * np.abs(z - zb)
    if np.any(df > bound + 1e-9):
        warnings.warn("driver f violates the declared Lipschitz bounds on samples")


def solve_dp(problem: BsdeProblem, kernel: StepKernel, graph=None,
             scheme: str = "explicit") -> BsdeSolution:
    """Backward dynamic programming over the chain.

    explicit: the driver's y-argument is the one-step conditional expectation.
    picard-in-step: the y-argument is the in-step fixed point (<=50 inner
    iterations, tolerance 1e-12).
    """
    if scheme not in ("explicit", "picard-in-step"):
        raise UsageError(f"unknown scheme {scheme!r}")
    dt = kernel.dt
    if scheme == "explicit" and dt * problem.k0 >= 1:
        raise UsageError("explicit scheme requires dt*K0 < 1")
    _spot_check_lipschitz(problem, kernel)

    xs = np.arange(kernel.n_vertices)
    dqv = kernel.dqv
    inner_iterations = 0

    def explicit(k, t, ey, z):
        return ey + problem.g(t, xs, ey) * dt + problem.f(t, xs, ey, z) * dqv

    def in_step(k, t, ey, z):
        nonlocal inner_iterations
        y = ey
        for _ in range(50):
            y_new = ey + problem.g(t, xs, y) * dt + problem.f(t, xs, y, z) * dqv
            delta = float(np.abs(y_new - y).max())
            y = y_new
            inner_iterations += 1
            if delta < 1e-12:
                return y
        raise SchemeError("picard-in-step fixed point did not converge",
                          {"layer": k, "last_delta": delta})

    Y, Z = _sweep(problem, kernel, _pinned_terminal(problem, kernel, graph),
                  explicit if scheme == "explicit" else in_step)
    return BsdeSolution(Y=Y, Z=Z, level=kernel.level, dt=dt, scheme=scheme,
                        iterations=inner_iterations,
                        meta={"realized_horizon": (Y.shape[0] - 1) * dt})


# --- Picard iteration over the whole horizon ---------------------------------

def picard_iterate(problem: BsdeProblem, kernel: StepKernel, n_iters: int,
                   paths: PathEnsemble, weights: BetaWeights, graph=None,
                   initial: np.ndarray | None = None,
                   stop_rel: float = 1e-13) -> dict:
    """Iterate the frozen-driver linear solve from (Y, Z) = (initial, 0).

    initial defaults to Y = 0 and must have shape (K+1, V). Each sweep solves
    the BSDE whose drivers are evaluated on the previous iterate's fields,
    mirroring the existence proof; distances between consecutive iterates are
    measured in the empirical V^beta norm along the supplied frozen path
    ensemble, whose level must be the kernel's. Iteration stops once the
    distance falls below stop_rel times the first distance (the numerical
    floor, where ratios are roundoff artifacts). Returns the distances, their
    ratios and the last iterate as "final"; earlier iterates are not kept.
    """
    if n_iters < 1:
        raise UsageError(f"n_iters must be at least 1, got {n_iters}")
    if paths.config.level != kernel.level:
        raise UsageError(f"paths are at level {paths.config.level}, "
                         f"the kernel at level {kernel.level}")
    dt = kernel.dt
    xs = np.arange(kernel.n_vertices)
    terminal = _pinned_terminal(problem, kernel, graph)
    shape = (layer_count(problem.horizon, dt) + 1, kernel.n_vertices)
    if initial is not None and np.shape(initial) != shape:
        raise UsageError(f"initial field has shape {np.shape(initial)}, expected {shape}")
    norm = _vbeta_norm_on(paths, weights)
    y_prev = np.zeros(shape) if initial is None else np.array(initial, dtype=float)
    z_prev = np.zeros(shape)

    def frozen(k, t, ey, z):  # drivers on the previous iterate's fields
        return (ey + problem.g(t, xs, y_prev[k]) * dt
                + problem.f(t, xs, y_prev[k], z_prev[k]) * kernel.dqv)

    distances = []
    for _ in range(n_iters):
        Y, Z = _sweep(problem, kernel, terminal, frozen)
        d = norm(Y - y_prev, Z - z_prev)
        distances.append(d)
        y_prev, z_prev = Y, Z
        if d <= stop_rel * distances[0]:
            break
    ratios = [distances[i + 1] / distances[i]
              for i in range(len(distances) - 1) if distances[i] > 0]
    return {"distances": distances, "ratios": ratios, "final": (Y, Z)}


def _vbeta_norm_on(paths: PathEnsemble, weights: BetaWeights):
    """Build the path-only part of the V^beta norm once; return norm(y, z).

    Time-major, row k is time t_k: index (K+1, N) is the flat field index
    k*V + vertex of each path, e (K+1, N) is exp(2 b0 t_k + 2 b1 <W>_k - shift)
    and dqv (K, N) the per-step increments.
    """
    K, N = paths.n_steps, paths.n_paths
    shape = (K + 1, vertex_count(paths.config.level))
    dqv = np.ascontiguousarray(paths.dqv.T)
    e = np.empty((K + 1, N))
    e[0] = 0.0
    np.cumsum(dqv, axis=0, out=e[1:])  # <W>_k
    e *= 2 * weights.b1
    e += (2 * weights.b0 * (np.arange(K + 1) * paths.dt))[:, None]
    shift = max(0.0, float(e.max()) - 600.0)
    e -= shift
    np.exp(e, out=e)
    index = np.ascontiguousarray(np.arange(K + 1)[:, None] * shape[1] + paths.vertices.T)

    def norm(y_field: np.ndarray, z_field: np.ndarray) -> float:
        for name, f in (("y", y_field), ("z", z_field)):
            if np.shape(f) != shape:
                raise UsageError(f"{name} field has shape {np.shape(f)}, the path "
                                 f"ensemble needs {shape} (layers, vertices)")
        y2e = np.ravel(y_field)[index]       # y, then y^2 e in place
        y2e *= y2e
        z = np.ravel(z_field)[index[:-1]]
        # run[k] = (sum_{r>=k} y_r^2 e_r dt, sum_{r>=k} (y_r^2 + z_r^2) e_r dqv_r)
        run = np.empty((K, 2, N))
        run_dr, run_dqv = run[:, 0], run[:, 1]
        np.multiply(z, z, out=run_dqv)
        run_dqv += y2e[:-1]
        run_dqv *= e[:-1]
        run_dqv *= dqv
        y2e *= e
        np.multiply(y2e[:-1], paths.dt, out=run_dr)
        for k in range(K - 2, -1, -1):
            run[k] += run[k + 1]
        run_dr += y2e[:-1]
        run_dr += run_dqv
        sup = np.maximum(run_dr.max(axis=0), y2e[K])
        return math.sqrt(float(sup.mean()) * math.exp(shift))

    return norm


def vbeta_norm(paths: PathEnsemble, y_field: np.ndarray, z_field: np.ndarray,
               weights: BetaWeights) -> float:
    """Empirical V^beta norm of time-vertex fields sampled along paths.

    Per path: sup_k [ y_k^2 e_k + sum_{r>=k} y_r^2 e_r dt
                      + sum_{r>=k} (y_r^2+z_r^2) e_r dqv_r ],
    with e_k = exp(2 b0 t_k + 2 b1 <W>_k); the mean over paths is returned
    (squared norm -> sqrt at the end). Exponents are accumulated in log
    domain when they would overflow. Both fields must have shape (K+1, V)
    for the ensemble's K steps and the V vertices of its level.

    The path-only part (e_k, dqv, the gather index) is built once per
    ensemble and weights; picard_iterate reuses it for every sweep. The field
    part runs time-major, on (K+1, N) arrays, in place.
    """
    return _vbeta_norm_on(paths, weights)(y_field, z_field)


# --- linear closed form -------------------------------------------------------

def linear_closed_form(a: float, b: float, c: float, problem: BsdeProblem,
                       kernel: StepKernel, graph=None,
                       mc_starts=None, mc_paths: int = 0, seed: int = 0) -> dict:
    """Y_0 for the linear BSDE dY = -aY dt - (bY+cZ) d<W> + Z dW.

    Exact route: backward weighted expectation with the discrete stochastic
    exponential rho(x->y) = 1 + a dt + b dqv(x) + c dW(x->y), algebraically
    identical to the explicit DP for the linear driver. MC route: accumulate
    the same product along mc_paths >= 2 sampled paths from each vertex id in
    mc_starts; other starts or path counts raise UsageError. Start i walks
    walk._run_blocks' streams (seed + i, block) on the per-slot clock log(rho),
    complex if some rho < 0: its i*pi makes Re exp(clock) carry the sign.
    """
    dt = kernel.dt
    K = layer_count(problem.horizon, dt)
    killed = problem.duration == "killed"
    bnd = kernel.is_boundary

    V = _pinned_terminal(problem, kernel, graph)
    drift = 1.0 + a * dt + b * kernel.dqv
    for k in range(K - 1, -1, -1):
        ez = kernel.Q @ V
        V = drift * (kernel.P @ V) + c * ez
        if killed:
            V[bnd] = problem.boundary_phi(k * dt)
    z0 = ez / kernel.dqv
    if killed:
        z0[bnd] = 0.0
    out = {"Y0": V, "Z0": z0}

    if mc_paths and mc_starts is not None:
        if mc_paths < 2:
            raise UsageError(f"mc_paths must be at least 2 for a standard error, got {mc_paths}")
        starts = [int(sx) for sx in mc_starts]
        outside = [sx for sx in starts if not 0 <= sx < kernel.n_vertices]
        if outside:
            raise UsageError(f"MC starts {outside} are not vertices 0..{kernel.n_vertices - 1}")
        psi = _terminal_values(problem.terminal_psi, graph, kernel.n_vertices)
        out["mc"] = {sx: _mc_linear(kernel, problem, a, b, c, sx, mc_paths,
                                    seed + i, psi, killed)
                     for i, sx in enumerate(starts)}
    return out


def _mc_linear(kernel, problem, a, b, c, start, n_paths, seed, psi, killed):
    """MC estimate from start of E[prod rho * psi(X_K)], phi(hit time) replacing psi on a V_0 hit."""
    w = 1.0 + a * kernel.dt + b * np.repeat(kernel.dqv, 4) + c * kernel.dW.ravel()
    cfg = WalkConfig(level=kernel.level, horizon=problem.horizon, path_count=n_paths,
                     seed=seed, killed=killed, start=start)
    K = cfg.n_steps
    # complex only when needed: a complex accumulator slows the whole step loop
    clock = np.log(w) if (w > 0).all() else np.log(w.astype(complex))
    r = _run_blocks(cfg, kernel, None, snap_steps=(K,), clock=clock)
    pos = r["snaps"][K][1]  # a killed path stays on its V_0 corner, ids 0, 1, 2
    value = psi[pos]
    hit = r["hit_step"]
    arrived = hit > 0
    if arrived.any():  # phi once per distinct hit step
        steps, which = np.unique(hit[arrived], return_inverse=True)
        phi = np.array([problem.boundary_phi(int(k) * kernel.dt) for k in steps], dtype=float)
        value[arrived] = phi[which, pos[arrived]]
    samples = np.exp(r["cum_qv"]).real * value
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n_paths))
    return {"estimate": mean, "stderr": stderr, "unstable": heavy_tailed(samples)}


# --- monotonicity spot checks --------------------------------------------------

def monotonicity_check(problem: BsdeProblem, weights: BetaWeights | None = None,
                       samples: int = 512, seed: int = 0) -> dict:
    """Sampled one-sided monotonicity conditions for the declared kappas.

    Checks (y-yb)(g(y)-g(yb)) <= -kappa0 |y-yb|^2 and the analogue for f in
    y, plus the beta margin inequalities when weights are supplied. Raises
    DeclaredConstantError on violation.
    """
    if problem.kappa0 is None or problem.kappa1 is None:
        raise UsageError("monotonicity check requires declared kappa constants")
    rng = Generator(Philox(key=[seed, 77]))
    t = rng.random(samples) * problem.horizon
    x = rng.integers(0, 3, size=samples)
    y, yb = rng.standard_normal((2, samples)) * 3.0
    z = rng.standard_normal(samples) * 3.0

    dy = y - yb
    lhs_g = dy * (problem.g(t, x, y) - problem.g(t, x, yb))
    margin_g = float((-problem.kappa0 * dy * dy - lhs_g).min())
    lhs_f = dy * (problem.f(t, x, y, z) - problem.f(t, x, yb, z))
    margin_f = float((-problem.kappa1 * dy * dy - lhs_f).min())

    report = {"worst_margin_g": margin_g, "worst_margin_f": margin_f}
    tol = -1e-9
    if margin_g < tol or margin_f < tol:
        raise DeclaredConstantError(
            "sampled monotonicity conditions contradict the declared kappas",
            report,
        )
    if weights is not None:
        problem.check_beta_margins(weights)
        report["beta_margins_ok"] = True
    return report
