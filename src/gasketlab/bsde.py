"""Backward-SDE solvers on the level-m chain.

Conditional expectations are exact finite sums over the <=4 neighbors, so the
only error sources are the time discretization and (for the MC route) path
sampling. The control variable is extracted as the covariation ratio

    Z_k(x) = E[Y_{k+1} dW | x] / dqv(x),

the discrete transcription of the martingale representation against the
walk's clock.

Drivers are Markovian and elementwise: g(t, x, y) and f(t, x, y, z) take
equal-shape arrays of times, vertex ids and values (t may also be a scalar)
and return the value at each point. A DP layer passes one layer and its t_k,
a Picard sweep every layer at once, and each point must come out the same.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox
from scipy.sparse._sparsetools import csr_matvec

from . import walk
from .errors import DeclaredConstantError, NumericOverflowError, SchemeError, UsageError
from .gasket import vertex_count
from .walk import (PathEnsemble, StepKernel, WalkConfig, _run_blocks, field_layers,
                   heavy_tailed, layer_count)


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


@dataclass(frozen=True)
class BsdeProblem:
    """Driver pair, terminal data and duration, for the chain BSDE and the weak PDE.

    duration 'deterministic' runs on the reflected chain to horizon T;
    'killed' runs to T ^ sigma_V0 with boundary rows pinned to phi(t).
    g(t, x, y) and f(t, x, y, z) are called elementwise on equal-shape
    arrays, t included (see the module docstring).
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
            object.__setattr__(self, "boundary_phi", lambda t: np.zeros(3))

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
    if not np.isfinite(psi).all():
        raise UsageError("terminal data must be finite")
    return psi


def _require_finite_boundary(values) -> None:
    """UsageError unless every given phi value is finite; called outside the layer loops."""
    if not np.isfinite(values).all():
        raise UsageError("boundary data must be finite")


# the backward loops run under this; the checks after them decide what the caller sees
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _require_finite_fields(dt: float, **fields) -> None:
    """NumericOverflowError unless each (K+1, ...) field is finite; it names the
    highest non-finite layer, the first the backward loop reached. Called after
    the loop and after the phi check, so a non-finite phi stays a UsageError."""
    last = {name: int(np.flatnonzero(~np.isfinite(f).all(axis=1))[-1])
            for name, f in fields.items() if not np.isfinite(f).all()}
    if last:
        k = max(last.values())
        raise NumericOverflowError(f"{' and '.join(last)} not finite from layer {k} "
                                   f"(t = {k * dt:.6g}) down: the driver left the "
                                   "floating-point range")


def _pinned_terminal(problem: BsdeProblem, kernel: StepKernel, graph) -> np.ndarray:
    """The terminal layer: terminal data, with phi(T) on V_0 in killed mode."""
    y = _terminal_values(problem.terminal_psi, graph, kernel.n_vertices)
    if problem.duration == "killed":
        phi_T = problem.boundary_phi(problem.horizon)
        _require_finite_boundary(phi_T)
        y[kernel.is_boundary] = phi_T
    return y


def _csr_product(matrix: sp.csr_matrix):
    """(product, out): product(x) writes matrix @ x into out, allocated here.

    It calls scipy's compiled CSR kernel, csr_matvec, straight, which skips
    the per-call dispatch of `@` (about 3 of its 5.6 us at m = 3).
    csr_matvec adds matrix @ x to its output, so out is zeroed first: each
    row then sums 0.0 + a_0 x_0 + a_1 x_1 + ... in stored order, the bits
    of matrix @ x, whose result scipy also starts from zeros. x is read as
    contiguous float64 (copied first when it is not); each call overwrites out.
    """
    n_rows, n_cols = matrix.shape
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    out = np.empty(n_rows)

    def product(x: np.ndarray) -> None:
        if len(x) != n_cols:  # the kernel reads n_cols entries of x unchecked
            raise ValueError(f"a vector of {len(x)} entries for {n_cols} columns")
        out.fill(0.0)
        csr_matvec(n_rows, n_cols, indptr, indices, data, x, out)

    return product, out


def _sweep(problem: BsdeProblem, kernel: StepKernel, terminal: np.ndarray, layer,
           layer_reads_z: bool = True):
    """One backward pass from the terminal layer; returns (Y, Z), each (K+1, V).

    layer(k, t, ey, z) gives Y_k from ey = E[Y_{k+1} | x] and the covariation
    ratio z = E[Y_{k+1} dW | x] / dqv. In killed mode phi(t) is then pinned on
    V_0 and Z_k = 0 there. The terminal row of Z is zero. A layer that reads
    z gets ey and z from one product with [P; Q], stacked once per call; its
    rows keep their order, so both equal the separate products. A layer that
    never reads z (layer_reads_z False) gets None, and Z[:K] comes from one
    product with the whole Y[1:] after the loop, the same bits as per-layer
    products. The layer products go through _csr_product into one buffer
    per call, and ey is a view of it: a layer may write into ey and return
    it, but must not keep it, since the next layer's product overwrites it.
    Killed mode checks Y[:, V_0] for a non-finite phi after the loop, or on a
    layer's SchemeError, since such a phi stalls the in-step fixed point. The
    loop runs with numpy's floating-point warnings off; after the phi check,
    NumericOverflowError names the first layer where Y or Z is not finite.
    """
    dt = kernel.dt
    V = kernel.n_vertices
    K = field_layers(problem.horizon, dt, V)
    killed = problem.duration == "killed"
    bnd = np.flatnonzero(kernel.is_boundary)  # ids: quicker to assign through than the mask
    Y = np.empty((K + 1, V))
    Z = np.zeros((K + 1, V))
    Y[K] = terminal
    if layer_reads_z:
        product, out = _csr_product(sp.vstack([kernel.P, kernel.Q], format="csr"))
        ey, qy = out[:V], out[V:]
    else:
        product, ey = _csr_product(kernel.P)
        z = None
    with np.errstate(**_QUIET):
        try:
            for k in range(K - 1, -1, -1):
                t = k * dt
                product(Y[k + 1])
                if layer_reads_z:
                    z = np.divide(qy, kernel.dqv, out=Z[k])
                y = layer(k, t, ey, z)
                if killed:
                    y[bnd] = problem.boundary_phi(t)
                Y[k] = y
        except SchemeError:
            if killed:
                _require_finite_boundary(Y[k + 1:, bnd])
            raise
        if killed:
            _require_finite_boundary(Y[:, bnd])
        if not layer_reads_z:
            Z[:K] = (kernel.Q @ Y[1:].T).T
            Z[:K] /= kernel.dqv
    if killed:
        Z[:K, bnd] = 0.0
    _require_finite_fields(dt, Y=Y, Z=Z)
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
    iterations, tolerance 1e-12). CapacityError, before the fields are
    allocated, when a (K+1, V) field passes walk.MAX_RECORDED_ENTRIES;
    NumericOverflowError when a driver takes Y or Z out of the floating-point
    range (see _sweep).
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

    A sweep reads only the previous iterate, so g and f are called once each
    per sweep, on flat K*V arrays; each layer adds (E[Y_{k+1} | x] + g dt) +
    f dqv in that order, and Z comes from one product after the loop.
    CapacityError when a (K+1, V) field passes walk.MAX_RECORDED_ENTRIES;
    NumericOverflowError when an iterate (see _sweep) or a distance is not finite.
    """
    if n_iters < 1:
        raise UsageError(f"n_iters must be at least 1, got {n_iters}")
    if paths.config.level != kernel.level:
        raise UsageError(f"paths are at level {paths.config.level}, "
                         f"the kernel at level {kernel.level}")
    dt = kernel.dt
    V = kernel.n_vertices
    K = field_layers(problem.horizon, dt, V)
    shape = (K + 1, V)
    if initial is not None and np.shape(initial) != shape:
        raise UsageError(f"initial field has shape {np.shape(initial)}, expected {shape}")
    terminal = _pinned_terminal(problem, kernel, graph)
    norm = _vbeta_norm_on(paths, weights)
    y_prev = np.zeros(shape) if initial is None else np.array(initial, dtype=float)
    z_prev = np.zeros(shape)
    ts = np.repeat(np.arange(K) * dt, V)
    xs = np.tile(np.arange(V), K)

    def frozen(k, t, ey, z):  # G, F: this sweep's drivers on the previous iterate
        ey += G[k]
        ey += F[k]
        return ey

    distances = []
    for _ in range(n_iters):
        y_old, z_old = y_prev[:K].ravel(), z_prev[:K].ravel()
        with np.errstate(**_QUIET):  # a non-finite G or F ends in _sweep's typed error
            G = (problem.g(ts, xs, y_old) * dt).reshape(K, V)
            F = problem.f(ts, xs, y_old, z_old).reshape(K, V) * kernel.dqv
            Y, Z = _sweep(problem, kernel, terminal, frozen, layer_reads_z=False)
            d = norm(Y - y_prev, Z - z_prev)
        if not math.isfinite(d):
            raise NumericOverflowError(f"the V^beta distance of sweep {len(distances) + 1} is not finite")
        distances.append(d)
        y_prev, z_prev = Y, Z
        if d <= stop_rel * distances[0]:
            break
    ratios = [distances[i + 1] / distances[i]
              for i in range(len(distances) - 1) if distances[i] > 0]
    return {"distances": distances, "ratios": ratios, "final": (Y, Z)}


_NORM_BLOCK_BYTES = 2**19  # the V^beta norm's three block buffers, together: L2-sized


def _path_part(paths: PathEnsemble, weights: BetaWeights):
    """(e, shift, index), the V^beta norm's path part, cached on the ensemble.

    Time-major, row k is time t_k: e (K+1, N) is
    exp(2 b0 t_k + 2 b1 <W>_k - shift) and index (K+1, N) the flat field
    index k*V + vertex of each path. Built from the ensemble's time-major
    storage, with no copy of it, once per ensemble for the latest weights:
    paths._norm_parts keeps that one entry. Closures only read it.
    """
    cache = paths._norm_parts
    if weights not in cache:
        K, N = paths.n_steps, paths.n_paths
        e = np.empty((K + 1, N))
        e[0] = 0.0
        walk.clock_cumsum(paths.dqv.T, paths.config.level, axis=0, out=e[1:])  # <W>_k
        e *= 2 * weights.b1
        e += (2 * weights.b0 * (np.arange(K + 1) * paths.dt))[:, None]
        shift = max(0.0, float(e.max()) - 600.0)
        e -= shift
        np.exp(e, out=e)
        index = np.arange(K + 1)[:, None] * vertex_count(paths.config.level) + paths.vertices.T
        e.flags.writeable = False  # not index: np.take copies a read-only index first
        cache.clear()
        cache[weights] = (e, shift, index)
    return cache[weights]


def _vbeta_norm_on(paths: PathEnsemble, weights: BetaWeights):
    """The V^beta norm on paths' path part (_path_part); returns norm(y, z).

    norm squares the fields once (y^2, and z^2 + y^2 below layer K), then
    walks the time rows in blocks from the end, in buffers allocated here, and
    carries both running sums between blocks, so every addition keeps the
    order of the whole-array form. The buffers carry no state from call to
    call, and closures on one ensemble share only the path part, which they
    only read, but one closure must not be shared between threads.
    """
    K, N = paths.n_steps, paths.n_paths
    shape = (K + 1, vertex_count(paths.config.level))
    e, shift, index = _path_part(paths, weights)
    dqv = paths.dqv.T  # (K, N), the per-step increments
    # index is in range by construction, so norm takes with mode="wrap", which
    # writes straight into out where the bounds-checked mode first copies
    rows = max(1, min(K, _NORM_BLOCK_BYTES // (24 * N)))
    y2 = np.empty(shape)           # y^2 on the whole field
    yz2 = np.empty((K, shape[1]))  # z^2 + y^2 on the layers below K
    y2_flat, yz2_flat = y2.ravel(), yz2.ravel()
    # a block of n rows fills the last n rows of each buffer; the run buffers'
    # extra row holds both running sums of the rows above the block
    y2e_buf = np.empty((rows, N))
    run_dr_buf, run_dqv_buf = np.empty((2, rows + 1, N))
    dr, dq = list(run_dr_buf), list(run_dqv_buf)
    suffix = [(dr[k], dr[k + 1], dq[k], dq[k + 1]) for k in range(rows - 1, -1, -1)]
    sup = np.empty(N)

    def norm(y_field: np.ndarray, z_field: np.ndarray) -> float:
        for name, f in (("y", y_field), ("z", z_field)):
            if np.shape(f) != shape:
                raise UsageError(f"{name} field has shape {np.shape(f)}, the path "
                                 f"ensemble needs {shape} (layers, vertices)")
        z_below = np.asarray(z_field)[:K]
        np.multiply(y_field, y_field, out=y2)
        np.multiply(z_below, z_below, out=yz2)
        np.add(yz2, y2[:K], out=yz2)
        np.take(y2_flat, index[K], out=sup, mode="wrap")  # the sup starts at y_K^2 e_K
        np.multiply(sup, e[K], out=sup)
        for hi in range(K, 0, -rows):
            n = min(rows, hi)
            lo = hi - n
            # run_dr[k] = sum_{r>=k} y_r^2 e_r dt,
            # run_dqv[k] = sum_{r>=k} (y_r^2 + z_r^2) e_r dqv_r
            y2e = y2e_buf[rows - n:]
            run_dr, run_dqv = run_dr_buf[rows - n:rows], run_dqv_buf[rows - n:rows]
            np.take(y2_flat, index[lo:hi], out=y2e, mode="wrap")
            y2e *= e[lo:hi]
            np.take(yz2_flat, index[lo:hi], out=run_dqv, mode="wrap")
            run_dqv *= e[lo:hi]
            run_dqv *= dqv[lo:hi]
            np.multiply(y2e, paths.dt, out=run_dr)
            for a, b, c, d in suffix[(hi == K):n]:  # the first block has no sums above it
                a += b
                c += d
            run_dr_buf[rows], run_dqv_buf[rows] = run_dr[0], run_dqv[0]
            run_dr += y2e
            run_dr += run_dqv
            np.maximum(sup, run_dr.max(axis=0), out=sup)
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

    The path-only part (e_k and the gather index) is built once per
    ensemble and cached on it for the latest weights, so picard_iterate
    calls and vbeta_norm calls on one ensemble share it; each call builds
    its own work buffers, and picard_iterate reuses them for every sweep.
    The field part runs time-major in cache-sized row blocks, with every sum
    in the order of the whole-array form. It runs with numpy's floating-point
    warnings off; NumericOverflowError when the norm is not finite.
    """
    with np.errstate(**_QUIET):
        value = _vbeta_norm_on(paths, weights)(y_field, z_field)
    if not math.isfinite(value):
        raise NumericOverflowError("the V^beta norm is not finite")
    return value


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
    The exact route raises NumericOverflowError when Y0 or Z0 is not finite,
    or UsageError when a phi(t) it pinned is.
    """
    dt = kernel.dt
    K = layer_count(problem.horizon, dt)
    killed = problem.duration == "killed"
    bnd = kernel.is_boundary

    V = _pinned_terminal(problem, kernel, graph)
    drift = 1.0 + a * dt + b * kernel.dqv
    product, out = _csr_product(sp.vstack([kernel.P, kernel.Q], format="csr"))
    ey, ez = out[:kernel.n_vertices], out[kernel.n_vertices:]
    with np.errstate(**_QUIET):
        for k in range(K - 1, -1, -1):
            product(V)
            V = drift * ey + c * ez
            if killed:
                V[bnd] = problem.boundary_phi(k * dt)
        z0 = ez / kernel.dqv
    if not (np.isfinite(V).all() and np.isfinite(z0).all()):
        if killed:  # a non-finite phi(t) reaches layer 0 through V_0's neighbours
            _require_finite_boundary([problem.boundary_phi(k * dt) for k in range(K)])
        raise NumericOverflowError("Y0 or Z0 of the linear closed form is not finite: "
                                   "the driver left the floating-point range")
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
        out["mc"] = _mc_linear(kernel, problem, a, b, c, starts, mc_paths, seed, psi, killed)
    return out


def _mc_linear(kernel, problem, a, b, c, starts, n_paths, seed, psi, killed):
    """{start: MC estimate of E[prod rho * psi(X_K)]}, phi(hit time) replacing
    psi on a V_0 hit; start i walks seed + i. The four-step tables depend
    only on the kernel, the mode and the clock, so every start shares one set."""
    w = 1.0 + a * kernel.dt + b * np.repeat(kernel.dqv, 4) + c * kernel.dW.ravel()
    # complex only when needed: a complex accumulator slows the whole step loop.
    # A zero weight's log is -inf, whose exp is the product's exact 0.
    with np.errstate(divide="ignore"):
        clock = np.log(w) if (w > 0).all() else np.log(w.astype(complex))
    tables = walk._block_tables(kernel, killed, clock, False)
    out = {}
    for i, start in enumerate(starts):
        cfg = WalkConfig(level=kernel.level, horizon=problem.horizon, path_count=n_paths,
                         seed=seed + i, killed=killed, start=start)
        r = _run_blocks(cfg, kernel, None, layers=(cfg.n_steps,), clock=clock, tables=tables)
        pos = r["pos"][:, 0]  # a killed path stays on its V_0 corner, ids 0, 1, 2
        value = psi[pos]
        hit = r["hit_step"]
        arrived = hit > 0
        if arrived.any():  # phi once per distinct hit step
            steps, which = np.unique(hit[arrived], return_inverse=True)
            phi = np.array([problem.boundary_phi(int(k) * kernel.dt) for k in steps], dtype=float)
            _require_finite_boundary(phi)
            value[arrived] = phi[which, pos[arrived]]
        estimate, stderr, unstable = _mc_moments(r["clock"][:, 0], value)
        out[start] = {"estimate": estimate, "stderr": stderr, "unstable": unstable}
    return out


def _mc_moments(log_w: np.ndarray, value: np.ndarray) -> tuple[float, float, bool]:
    """Mean, standard error and heavy_tailed flag of Re exp(log_w) * value.

    Plain first, so that every finite result keeps its bytes. When the
    samples, their mean or their spread leave the floating-point range, the
    same moments of the samples scaled by 2^-e, e from the largest Re log_w,
    are taken and scaled back exactly by ldexp. NumericOverflowError when
    those are not finite either.
    """
    n = len(log_w)
    with np.errstate(**_QUIET):
        samples = np.exp(log_w).real * value
        moments = (float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n)))
        if all(map(math.isfinite, moments)):
            return *moments, heavy_tailed(samples)
        top = float(log_w.real.max())
        if math.isfinite(top):
            e = math.floor(top / math.log(2))
            samples = np.exp(log_w - e * math.log(2)).real * value
            try:
                moments = (math.ldexp(samples.mean(), e),
                           math.ldexp(samples.std(ddof=1) / math.sqrt(n), e))
            except OverflowError:
                pass
            if all(map(math.isfinite, moments)):
                return *moments, heavy_tailed(samples)
    raise NumericOverflowError("the Monte Carlo estimate or its standard error is not "
                               "finite: the step weights' product left the floating-point range")


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
