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

The DP, each Picard sweep, the closed form's exact route and the weak PDE
(pde.solve_weak_pde) are one backward recursion on one time grid, run by one
loop, _backward: it owns the loop, the warnings, phi on V_0, what is kept
and the checks after the loop, and each solver passes a layer function.
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


# the backward loops run under this; the checks after them decide what the caller sees
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_BLOCK_BYTES = 2**17  # one temporary of a pass over a kept field, in row blocks


def _block_rows(n_rows: int, width: int, itemsize: int = 8) -> int:
    """Rows per block of a pass over a (n_rows, width) field whose temporaries
    hold itemsize bytes per entry: about _BLOCK_BYTES each."""
    return max(1, min(n_rows, _BLOCK_BYTES // (itemsize * width)))


def _boundary_values(problem: BsdeProblem, steps, dt: float) -> np.ndarray:
    """(len(steps), 3): row j holds phi(int(steps[j]) dt), assigned as a V_0
    row is, with numpy's floating-point warnings off; UsageError unless all
    are finite. Every solver's phi goes through here, before any layer."""
    values = np.empty((len(steps), 3))
    with np.errstate(**_QUIET):
        for j, k in enumerate(steps):
            values[j] = problem.boundary_phi(int(k) * dt)
    if not np.isfinite(values).all():
        raise UsageError("boundary data must be finite")
    return values


def _pinned_terminal(problem: BsdeProblem, graph, n_vertices: int, psi=None) -> np.ndarray:
    """Every solver's terminal layer: terminal data (psi when given, already
    evaluated) as a fresh array, with phi(T) = phi(1 * T) on V_0 (ids 0-2)
    in killed mode."""
    y = _terminal_values(problem.terminal_psi if psi is None else psi, graph, n_vertices)
    if problem.duration == "killed":
        y[:3] = _boundary_values(problem, (1,), problem.horizon)[0]
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


def _backward(problem: BsdeProblem, dt: float, layer, fields: dict, *, pin_first: bool = False,
              finish=None, zero: tuple = (), last_of: str | None = None) -> tuple:
    """The backward layer loop of every solver: layers K-1 down to 0, t = k dt.

    fields maps two names to terminal rows (layer K): the solution's
    (_pinned_terminal's), then its companion's (Z, or the PDE's gradients).
    layer(i, t, y, z) writes row i of the solution, and of the companion
    unless finish does, from row i + 1; it may raise SchemeError. By
    default every layer is kept, K is walk.field_layers' (its CapacityError
    comes before any allocation) and i = k. With last_of, K is
    walk.layer_count's and each field keeps two rows: i = 0, and every other
    layer sees them reversed, so row 1 always holds the layer before. In
    killed mode every layer's phi(t) comes from _boundary_values before the
    loop (its UsageError first), and is pinned on V_0 (ids 0-2) of the
    solution: after each layer, or with pin_first (every layer kept) on all
    rows before the loop, as if before each layer, which writes its own row.

    The loop and finish(y, z), called after it, run with numpy's
    floating-point warnings off. Then the V_0 columns of the fields named in
    zero are zeroed in killed mode, and NumericOverflowError comes when a
    kept field is not finite. It names each such field, and the highest
    non-finite layer, the first the loop reached, from a pass in row blocks;
    with last_of, it names last_of instead of a layer. Returns the two
    fields, or their layer 0 with last_of.
    """
    killed = problem.duration == "killed"
    first, second = fields.values()
    K = (layer_count(problem.horizon, dt) if last_of else
         field_layers(problem.horizon, dt, len(first)))
    # evaluated in the loop's order, k = K-1 ... 0; row k is layer k's
    phi = _boundary_values(problem, range(K - 1, -1, -1), dt)[::-1] if killed else None
    top = 1 if last_of else K
    y, z = np.empty((top + 1, len(first))), np.empty((top + 1, len(second)))
    y[top], z[top] = first, second
    views = ((y, z), (y[::-1], z[::-1]))  # last_of: layer k sees views[(K - 1 - k) % 2]
    pin_after = killed and not pin_first
    if killed and pin_first:  # every layer kept, and a layer writes its own row only
        y[:K, :3] = phi
    i = 0
    with np.errstate(**_QUIET):
        for k in range(K - 1, -1, -1):
            if last_of:
                y, z = views[(K - 1 - k) % 2]
            else:
                i = k
            layer(i, k * dt, y, z)
            if pin_after:
                y[i, :3] = phi[k]
        if finish is not None:
            finish(y, z)
    kept = {name: a[:1] if last_of else a for name, a in zip(fields, (y, z))}
    if killed:
        for name in zero:
            kept[name][:, :3] = 0.0
    last = {}
    for name, a in kept.items():
        n = _block_rows(len(a), a.shape[1], itemsize=1)  # the temporary is bool
        for lo in range(0, len(a), n):
            if not np.isfinite(a[lo:lo + n]).all():
                last[name] = lo + int(np.flatnonzero(~np.isfinite(a[lo:lo + n]).all(axis=1))[-1])
    if last:
        k, names = max(last.values()), " and ".join(last)
        raise NumericOverflowError(
            (f"{last_of} is not finite in {names}" if last_of else
             f"{names} not finite from layer {k} (t = {k * dt:.6g}) down")
            + ": the driver left the floating-point range")
    return tuple(a[0] for a in kept.values()) if last_of else (y, z)


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
    iterations, tolerance 1e-12). A layer gets E[Y_{k+1} | x] and the
    covariation ratio Z_k = E[Y_{k+1} dW | x] / dqv from one product with
    [P; Q], stacked once per call; its rows keep their order, so both equal
    the separate products. On _backward's loop, phi(t) is pinned on V_0
    after each layer, and Z_k = 0 there, in killed mode. CapacityError,
    before the fields are allocated, when a (K+1, V) field passes
    walk.MAX_RECORDED_ENTRIES; NumericOverflowError when a driver takes Y
    or Z out of the floating-point range.
    """
    if scheme not in ("explicit", "picard-in-step"):
        raise UsageError(f"unknown scheme {scheme!r}")
    dt = kernel.dt
    if scheme == "explicit" and dt * problem.k0 >= 1:
        raise UsageError("explicit scheme requires dt*K0 < 1")
    _spot_check_lipschitz(problem, kernel)

    V = kernel.n_vertices
    xs = np.arange(V)
    dqv = kernel.dqv
    product, out = _csr_product(sp.vstack([kernel.P, kernel.Q], format="csr"))
    ey, qy = out[:V], out[V:]
    inner_iterations = 0

    def explicit(k, t, Y, Z):
        product(Y[k + 1])
        z = np.divide(qy, dqv, out=Z[k])
        y = np.add(ey, problem.g(t, xs, ey) * dt, out=Y[k])
        y += problem.f(t, xs, ey, z) * dqv

    def in_step(k, t, Y, Z):
        nonlocal inner_iterations
        product(Y[k + 1])
        z = np.divide(qy, dqv, out=Z[k])
        y = ey
        for _ in range(50):
            y_new = ey + problem.g(t, xs, y) * dt + problem.f(t, xs, y, z) * dqv
            delta = float(np.abs(y_new - y).max())
            y = y_new
            inner_iterations += 1
            if delta < 1e-12:
                Y[k] = y
                return
        raise SchemeError("picard-in-step fixed point did not converge",
                          {"layer": k, "last_delta": delta})

    Y, Z = _backward(problem, dt, explicit if scheme == "explicit" else in_step,
                     {"Y": _pinned_terminal(problem, graph, V), "Z": np.zeros(V)},
                     zero=("Z",))
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
    f dqv in that order, and Z comes from one product with the whole Y[1:]
    after the loop, the bits of per-layer products. CapacityError when a
    (K+1, V) field passes walk.MAX_RECORDED_ENTRIES; NumericOverflowError
    when an iterate (see _backward) or a distance is not finite.
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
    terminal = {"Y": _pinned_terminal(problem, graph, V), "Z": np.zeros(V)}
    norm = _vbeta_norm_on(paths, weights)
    y_prev = np.zeros(shape) if initial is None else np.array(initial, dtype=float)
    z_prev = np.zeros(shape)
    ts = np.repeat(np.arange(K) * dt, V)
    xs = np.tile(np.arange(V), K)
    product, ey = _csr_product(kernel.P)

    def frozen(k, t, Y, Z):  # G, F: this sweep's drivers on the previous iterate
        product(Y[k + 1])
        y = np.add(ey, G[k], out=Y[k])
        y += F[k]

    def z_after(Y, Z):  # one product for every layer
        Z[:K] = (kernel.Q @ Y[1:].T).T
        Z[:K] /= kernel.dqv

    distances = []
    for _ in range(n_iters):
        y_old, z_old = y_prev[:K].ravel(), z_prev[:K].ravel()
        with np.errstate(**_QUIET):  # a non-finite G or F ends in _backward's typed error
            G = (problem.g(ts, xs, y_old) * dt).reshape(K, V)
            F = problem.f(ts, xs, y_old, z_old).reshape(K, V) * kernel.dqv
            Y, Z = _backward(problem, dt, frozen, terminal, finish=z_after, zero=("Z",))
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
    The exact route is _backward keeping layer 0 only: UsageError for a phi
    that is not finite, NumericOverflowError when Y0 or Z0 is not.
    A callable terminal is evaluated once, for both routes.
    """
    dt = kernel.dt
    V = kernel.n_vertices
    psi = _terminal_values(problem.terminal_psi, graph, V)
    drift = 1.0 + a * dt + b * kernel.dqv
    product, out = _csr_product(sp.vstack([kernel.P, kernel.Q], format="csr"))
    ey, ez = out[:V], out[V:]

    def layer(i, t, Y, Z):
        product(Y[i + 1])
        y = np.multiply(drift, ey, out=Y[i])
        y += c * ez

    def z_at_0(Y, Z):  # ez is Q times layer 1 after the loop
        np.divide(ez, kernel.dqv, out=Z[0])

    y0, z0 = _backward(problem, dt, layer,
                       {"Y0": _pinned_terminal(problem, graph, V, psi), "Z0": np.zeros(V)},
                       finish=z_at_0, zero=("Z0",), last_of="the linear closed form")
    out = {"Y0": y0, "Z0": z0}

    if mc_paths and mc_starts is not None:
        if mc_paths < 2:
            raise UsageError(f"mc_paths must be at least 2 for a standard error, got {mc_paths}")
        starts = [int(sx) for sx in mc_starts]
        outside = [sx for sx in starts if not 0 <= sx < kernel.n_vertices]
        if outside:
            raise UsageError(f"MC starts {outside} are not vertices 0..{kernel.n_vertices - 1}")
        out["mc"] = _mc_linear(kernel, problem, a, b, c, starts, mc_paths, seed, psi,
                               problem.duration == "killed")
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
            phi = _boundary_values(problem, steps, kernel.dt)
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
