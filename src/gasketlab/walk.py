"""Random-walk approximation of Brownian motion on V_m with exact martingale
increments for the Brownian-martingale clock.

Construction per vertex x (probabilities uniform over neighbors):

  * dqv(x) = (1/6) sum_i E[(dh_i)^2 | x]   -- the per-step quadratic-variation
    rate; equal weights over the three corner harmonics, normalized so the
    walk's clock has Revuz measure nu: E_mu[<W>_T] = T exactly at stationarity.
  * dW(x->y): the h-increment triple, centered at its conditional mean and
    projected on the principal direction of the centered covariance, rescaled
    so E[dW^2|x] = dqv(x) to machine precision. Centering matters only at the
    three reflected corner rows, where harmonic increments carry the
    reflection drift.
  * Sign convention: the principal direction e(x) has e.(1,0,0) <= 0, and
    e.(0,1,0) > 0 when the h1 component vanishes (the corner p1 row).

Step duration is dt = 5^(-m)/3: with uniform neighbor probabilities the
one-step operator satisfies P = I + dt*L exactly, L being the generator of
(E^(m), mu-lumped vertex masses), so walk time and PDE time agree.

Path generation is block-based with counter RNG streams keyed (seed, block):
results are bit-identical for a given seed regardless of worker count. Each
step spends one raw random byte per stepping path (see walk_steps), and a
killed walk stops drawing for a path once it reaches V_0. Every ensemble,
bsde's weighted linear MC included, runs through _run_blocks, which sums a
per-slot clock along each path: dqv, or the MC's log step weights.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.random import Generator, Philox

from .errors import CapacityError, UsageError
from .gasket import LevelGraph, build_level_graph, vertex_by_coord
# not called here: perfbench's tracer shims walk.harmonic_extend_to_level by name
from .harmonic import corner_harmonics, harmonic_extend_to_level  # noqa: F401

_START_STREAM_OFFSET = 2**32  # start-sampling streams live far from step streams
MAX_RECORDED_ENTRIES = 20_000_000


def step_duration(level: int) -> float:
    return 5.0 ** (-level) / 3.0


def layer_count(horizon: float, dt: float) -> int:
    """Number of dt-steps nearest the horizon; UsageError when that is none.

    The horizon need not be a multiple of dt: the realized horizon is the
    count times dt. A non-finite horizon or dt, or a dt <= 0, is a UsageError.
    """
    if not (math.isfinite(horizon) and math.isfinite(dt) and dt > 0):
        raise UsageError(f"horizon {horizon} and time step {dt} must be finite, "
                         "the time step positive")
    k = int(round(horizon / dt))
    if k < 1:
        raise UsageError(f"horizon {horizon} is less than half a time step {dt}")
    return k


def layer_at(t: float, dt: float, horizon: float) -> int:
    """The layer nearest time t, in 0..layer_count(horizon, dt).

    UsageError when t lies outside [0, horizon].
    """
    if not 0.0 <= t <= horizon:
        raise UsageError(f"time {t} lies outside [0, {horizon}]")
    return int(round(t / dt))


@dataclass(frozen=True)
class StepKernel:
    level: int
    dt: float
    nbr: np.ndarray          # (V,4) neighbor ids, padded with self
    deg: np.ndarray          # (V,)
    dW: np.ndarray           # (V,4) martingale increment per neighbor slot
    dqv: np.ndarray          # (V,) per-step quadratic-variation rate
    direction: np.ndarray    # (V,3) principal unit direction e(x)
    is_boundary: np.ndarray  # (V,) bool
    mu_weight: np.ndarray    # (V,) lumped Hausdorff vertex masses (sums to 1)
    h_values: np.ndarray     # (V,3) float corner-harmonic values
    P: sp.csr_matrix         # one-step operator: (P @ y)(x) = E[y(X_1) | X_0 = x]
    Q: sp.csr_matrix         # P with dW on each slot: (Q @ y)(x) = E[y(X_1) dW | X_0 = x]

    @property
    def n_vertices(self) -> int:
        return len(self.deg)


def build_step_kernel(g: LevelGraph) -> StepKernel:
    m = g.level
    n = g.n_vertices
    h = corner_harmonics(g)  # numerators over 5^m
    hf = h / 5**m

    # neighbours in increasing id order, padded with self
    ends = np.array(g.edges, dtype=np.int64)
    src, dst = np.unique(np.concatenate([ends, ends[:, ::-1]]), axis=0).T
    deg = np.bincount(src, minlength=n)
    nbr = np.repeat(np.arange(n)[:, None], 4, axis=1)
    nbr[src, np.arange(len(src)) - (np.cumsum(deg) - deg)[src]] = dst

    # exact uncentered second moments for the clock rate; self slots add zero.
    # Dividing as Python ints rounds each rate once, as float(Fraction) does.
    diff = h[nbr] - h[:, None]
    sq = (diff * diff).sum(axis=(1, 2))
    dqv = (sq.astype(object) / (6 * 25**m * deg.astype(object))).astype(float)

    dWm = np.zeros((n, 4))
    direction = np.zeros((n, 3))
    for d in np.unique(deg):  # every vertex has degree 2 or 4
        xs = np.nonzero(deg == d)[0]
        dh = hf[nbr[xs, :d]] - hf[xs, None]  # (k, d, 3)
        mbar = dh.mean(axis=1)
        cov = dh.transpose(0, 2, 1) @ dh / d - mbar[:, :, None] * mbar[:, None, :]
        e = np.linalg.eigh(cov)[1][:, :, -1]
        flip = np.where(np.abs(e[:, 0]) < 1e-13, e[:, 1] < 0, e[:, 0] > 0)
        e = np.where(flip[:, None], -e, e)
        raw = (dh - mbar[:, None]) @ e[:, :, None]
        # roundoff guard; the projection is centered already
        raw -= raw.mean(axis=1, keepdims=True)
        scale = np.sqrt(dqv[xs] / (raw * raw).mean(axis=(1, 2)))
        dWm[xs, :d] = raw[:, :, 0] * scale[:, None]
        direction[xs] = e

    isb = np.zeros(n, dtype=bool)
    isb[list(g.boundary_ids)] = True
    mu_w = deg.astype(float) / deg.sum()  # = deg * 3^(-m) / 6, the lumped mu

    # one entry per real slot; 1/deg is 1/4 or 1/2, so scaling is exact
    real = np.arange(4) < deg[:, None]
    rows = np.repeat(np.arange(n), deg)
    weight = 1.0 / deg[rows]
    pmat = sp.csr_matrix((weight, (rows, nbr[real])), shape=(n, n))
    qmat = sp.csr_matrix((weight * dWm[real], (rows, nbr[real])), shape=(n, n))

    return StepKernel(
        level=m, dt=step_duration(m), nbr=nbr, deg=deg, dW=dWm, dqv=dqv,
        direction=direction, is_boundary=isb,
        mu_weight=mu_w, h_values=hf, P=pmat, Q=qmat,
    )


def kernel_moment_defects(kernel: StepKernel) -> tuple[float, float]:
    """Worst conditional-mean and second-moment defects of dW over vertices."""
    # padding slots of dW are zero, so row sums over deg are the real means
    mean = kernel.dW.sum(axis=1) / kernel.deg
    second = (kernel.dW * kernel.dW).sum(axis=1) / kernel.deg
    rel = np.abs(second - kernel.dqv) / np.maximum(kernel.dqv, 1e-300)
    return float(np.abs(mean).max()), float(rel.max())


@dataclass(frozen=True)
class WalkConfig:
    level: int
    horizon: float
    path_count: int
    seed: int = 0
    killed: bool = False
    start: object = "mu"   # 'mu' | vertex id | cell word | exact coord pair
    block_size: int = 25_000
    workers: int = 1

    def __post_init__(self):
        if self.path_count <= 0:
            raise UsageError(f"path_count must be positive, got {self.path_count}")
        layer_count(self.horizon, step_duration(self.level))  # reject an empty walk

    @property
    def n_steps(self) -> int:
        return layer_count(self.horizon, step_duration(self.level))


def _resolve_start(cfg: WalkConfig, kernel: StepKernel, g: LevelGraph | None):
    s = cfg.start
    if isinstance(s, str) and s == "mu":
        return None  # sampled per block from the lumped Hausdorff weights
    if isinstance(s, (int, np.integer)):
        if not (0 <= int(s) < kernel.n_vertices):
            raise UsageError(f"unknown start vertex {s}")
        return int(s)
    if not (isinstance(s, str) or isinstance(s, tuple) and len(s) == 2):
        raise UsageError(f"cannot interpret start spec {s!r}")
    if g is None:  # only cell-word and coordinate starts read the graph
        g = build_level_graph(cfg.level)
    if isinstance(s, tuple):
        return vertex_by_coord(g, s)
    if len(s) != g.level or s not in g.cells:
        raise UsageError(f"start word {s!r} not a level-{g.level} cell")
    return g.cells[s][0]


def walk_steps(kernel: StepKernel, pos: np.ndarray, n_steps: int,
               rng: Generator, killed: bool):
    """Take n_steps uniform neighbour steps from pos, yielding (k, idx, slot, nxt).

    Each step reads one random byte per stepping path, in order from the
    raw 64-bit Philox words taken little-endian, and takes neighbour slot
    j = byte & (deg - 1). Every degree is 2 or 4 and divides 256, so j is
    exactly uniform: no float, multiply or floor is involved.

    idx holds the indices into pos of the paths that took step k, and slot
    (= 4*x + j, an index into kernel.nbr.ravel() and kernel.dW.ravel()) and
    nxt (the position after the step) are their entries, in idx order. idx
    is None when every path stepped: always in reflected mode. In killed mode
    a path that arrives at V_0 leaves the live set and is drawn for no more;
    the first step moves every path, so a V_0 start leaves V_0 (the t > 0
    convention). Callers may keep the yielded arrays but must not write to
    them: idx is shared by the steps between two shrinks of the live set.
    """
    nbr, isb = kernel.nbr.ravel(), kernel.is_boundary
    mask = (kernel.deg - 1).astype(np.uint8)
    draw = rng.bit_generator.random_raw
    idx = None
    for k in range(n_steps):
        n = len(pos)
        byte = draw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
        slot = 4 * pos + (byte & mask[pos])
        nxt = nbr[slot]
        yield k, idx, slot, nxt
        pos = nxt
        if killed:
            keep = ~isb[nxt]
            if not keep.all():
                idx = np.flatnonzero(keep) if idx is None else idx[keep]
                pos = nxt[keep]


def _simulate_block(args):
    (kernel, n_paths, n_steps, seed, block, killed, start_vertex,
     snap_steps, record, clock) = args
    rng = Generator(Philox(key=[seed, block]))
    dW, isb = kernel.dW.ravel(), kernel.is_boundary

    if start_vertex is None:
        srng = Generator(Philox(key=[seed, _START_STREAM_OFFSET + block]))
        pos = srng.choice(kernel.n_vertices, size=n_paths, p=kernel.mu_weight)
    else:
        pos = np.full(n_paths, start_vertex, dtype=np.int64)

    cum_qv = np.zeros(n_paths, dtype=clock.dtype)
    hit_step = np.full(n_paths, -1, dtype=np.int64)
    snaps = {}
    if 0 in snap_steps:
        snaps[0] = (cum_qv.copy(), pos.copy())
    rec = None
    if record:
        rec = {
            "vertices": np.empty((n_paths, n_steps + 1), dtype=np.int64),
            "dW": np.zeros((n_paths, n_steps)),
            "dqv": np.zeros((n_paths, n_steps)),
        }
        rec["vertices"][:, 0] = pos

    for k, idx, slot, nxt in walk_steps(kernel, pos, n_steps, rng, killed):
        rows = slice(None) if idx is None else idx
        a = clock[slot]
        cum_qv[rows] += a
        pos[rows] = nxt
        if killed:
            arrived = isb[nxt]
            hit_step[np.flatnonzero(arrived) if idx is None else idx[arrived]] = k + 1
        if record:
            rec["vertices"][:, k + 1] = pos
            rec["dW"][rows, k] = dW[slot]
            rec["dqv"][rows, k] = a
        if (k + 1) in snap_steps:
            snaps[k + 1] = (cum_qv.copy(), pos.copy())

    out = dict(cum_qv=cum_qv, hit_step=hit_step, snaps=snaps)
    if record:
        out["record"] = rec
    return out


def _run_blocks(cfg: WalkConfig, kernel: StepKernel, g: LevelGraph | None,
                snap_steps=(), record=False, clock=None):
    """Run cfg's ensemble block by block; every walk entry point comes here.

    Raises UsageError unless the config, the kernel and the graph (when
    given) are at one level. The graph is built only for a cell-word or
    coordinate start; snap_steps are layers in 0..cfg.n_steps.

    clock, over the 4V slots of kernel.nbr.ravel(), is what each path sums
    into "cum_qv" and the snapshots: np.repeat(kernel.dqv, 4), i.e. <W>, by
    default, which recording runs keep.
    """
    if kernel.level != cfg.level or g is not None and g.level != cfg.level:
        graph_level = "none" if g is None else g.level
        raise UsageError(f"walk config level {cfg.level}, kernel level {kernel.level} "
                         f"and graph level {graph_level} differ")
    start_vertex = _resolve_start(cfg, kernel, g)
    clock = np.repeat(kernel.dqv, 4) if clock is None else clock
    n = cfg.path_count
    jobs = [
        (kernel, min(cfg.block_size, n - lo), cfg.n_steps, cfg.seed, b, cfg.killed,
         start_vertex, frozenset(snap_steps), record, clock)
        for b, lo in enumerate(range(0, n, cfg.block_size))
    ]
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            results = list(ex.map(_simulate_block, jobs))
    else:
        results = [_simulate_block(j) for j in jobs]

    merged = {
        key: np.concatenate([r[key] for r in results])
        for key in ("cum_qv", "hit_step")
    }
    merged["snaps"] = {  # (<W>, position) at each snapshot layer
        k: tuple(np.concatenate([r["snaps"][k][i] for r in results]) for i in range(2))
        for k in snap_steps
    }
    if record:
        merged["record"] = {
            key: np.concatenate([r["record"][key] for r in results])
            for key in ("vertices", "dW", "dqv")
        }
    return merged


@dataclass
class PathEnsemble:
    """Fully recorded trajectories (small ensembles only)."""

    config: WalkConfig
    vertices: np.ndarray   # (N, K+1)
    dW: np.ndarray         # (N, K)
    dqv: np.ndarray        # (N, K)
    hit_step: np.ndarray   # (N,) first arrival step at V_0, -1 if none
    dt: float

    @property
    def cum_qv(self) -> np.ndarray:
        return np.cumsum(self.dqv, axis=1)

    @property
    def n_paths(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def simulate_paths(cfg: WalkConfig, kernel: StepKernel,
                   g: LevelGraph | None = None) -> PathEnsemble:
    """Simulate and record full trajectories; guarded by a memory cap."""
    entries = cfg.path_count * (cfg.n_steps + 1)
    if entries > MAX_RECORDED_ENTRIES:
        raise CapacityError(
            f"recording {entries} samples exceeds the {MAX_RECORDED_ENTRIES} cap; "
            "use the streaming statistics instead"
        )
    r = _run_blocks(cfg, kernel, g, record=True)
    rec = r["record"]
    return PathEnsemble(
        config=cfg, vertices=rec["vertices"], dW=rec["dW"], dqv=rec["dqv"],
        hit_step=r["hit_step"], dt=kernel.dt,
    )


def ensemble_qv_stats(cfg: WalkConfig, kernel: StepKernel,
                      g: LevelGraph | None = None) -> dict:
    """Mean and standard error of <W>_T over the ensemble (streaming), with
    the requested horizon and the realized one, n_steps * dt; 2+ paths."""
    if cfg.path_count < 2:
        raise UsageError(f"a standard error needs at least 2 paths, got {cfg.path_count}")
    qv = _run_blocks(cfg, kernel, g)["cum_qv"]
    return {
        "mean": float(qv.mean()),
        "stderr": float(qv.std(ddof=1) / math.sqrt(len(qv))),
        "horizon": cfg.horizon,
        "realized_horizon": cfg.n_steps * kernel.dt,
        "paths": len(qv),
    }


def ensemble_qv_snapshots(cfg: WalkConfig, kernel: StepKernel, times,
                          g: LevelGraph | None = None) -> dict:
    """Samples of <W>_t at the layers nearest the requested times (streaming)."""
    layers = {t: layer_at(t, kernel.dt, cfg.horizon) for t in times}
    r = _run_blocks(cfg, kernel, g, snap_steps=tuple(set(layers.values())))
    return {t: r["snaps"][k][0] for t, k in layers.items()}


def exact_exit_steps(kernel: StepKernel) -> np.ndarray:
    """E[steps to hit V_0] per start vertex from the exact linear system."""
    n = kernel.n_vertices
    inter = ~kernel.is_boundary
    a = (sp.eye(n) - kernel.P)[inter][:, inter]
    tau = spla.spsolve(a.tocsc(), np.ones(int(inter.sum())))
    full = np.zeros(n)
    full[inter] = tau
    return full


def exit_time_stats(cfg: WalkConfig, kernel: StepKernel,
                    g: LevelGraph | None = None) -> dict:
    """Mean/variance of sigma_V0 in diffusion time, with normal CI.

    A start on V_0 is handled by the t>0 convention: the walk leaves and the
    recorded hit is the first return. Horizons are reported as in
    ensemble_qv_stats. Needs 2+ paths; the mean needs one hit, the spread two.
    """
    if not cfg.killed:
        raise UsageError("exit-time statistics require killed mode")
    if cfg.path_count < 2:
        raise UsageError(f"a standard error needs at least 2 paths, got {cfg.path_count}")
    hits = _run_blocks(cfg, kernel, g)["hit_step"]
    hit_mask = hits > 0
    frac = float(hit_mask.mean())
    out = {"hit_fraction": frac, "paths": len(hits), "horizon": cfg.horizon,
           "realized_horizon": cfg.n_steps * kernel.dt}
    if frac < 0.99:
        out["warning"] = (
            f"only {frac:.1%} of paths hit V_0 before the horizon; "
            "mean is conditional on hitting"
        )
    times = hits[hit_mask] * kernel.dt
    if len(times):
        out["mean"] = float(times.mean())
    if len(times) > 1:
        out["variance"] = float(times.var(ddof=1))
        out["stderr"] = float(times.std(ddof=1) / math.sqrt(len(times)))
    return out


def occupation_histogram(cfg: WalkConfig, kernel: StepKernel, t: float,
                         cell_level: int | None = None,
                         g: LevelGraph | None = None) -> dict:
    """Empirical cell measure of X_t over level-k cells.

    A vertex position splits its weight equally over the incident level-m
    cells (the same lumping that makes the stationary law equal mu exactly),
    then aggregates to word prefixes of length k.
    """
    k_level = cfg.level if cell_level is None else cell_level
    if not 0 <= k_level <= cfg.level:
        raise UsageError(f"cell level {k_level} lies outside 0..{cfg.level}, the walk level")
    if g is None:  # the cell lumping reads the graph
        g = build_level_graph(cfg.level)
    layer = layer_at(t, kernel.dt, cfg.horizon)
    pos = _run_blocks(cfg, kernel, g, snap_steps=(layer,))["snaps"][layer][1]

    hist: dict[str, float] = {}
    counts = np.bincount(pos, minlength=kernel.n_vertices).astype(float)
    counts /= counts.sum()
    for x in np.nonzero(counts)[0]:
        cells = g.cells_at_vertex(int(x))
        share = counts[x] / len(cells)
        for w in cells:
            key = w[:k_level]
            hist[key] = hist.get(key, 0.0) + share
    return {"t": layer * kernel.dt, "cell_level": k_level, "masses": hist}


def heavy_tailed(samples: np.ndarray) -> bool:
    """True when the top 1% of |samples| carries more than half their mass."""
    mass = np.abs(samples)
    top = np.sort(mass)[-max(1, len(mass) // 100):].sum()
    return bool(top > 0.5 * mass.sum())


def expint_estimate(cfg: WalkConfig, kernel: StepKernel, beta: float,
                    t: float | None = None, g: LevelGraph | None = None) -> dict:
    """MC estimate of E[e^{beta <W>_tau}] with a percentile-bootstrap CI.

    tau is the layer nearest t (default the horizon; t outside [0, horizon]
    raises UsageError) in reflected mode and sigma_V0 ^ that time in killed
    mode. Accumulation is done on log weights; the estimate is flagged
    unstable when the samples are heavy-tailed (see heavy_tailed).
    """
    if beta < 0:
        raise UsageError("beta must be nonnegative")
    layer = cfg.n_steps if t is None else layer_at(t, kernel.dt, cfg.horizon)
    qv = _run_blocks(cfg, kernel, g, snap_steps=(layer,))["snaps"][layer][0]

    logw = beta * qv
    mx = float(logw.max()) if len(logw) else 0.0
    scaled = np.exp(logw - mx)
    mean = float(scaled.mean())
    est = math.exp(mx) * mean

    rng = Generator(Philox(key=[cfg.seed, 2**33]))
    n = len(scaled)
    boots = np.empty(200)
    for i in range(200):
        idx = rng.integers(0, n, size=n)
        boots[i] = scaled[idx].mean()
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return {
        "estimate": est,
        "ci95": (math.exp(mx) * float(lo), math.exp(mx) * float(hi)),
        "beta": beta,
        "unstable": heavy_tailed(scaled),
        "paths": n,
    }
