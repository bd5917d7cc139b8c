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
results are bit-identical for a given seed regardless of worker count. One
raw random byte per live path carries four steps (see walk_steps). The loop
carries state for the live paths only: a killed walk stops drawing for a
path once it reaches V_0, which it reads off the block-end vertex, and ends
once no path is live; a reflected walk that records nothing ends at its last
requested layer. Every ensemble, bsde's weighted linear MC included,
runs through _run_blocks, which sums a per-slot clock along each path (<W>
in exact integer units, or the MC's log step weights) while some requested
layer still reads it, and returns one flat dict of per-path arrays. Its
four-step tables hold 256 codes per vertex, so walks run at levels up to 8
(MAX_TABLE_BYTES); deeper ones raise CapacityError. Substep s of a table
depends only on the vertex and the byte's low 2(s + 1) bits, so each is
built on those prefixes and repeated over the rest. Starts drawn from mu
are Generator.choice's, bit for bit, found from a bucket table in place of
its binary search per path (_mu_starts).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.random import Generator, Philox

from .errors import CapacityError, NumericOverflowError, UsageError
from .gasket import LevelGraph, build_level_graph, vertex_by_coord
# not called here: perfbench's tracer shims walk.harmonic_extend_to_level by name
from .harmonic import corner_harmonics, harmonic_extend_to_level  # noqa: F401

_START_STREAM_OFFSET = 2**32  # start-sampling streams live far from step streams
MAX_RECORDED_ENTRIES = 20_000_000  # recorded path samples; entries of a (K+1, V) field
MAX_TABLE_BYTES = 2**28  # four-step tables: 164 MB at m = 8, 491 MB at m = 9


def step_duration(level: int) -> float:
    return 5.0 ** (-level) / 3.0


def clock_denominator(level: int) -> int:
    """D = 24 * 25^m: every per-step clock rate dqv(x) is q(x) / D, q an integer.

    q(x) = 4 * sq(x) / deg(x), sq the summed squared corner-harmonic
    numerator differences of build_step_kernel, and deg is 2 or 4.
    """
    return 24 * 25**level


def clock_units(dqv: np.ndarray, level: int) -> np.ndarray:
    """The integers q = dqv * D of dqv's entries (0 stays 0).

    Exact: dqv rounds q / D once, so dqv * D lies within a few ulps of q,
    far below 1/2 while q < 2^50. Integer sums of q are exact up to 2^53.
    """
    q = dqv * clock_denominator(level)
    return np.rint(q, out=q).astype(np.int64)


def clock_cumsum(dqv: np.ndarray, level: int, axis: int, out=None) -> np.ndarray:
    """<W> after each step of per-step rates dqv, summed along axis in exact
    integer units and divided by D once: bit for bit what _run_blocks streams.

    The units are summed as integer-valued float64, exact below 2^53, so
    out (dqv's shape, float64) is the only array written.
    """
    units = clock_denominator(level)
    out = np.multiply(dqv, units, out=out)
    np.rint(out, out=out)
    np.cumsum(out, axis=axis, out=out)
    out /= units
    return out


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


def field_layers(horizon: float, dt: float, n_vertices: int) -> int:
    """layer_count(horizon, dt); CapacityError when a (K+1, n_vertices) field
    would pass MAX_RECORDED_ENTRIES, checked before anything is allocated."""
    k = layer_count(horizon, dt)
    if (k + 1) * n_vertices > MAX_RECORDED_ENTRIES:
        raise CapacityError(
            f"a field of {k + 1} layers by {n_vertices} vertices exceeds the "
            f"{MAX_RECORDED_ENTRIES} entry cap; shorten the horizon or lower the level")
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
    is_boundary: np.ndarray  # (V,) bool
    mu_weight: np.ndarray    # (V,) lumped Hausdorff vertex masses (sums to 1)
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
        is_boundary=isb, mu_weight=mu_w, P=pmat, Q=qmat,
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
        if self.block_size < 1 or self.workers < 1:
            raise UsageError(f"block_size and workers must be at least 1, got "
                             f"{self.block_size} and {self.workers}")
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


@dataclass(frozen=True)
class BlockTables:
    """Four-step tables over the codes 256*x + byte, substep-major.

    From position y, substep s of a block takes slot 4*y + j with
    j = (byte >> 2s) & (deg(y) - 1), bits 2s..2s+1 of the byte. Row s of
    slot and pos is the slot taken at substep s and the position after it.
    In killed mode a path that has landed on V_0 takes the slot 4V (zero
    clock, zero dW) and stays where it landed, so pos[r - 1] lies on V_0
    (ids 0, 1, 2) exactly when one of the first r substeps lands there:
    walk_steps reads its stops off that row. hit is the first substep 1..4
    that lands on V_0, or 0 for none (always 0 in reflected mode); the loop
    reads it only for the paths that stop. Row r - 1 of clock is the clock
    summed over the first r substeps, so over the substeps before the hit
    and the hit itself in killed mode.
    """
    slot: np.ndarray | None  # (4, 256V) intp; recording runs only
    pos: np.ndarray          # (4, 256V) intp
    hit: np.ndarray          # (256V,) uint8
    clock: np.ndarray        # (4, 256V), the per-slot clock's dtype


def table_bytes(n_vertices: int, clock_dtype, record: bool) -> int:
    """Bytes of the BlockTables of a walk on n_vertices vertices.

    Per code: four rows of pos and of clock sums, four of slot when
    recording, and one hit byte. Building them holds at most about 19 bytes
    per code more while it runs, 11 when recording (traced at m = 5 and 6,
    int64 and complex128 clocks): the last substep's slots, and the earlier
    substeps' arrays over a quarter of the codes or fewer.
    """
    rows = np.dtype(np.intp).itemsize * (2 if record else 1) + np.dtype(clock_dtype).itemsize
    return 256 * n_vertices * (4 * rows + 1)


def _block_tables(kernel: StepKernel, killed: bool, clock: np.ndarray,
                  record: bool) -> BlockTables:
    """The tables for one walk; clock is the per-slot clock over the 4V slots.

    CapacityError, before anything is allocated, when they would pass
    MAX_TABLE_BYTES, which admits every level up to 8 (see table_bytes).
    """
    size = table_bytes(kernel.n_vertices, clock.dtype, record)
    if size > MAX_TABLE_BYTES:
        raise CapacityError(
            f"the level-{kernel.level} four-step tables take {size} bytes, over the "
            f"{MAX_TABLE_BYTES} cap; walk at level 8 or below")
    n = kernel.n_vertices
    nbr, isb, mask = kernel.nbr.ravel(), kernel.is_boundary, kernel.deg - 1
    # walk_steps reads a stop as a block-end position below 3
    assert np.array_equal(np.flatnonzero(isb), [0, 1, 2])
    clock = np.append(clock, 0)  # slot 4V: a stopped path's substep
    slot = np.empty((4, 256 * n), dtype=np.intp) if record else None
    pos = np.empty((4, 256 * n), dtype=np.intp)
    sums = np.empty((4, 256 * n), dtype=clock.dtype)
    # Substep s reads the start x and the byte's low 2(s + 1) bits alone, so
    # it runs on the V * 4^(s+1) prefixes (x, low bits) and is then repeated
    # over the high bits. Prefix arrays are (V, digit s, lower prefix), and
    # row s of a table, reshaped (V, high bits, prefix), is row s of them.
    # Row 3 has no high bits: its prefix arrays are written in place.
    def row(table, s):
        return table[3].reshape(n, 4, 64) if s == 3 and table is not None else None

    digit = np.arange(4)[:, None]
    y = np.arange(n)[:, None, None]  # the position before substep s, per prefix
    hit = np.zeros_like(y, dtype=np.uint8)
    for s in range(4):
        step = np.bitwise_and(mask[y], digit, out=row(slot, s))
        step += 4 * y
        # in range: "clip" only spares an out= take its buffered copy
        p = np.take(nbr, step, out=row(pos, s), mode="clip")
        if killed:
            stay = np.broadcast_to(hit > 0, step.shape)
            step[stay] = len(nbr)
            p[stay] = np.broadcast_to(y, p.shape)[stay]
            hit = np.where(~stay & isb[p], np.uint8(s + 1), hit)
        c = np.take(clock, step, out=row(sums, s), mode="clip")
        if s:
            c += acc
        if s < 3:
            wide = (n, 4 ** (3 - s), 4 ** (s + 1))
            for table, rows in ((pos, p), (sums, c), (slot, step)):
                if table is not None:
                    table[s].reshape(wide)[:] = rows.reshape(n, 1, -1)
        y, acc, hit = (a.reshape(n, 1, -1) for a in (p, c, hit))
    hit = hit.ravel() if killed else np.zeros(256 * n, dtype=np.uint8)
    return BlockTables(slot=slot, pos=pos, hit=hit, clock=sums)


def walk_steps(tables: BlockTables, pos: np.ndarray, n_steps: int,
               rng: Generator, killed: bool):
    """Take n_steps uniform neighbour steps from pos, four per random byte.

    Yields (k, r, idx, code, stop) per block of r = min(4, n_steps - k)
    steps, with blocks at k = 0, 4, 8, ...: one byte per live path, in
    order from the raw 64-bit Philox words taken little-endian, and
    code = 256*x + byte for a path at x. Substep s takes neighbour slot
    (byte >> 2s) & (deg - 1): every degree is 2 or 4, so each substep is
    exactly uniform and independent of the others, with no float, multiply
    or floor. The block's slots, positions and clock sums are the first r
    rows of tables at code (see BlockTables): a tail block draws its bytes
    as a full block does and uses r < 4 substeps of them. A layer k + r'
    inside a block is read from row r' - 1 at the same code, and blocks are
    never cut, so the bytes depend only on the seed, the block and the live
    set, not on the layers a caller reads. With the default <W> clock the
    sums are integer units, divided by D once (see _run_blocks).

    The state is the live paths' positions alone. idx holds their indices
    into pos (None while every path is live: always in reflected mode).
    stop, in killed mode, holds the positions in the live set of those that
    land on V_0 within the block's r steps (None when none does); they are
    drawn for no more. A stopped path stays where it landed, so the stops
    are read off the block-end position tables.pos[r - 1][code] that the
    next block starts from: V_0 is ids 0, 1, 2 in every LevelGraph (checked
    by _block_tables). The first substep moves every path, so a V_0 start
    leaves V_0 (the t > 0 convention). The walk ends, drawing nothing more,
    once no path is live. Callers may keep the yielded arrays but must not
    write to them.
    """
    draw = rng.bit_generator.random_raw
    idx = None
    code = pos << 8
    for k in range(0, n_steps, 4):
        r = min(4, n_steps - k)
        n = len(code)
        code |= draw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]
        end = tables.pos[r - 1][code]
        stop = None
        if killed:
            landed = end < 3
            if landed.any():
                stop = np.flatnonzero(landed)
        yield k, r, idx, code, stop
        if stop is not None:
            keep = ~landed
            idx = np.flatnonzero(keep) if idx is None else idx[keep]
            if not len(idx):
                return
            end = end[keep]
        code = end
        code <<= 8


def _mu_starts(srng: Generator, weight: np.ndarray, n: int) -> np.ndarray:
    """srng.choice(len(weight), size=n, p=weight), bit for bit, without its
    binary search per path.

    choice counts the entries of cdf = weight.cumsum() / its last entry that
    are <= u, for u = srng.random(n). Here a power-of-two table of at least
    4V buckets holds that count at each bucket's left edge, and each path
    steps up from its bucket's count while cdf[idx] <= u, as often as the
    fullest bucket needs. The result is the same integer count.
    """
    cdf = weight.cumsum()
    cdf /= cdf[-1]
    u = srng.random(n)
    buckets = 1 << (4 * len(weight) - 1).bit_length()
    first = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    idx = first[(u * buckets).astype(np.intp)]  # exact: buckets is a power of two
    for _ in range(int(np.diff(first).max())):
        idx += cdf[idx] <= u
    return idx


def _simulate_block(kernel, tables, job):
    n_paths, n_steps, seed, block, killed, start_vertex, layers, record = job
    rng = Generator(Philox(key=[seed, block]))

    if start_vertex is None:
        srng = Generator(Philox(key=[seed, _START_STREAM_OFFSET + block]))
        pos = _mu_starts(srng, kernel.mu_weight, n_paths)
    else:
        pos = np.full(n_paths, start_vertex, dtype=np.int64)

    # pos and acc hold the stopped paths' final position and clock; the live
    # ones' positions live in walk_steps and their clock, compacted in the
    # same order, in live_acc. Neither is kept once no later layer reads it.
    acc = np.zeros(n_paths, dtype=tables.clock.dtype)
    live_acc = acc
    hit_step = np.full(n_paths, -1, dtype=np.int64)
    out = {"clock": np.empty((n_paths, len(layers)), dtype=acc.dtype),
           "pos": np.empty((n_paths, len(layers)), dtype=np.int64),
           "hit_step": hit_step}
    if record:  # time-major, one row per step; the result holds the transposes
        vertices = np.empty((n_steps + 1, n_paths), dtype=np.int64)
        dW_rows = np.zeros((n_steps, n_paths))
        dqv_rows = np.zeros((n_steps, n_paths))
        out["vertices"], out["dW"], out["dqv"] = vertices.T, dW_rows.T, dqv_rows.T
        vertices[0] = pos
        dW = np.append(kernel.dW.ravel(), 0.0)
        dqv = np.append(np.repeat(kernel.dqv, 4), 0.0)
    col = 0
    if layers and layers[0] == 0:
        out["clock"][:, 0] = acc
        out["pos"][:, 0] = pos
        col = 1
    # nothing past the last layer reads a reflected walk that does not record
    walk_to = n_steps if killed or record else (layers[-1] if layers else 0)

    walked = 0
    for k, r, idx, code, stop in walk_steps(tables, pos, walk_to, rng, killed):
        rows = slice(None) if idx is None else idx
        while col < len(layers) and layers[col] <= k + r:  # snapshots in the block
            s = layers[col] - k - 1
            if idx is not None:
                out["clock"][:, col] = acc
                out["pos"][:, col] = pos
            out["clock"][rows, col] = live_acc + tables.clock[s][code]
            out["pos"][rows, col] = tables.pos[s][code]
            col += 1
        if record:
            for s in range(r):
                if idx is not None:
                    vertices[k + s + 1] = vertices[k + s]
                slot = tables.slot[s][code]
                vertices[k + s + 1, rows] = tables.pos[s][code]
                dW_rows[k + s, rows] = dW[slot]
                dqv_rows[k + s, rows] = dqv[slot]
        walked = k + r
        read = col < len(layers)  # a later layer reads the clock and position
        if read:
            live_acc += tables.clock[r - 1][code]
        if stop is not None:
            done = stop if idx is None else idx[stop]
            stopped = code[stop]
            hit_step[done] = k + tables.hit[stopped].astype(np.int64)
            if read:
                pos[done] = tables.pos[r - 1][stopped]
                acc[done] = live_acc[stop]
                live_acc = np.delete(live_acc, stop)
    # a killed walk ends once no path is live: later layers read the stopped state
    out["clock"][:, col:] = acc[:, None]
    out["pos"][:, col:] = pos[:, None]
    if record:
        vertices[walked + 1:] = vertices[walked]
    return out


_PER_PATH = ("clock", "pos", "hit_step")  # C-order (N, ...) block results
_worker_walk = None  # (kernel, tables) in a pool worker, set once per worker


def _init_worker(kernel, tables):
    global _worker_walk
    _worker_walk = (kernel, tables)


def _simulate_worker_block(job):
    return _simulate_block(*_worker_walk, job)


def _run_blocks(cfg: WalkConfig, kernel: StepKernel, g: LevelGraph | None,
                layers=(), record=False, clock=None, tables=None):
    """Run cfg's ensemble block by block; every walk entry point comes here.

    Raises UsageError unless the config, the kernel and the graph (when
    given) are at one level. The graph is built only for a cell-word or
    coordinate start.

    clock, over the 4V slots of kernel.nbr.ravel(), is what each path sums.
    By default it is <W>: the integers q = clock_units(dqv), summed exactly
    and divided by D = clock_denominator(level) once, after the blocks are
    merged, so block sums equal step-by-step sums; NumericOverflowError,
    before anything is allocated, when n_steps * max q reaches 2^53.
    Recording runs keep it.
    The four-step tables are built here, once per call, from the clock (see
    _block_tables for their cap), unless the caller passes the tables of
    this kernel, mode, clock and recording, to share them between walks.
    They are handed to each pool worker once.

    Returns one flat dict of arrays with a row per path: "clock" and "pos",
    with a column per layer of layers (distinct, sorted, in 0..cfg.n_steps);
    "hit_step", the V_0 arrival step or -1; and when recording, the
    "vertices", "dW" and "dqv" of PathEnsemble: (N, K+1) and (N, K)
    transposes of C-contiguous time-major arrays.
    A reflected run that records nothing stops at its last layer.
    """
    if kernel.level != cfg.level or g is not None and g.level != cfg.level:
        graph_level = "none" if g is None else g.level
        raise UsageError(f"walk config level {cfg.level}, kernel level {kernel.level} "
                         f"and graph level {graph_level} differ")
    default_clock = clock is None
    if default_clock:
        q = clock_units(kernel.dqv, cfg.level)
        if cfg.n_steps * int(q.max()) >= 2**53:
            raise NumericOverflowError(
                f"{cfg.n_steps} steps of up to {int(q.max())} clock units pass 2^53, "
                "where integer clock sums stop being exact in float64")
        clock = np.repeat(q, 4)
    start_vertex = _resolve_start(cfg, kernel, g)
    if tables is None:
        tables = _block_tables(kernel, cfg.killed, clock, record)
    n = cfg.path_count
    jobs = [
        (min(cfg.block_size, n - lo), cfg.n_steps, cfg.seed, b, cfg.killed,
         start_vertex, layers, record)
        for b, lo in enumerate(range(0, n, cfg.block_size))
    ]
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                                 initargs=(kernel, tables)) as ex:
            results = list(ex.map(_simulate_worker_block, jobs))
    else:
        results = [_simulate_block(kernel, tables, j) for j in jobs]
    del tables  # not held while the blocks are merged
    # joined along the path axis: the first of the per-path arrays, the last
    # of the recorded arrays' time-major storage
    out = results[0] if len(results) == 1 else {
        key: np.concatenate([r[key] for r in results]) if key in _PER_PATH else
        np.concatenate([r[key].T for r in results], axis=-1).T for key in results[0]}
    if default_clock:  # <W> summed in integer units: one division per value
        out["clock"] = out["clock"] / clock_denominator(cfg.level)
    return out


@dataclass(frozen=True)
class PathEnsemble:
    """Fully recorded trajectories (small ensembles only).

    Row i of each array is path i. simulate_paths stores them time-major, so
    vertices.T and dqv.T are C-contiguous (K+1, N) and (K, N) arrays, one row
    per step, which the V^beta norm reads as they are. The ensemble is
    frozen and its arrays read-only (views, so the arrays passed in keep
    their flags): bsde caches the path part of the V^beta norm for the
    latest BetaWeights in _norm_parts, and a write would leave it stale.
    dataclasses.replace builds a new ensemble with an empty cache.
    """

    config: WalkConfig
    vertices: np.ndarray   # (N, K+1)
    dW: np.ndarray         # (N, K)
    dqv: np.ndarray        # (N, K)
    hit_step: np.ndarray   # (N,) first arrival step at V_0, -1 if none
    dt: float
    _norm_parts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("vertices", "dW", "dqv", "hit_step"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def cum_qv(self) -> np.ndarray:
        return clock_cumsum(self.dqv, self.config.level, axis=1)

    @property
    def n_paths(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.dW.shape[1]


def simulate_paths(cfg: WalkConfig, kernel: StepKernel,
                   g: LevelGraph | None = None) -> PathEnsemble:
    """Simulate and record full trajectories; guarded by a memory cap.

    Each block records time-major, one row of every path per step, and the
    blocks are joined along the path axis; the returned PathEnsemble holds
    the transposes, read-only (see PathEnsemble).
    """
    entries = cfg.path_count * (cfg.n_steps + 1)
    if entries > MAX_RECORDED_ENTRIES:
        raise CapacityError(
            f"recording {entries} samples exceeds the {MAX_RECORDED_ENTRIES} cap; "
            "use the streaming statistics instead"
        )
    r = _run_blocks(cfg, kernel, g, record=True)
    return PathEnsemble(
        config=cfg, vertices=r["vertices"], dW=r["dW"], dqv=r["dqv"],
        hit_step=r["hit_step"], dt=kernel.dt,
    )


def ensemble_qv_stats(cfg: WalkConfig, kernel: StepKernel,
                      g: LevelGraph | None = None) -> dict:
    """Mean and standard error of <W>_T over the ensemble (streaming), with
    the requested horizon and the realized one, n_steps * dt; 2+ paths."""
    if cfg.path_count < 2:
        raise UsageError(f"a standard error needs at least 2 paths, got {cfg.path_count}")
    qv = _run_blocks(cfg, kernel, g, layers=(cfg.n_steps,))["clock"][:, 0]
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
    at = {t: layer_at(t, kernel.dt, cfg.horizon) for t in times}
    layers = sorted(set(at.values()))
    qv = _run_blocks(cfg, kernel, g, layers=layers)["clock"]
    return {t: qv[:, layers.index(k)] for t, k in at.items()}


def exact_exit_steps(kernel: StepKernel) -> np.ndarray:
    """E[steps to hit V_0] per start vertex from the exact linear system."""
    from scipy.sparse.linalg import spsolve  # imported here: keeps the package import light

    n = kernel.n_vertices
    inter = ~kernel.is_boundary
    a = (sp.eye(n) - kernel.P)[inter][:, inter]
    tau = spsolve(a.tocsc(), np.ones(int(inter.sum())))
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
    pos = _run_blocks(cfg, kernel, g, layers=(layer,))["pos"][:, 0]

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
    """True when the top 1% of |samples| carries more than half their mass.

    np.partition finds the top 1%, which is then sorted, so it is summed in
    the order, and to the bits, of a full sort's tail."""
    mass = np.abs(samples)
    n = max(1, len(mass) // 100)
    top = np.sort(np.partition(mass, len(mass) - n)[-n:]).sum() if len(mass) else 0.0
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
    qv = _run_blocks(cfg, kernel, g, layers=(layer,))["clock"][:, 0]

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
