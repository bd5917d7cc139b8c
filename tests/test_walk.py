"""Step-kernel invariants and walk statistics."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import kernel_oracle
import numpy as np
import pytest
import walk_oracle
from numpy.random import Generator, Philox

from gasketlab import (
    CapacityError,
    NumericOverflowError,
    UsageError,
    WalkConfig,
    bsde,
    ensemble_qv_stats,
    exit_time_stats,
    expint_estimate,
    harmonic_restrict,
    linear_closed_form,
    occupation_histogram,
    problems,
    simulate_paths,
    walk,
)
from gasketlab.gasket import vertex_by_coord
from gasketlab.harmonic import CellGradientTables, corner_harmonics
from gasketlab.measures import hausdorff_measure
from gasketlab.walk import (
    clock_cumsum,
    ensemble_qv_snapshots,
    exact_exit_steps,
    kernel_moment_defects,
    layer_at,
    layer_count,
    step_duration,
)

MIDPOINT_OPP_P1 = (Fraction(3, 4), Fraction(1, 4))  # midpoint of (p2, p3)


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", range(7))
def test_kernel_and_gradient_tables_equal_loop_oracle(kernels, graphs, m):
    # batched build from the integer corner-harmonic table vs one vertex
    # (one cell) at a time with Fraction clock rates
    k, ref = kernels(m), kernel_oracle.step_kernel(graphs(m))
    assert (k.level, k.dt) == (ref.level, ref.dt)
    for name in ("nbr", "deg", "dW", "dqv", "is_boundary", "mu_weight"):
        assert same_bytes(getattr(k, name), getattr(ref, name)), name
    for op in ("P", "Q"):
        for part in ("data", "indices", "indptr"):
            assert same_bytes(getattr(getattr(k, op), part),
                              getattr(getattr(ref, op), part)), f"{op}.{part}"
    tables = CellGradientTables(graphs(m))
    for name, expect in zip(("corners", "nu", "pattern"),
                            kernel_oracle.gradient_tables(graphs(m))):
        assert same_bytes(getattr(tables, name), expect), name


@pytest.mark.parametrize("m", (0, 1, 2, 3, 4))
def test_kernel_conditional_moments(kernels, m):
    k = kernels(m)
    worst_mean, worst_second = kernel_moment_defects(k)
    assert (worst_mean, worst_second) == kernel_oracle.moment_defects(k)
    assert type(worst_mean) is float and type(worst_second) is float
    assert worst_mean < 1e-12
    assert worst_second < 1e-12


def test_martingale_property_of_harmonics(kernels, graphs):
    # interior vertices: sum of neighbor values of any harmonic equals deg*h(x)
    g, k = graphs(3), kernels(3)
    h = kernel_oracle.corner_harmonic_values(g)
    for x in range(k.n_vertices):
        if k.is_boundary[x]:
            continue
        nb = list(g.neighbors_of[x])
        assert np.abs(h[nb].mean(axis=0) - h[x]).max() < 1e-13


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_transition_operators(kernels, graphs, m):
    k = kernels(m)
    ones = np.ones(k.n_vertices)
    assert np.array_equal(k.P @ ones, ones)
    assert np.abs(k.Q @ ones).max() < 1e-15  # dW has conditional mean zero
    inter = ~k.is_boundary
    for i in range(3):
        h = kernel_oracle.corner_harmonic_values(graphs(m))[:, i]
        assert np.abs((k.P @ h - h)[inter]).max() < 1e-13


def test_direction_sign_convention(graphs):
    # the oracle's directions, from which it builds the dW the package's equals
    direction = kernel_oracle.directions(graphs(2))
    for e in direction:
        assert e[0] < 1e-13
        if abs(e[0]) < 1e-13:
            assert e[1] > 0
    # the corner p1 row has exactly zero h1 component
    assert abs(direction[0][0]) < 1e-13


def test_qv_rate_two_routes(graphs, kernels):
    """dqv at an interior midpoint: kernel neighbor sums vs per-cell corner
    triples from harmonic_restrict (independent product route)."""
    g, k = graphs(1), kernels(1)
    for x in range(k.n_vertices):
        if k.is_boundary[x]:
            continue
        acc = 0.0
        count = 0
        for w in g.cells_at_vertex(x):
            corners = list(g.cells[w])
            slot = corners.index(x)
            for i in range(3):
                ei = tuple(Fraction(1 if j == i else 0) for j in range(3))
                triple = harmonic_restrict(ei, w)
                for other in range(3):
                    if other != slot:
                        acc += float((triple[other] - triple[slot]) ** 2)
                        count += 1
        deg = k.deg[x]
        route_b = acc / (6 * deg)
        assert abs(route_b - k.dqv[x]) < 1e-12


def test_stationary_qv_rate_exact(kernels):
    for m in (1, 2, 3):
        k = kernels(m)
        rate = float((k.mu_weight * k.dqv).sum()) / k.dt
        assert abs(rate - 1.0) < 1e-12


def test_dqv_spatial_ratio_tracks_singularity(kernels):
    # the per-step clock rate spread grows with the level, the numerical face
    # of the mutual singularity of the two clocks
    spreads = []
    for m in (2, 3, 4):
        k = kernels(m)
        spreads.append(k.dqv.max() / k.dqv.min())
    assert spreads[0] < spreads[1] < spreads[2]


def test_determinism_and_worker_invariance(kernels, graphs):
    # block streams are keyed (seed, block): reruns and worker splits of the
    # same config reproduce paths bit for bit
    k, g = kernels(2), graphs(2)
    base = WalkConfig(level=2, horizon=0.2, path_count=500, seed=42, block_size=125)
    wide = WalkConfig(level=2, horizon=0.2, path_count=500, seed=42, block_size=125,
                      workers=3)
    e1 = simulate_paths(base, k, g)
    e2 = simulate_paths(base, k, g)
    e3 = simulate_paths(wide, k, g)
    assert np.array_equal(e1.vertices, e2.vertices)
    assert np.array_equal(e1.vertices, e3.vertices)
    assert np.array_equal(e1.dW, e3.dW)


WALK_CASES = [(m, killed, start) for m in range(5) for killed in (False, True)
              for start in ("mu", "V0", "interior") if m > 0 or start != "interior"]


def unit_clock(k):
    return np.repeat(walk.clock_units(k.dqv, k.level), 4)


def slot_clock(k):
    """The per-slot clock of slot ids plus one: a layer difference names the
    slot taken, or 0 for none."""
    return np.arange(1, 4 * k.n_vertices + 1)


def table_slots(tables):
    """The slot taken at each substep, -1 for none, read off tables built on
    slot_clock as tables.clock[s] - tables.clock[s - 1] - 1."""
    return np.diff(tables.clock, axis=0, prepend=0) - 1


class _CountingPhilox(Philox):
    """Philox, with the size of every raw-word request kept."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = []

    def random_raw(self, size=None, output=True):
        self.requests.append(size)
        return super().random_raw(size, output)


@pytest.fixture
def step_streams(monkeypatch):
    """The step streams _simulate_block builds, one per block in order, each
    a _CountingPhilox; start streams are built as before and not kept."""
    streams = []

    def counted(*, key):
        bit_generator = _CountingPhilox(key=key)
        if key[1] < walk._START_STREAM_OFFSET:
            streams.append(bit_generator)
        return bit_generator

    monkeypatch.setattr(walk, "Philox", counted)
    return streams


def slots_taken(run):
    """The slot taken at each step of a run recorded at every layer on
    slot_clock, -1 for none, time-major (K, n)."""
    return np.diff(run["clock"].T, axis=0) - 1


@pytest.mark.parametrize("m, killed, start", WALK_CASES)
def test_walk_steps_equal_two_branch_oracle(kernels, step_streams, m, killed, start):
    # _simulate_block's four-step blocks, read from the tables with
    # live-index raw bytes and recorded at every layer on the slot clock, vs
    # four composed full-width mask-form steps on the same bytes, one
    # Philox key. Each oracle block is compared: its slots, positions and
    # hits so far, its live set, and the bytes drawn for it. The step counts
    # take every residue mod 4, so tail blocks of 1, 2 and 3 steps are
    # compared too.
    k = kernels(m)
    n_paths = 400
    if start == "mu":
        start_vertex = None
        pos = Generator(Philox(key=[17, walk._START_STREAM_OFFSET + m])).choice(
            k.n_vertices, n_paths, p=k.mu_weight)
    else:
        ids = np.nonzero(k.is_boundary == (start == "V0"))[0]
        start_vertex = int(ids[-1])
        pos = np.full(n_paths, start_vertex, dtype=np.int64)
    tables = walk._block_tables(k, killed, slot_clock(k))
    for n_steps in 2 * 5**m + 2 + np.arange(4):
        step_streams.clear()
        job = (n_paths, int(n_steps), 17, m, killed, start_vertex, range(n_steps + 1))
        run = walk._simulate_block(k, tables, job)
        ref = walk_oracle.walk_steps(k, pos, n_steps, Generator(Philox(key=[17, m])), killed)
        [stream] = step_streams
        slot, path, hit = slots_taken(run), run["pos"].T, run["hit_step"]
        assert same_bytes(path[0], pos)
        drawn_sets = []
        for k2, r2, live, slot2, pos2, hit2 in ref:
            steps = slice(k2, k2 + r2)
            assert same_bytes(slot[steps], slot2), (n_steps, k2)
            assert same_bytes(path[k2 + 1:k2 + r2 + 1], pos2), (n_steps, k2)
            assert same_bytes(np.where(hit <= k2 + r2, hit, -1), hit2), (n_steps, k2)
            drawn = (hit == -1) | (hit > k2)  # not stopped before the block
            if killed:
                assert np.array_equal(drawn, live), (n_steps, k2)
            else:
                assert live is None and drawn.all()
            if drawn.any():  # else no path is live: the walk has ended
                drawn_sets.append(drawn)
        assert stream.requests == [-(-int(d.sum()) // 8) for d in drawn_sets]
        blocks = len(drawn_sets)
        assert blocks == -(-n_steps // 4) or killed and (hit > 0).all()
        assert hit.max() <= n_steps  # no hit past the horizon counts
        if blocks > 1:  # a killed run's last block skips stopped paths
            assert drawn_sets[-1].all() != killed


def test_killed_walk_stops_drawing_once_no_path_is_live(kernels, step_streams):
    # level 1 from an interior vertex: every step reaches V_0 with chance
    # 1/2, so all 300 paths stop long before the 120 steps. One request per
    # block, each for the live paths' bytes, and none once no path is live.
    k = kernels(1)
    tables = walk._block_tables(k, True, unit_clock(k))
    assert not k.is_boundary[4]
    hit = walk._simulate_block(k, tables, (300, 120, 5, 0, True, 4, ()))["hit_step"]
    assert (hit > 0).all()
    blocks = -(-int(hit.max()) // 4)
    live = [int(((hit == -1) | (hit > 4 * b)).sum()) for b in range(blocks)]
    assert live[0] == 300 and 0 < blocks < 30
    [stream] = step_streams
    assert stream.requests == [-(-n // 8) for n in live]


def oracle_run(k, cfg, clock=None):
    """_run_blocks' outputs at every layer 0..K, from the oracle's full-width
    steps: (clock, pos, hit_step, vertices, dW, dqv), clock and pos with K + 1
    columns. Each block's clock is summed over its substeps first and then
    added to the path's running sum, as the four-step tables do."""
    units = clock is None
    clock = np.append(unit_clock(k) if units else clock, 0)  # slot -1: no step
    dW = np.append(k.dW.ravel(), 0.0)
    dqv = np.append(np.repeat(k.dqv, 4), 0.0)
    K = cfg.n_steps
    blocks = []
    for b, lo in enumerate(range(0, cfg.path_count, cfg.block_size)):
        n = min(cfg.block_size, cfg.path_count - lo)
        if cfg.start == "mu":
            start = Generator(Philox(key=[cfg.seed, 2**32 + b])).choice(
                k.n_vertices, size=n, p=k.mu_weight)
        else:
            start = np.full(n, cfg.start, dtype=np.int64)
        acc = np.zeros(n, dtype=clock.dtype)
        c = np.zeros((n, K + 1), dtype=clock.dtype)
        v = np.empty((n, K + 1), dtype=np.int64)
        w, q = np.zeros((n, K)), np.zeros((n, K))
        v[:, 0] = start
        for j, r, live, slot, path, hit in walk_oracle.walk_steps(
                k, start, K, Generator(Philox(key=[cfg.seed, b])), cfg.killed):
            drawn = slice(None) if live is None else live
            partial = np.cumsum(clock[slot], axis=0)
            for s in range(r):
                c[:, j + s + 1] = acc
                c[drawn, j + s + 1] = acc[drawn] + partial[s][drawn]
                v[:, j + s + 1] = path[s]
                w[:, j + s], q[:, j + s] = dW[slot[s]], dqv[slot[s]]
            acc[drawn] += partial[r - 1][drawn]
        blocks.append((c, v, hit, w, q))
    c, v, hit, w, q = (np.concatenate(parts) for parts in zip(*blocks))
    if units:
        c = c / walk.clock_denominator(k.level)
    return c, v, hit, v, w, q


def test_reflected_walk_stops_at_its_last_layer(kernels, graphs, step_streams):
    # a reflected walk draws only the blocks up to its last layer, with the
    # oracle's bytes; killed runs and recorded paths, whose last layer is
    # K, still walk to the horizon, for hit_step and the recorded steps
    k, g = kernels(3), graphs(3)
    requests = step_streams
    cfg = WalkConfig(level=3, horizon=0.4, path_count=300, seed=4, block_size=200)
    K, words = cfg.n_steps, [-(-200 // 8), -(-100 // 8)]
    refs = {killed: oracle_run(k, dataclasses.replace(cfg, killed=killed))
            for killed in (False, True)}
    assert (refs[True][2] == -1).any()  # some killed path lives to the horizon
    for layers in ((), (0,), (0, 9, 50), (3, 4, 5), (K - 2,), "recorded"):
        for killed in (False, True):
            requests.clear()
            run_cfg = dataclasses.replace(cfg, killed=killed)
            if layers == "recorded":
                assert_paths_equal_oracle(simulate_paths(run_cfg, k, g), refs[killed])
                last = K
            else:
                run = walk._run_blocks(run_cfg, k, g, layers=layers)
                assert_run_equals_oracle(run, refs[killed], layers)
                last = K if killed else (layers[-1] if layers else 0)
            blocks = -(-last // 4)
            if killed:  # the live paths' bytes, block by block to the horizon
                assert [len(r.requests) for r in requests] == [blocks, blocks]
                assert [r.requests[0] for r in requests] == words
            else:
                assert [r.requests for r in requests] == [[n] * blocks for n in words]


def assert_run_equals_oracle(run, ref, layers):
    # every output has the oracle's bytes, stored time-major
    assert sorted(run) == ["clock", "hit_step", "pos"]
    for key, expect in zip(("clock", "pos", "hit_step"), ref):
        if key != "hit_step":
            expect = expect[:, list(layers)]
        assert same_bytes(run[key], expect), (key, layers)
        assert run[key].T.flags.c_contiguous, key


def assert_paths_equal_oracle(ens, ref):
    # every recorded array has the oracle's bytes, stored time-major (the
    # transposes are C-contiguous) and read-only
    _, _, hit, vertices, dW, dqv = ref
    for name, expect in (("vertices", vertices), ("dW", dW), ("dqv", dqv), ("hit_step", hit)):
        got = getattr(ens, name)
        assert same_bytes(got, expect), name
        assert got.T.flags.c_contiguous and not got.flags.writeable, name


@pytest.mark.parametrize("start", ("mu", "interior", "V0"))
@pytest.mark.parametrize("killed", (False, True))
def test_run_blocks_equal_oracle_for_every_layer_set(kernels, graphs, killed, start):
    # level 2, K = 225, three blocks of up to 300 paths: every output of
    # every mode, with no layer, layer 0 only, the last layer only, layers
    # after every killed path has stopped, and a mix across the residues;
    # and the recorded paths, every layer, where every killed path stops
    # before K and the tail fill writes the rest
    k, g = kernels(2), graphs(2)
    vertex = {"mu": "mu", "interior": 9, "V0": 1}[start]
    assert start == "mu" or k.is_boundary[vertex] == (start == "V0")
    cfg = WalkConfig(level=2, horizon=3.0, path_count=700, seed=23, killed=killed,
                     start=vertex, block_size=300)
    K = cfg.n_steps
    ref = oracle_run(k, cfg)
    hit = ref[2]
    late = (K - 5, K - 2) if killed else (K - 1,)
    if killed:  # the late layers come after every path has stopped
        assert 0 < hit.min() and hit.max() < K - 5
    for layers in ((), (0,), (K,), late, (0, 1, 2, 3, 4, 5, 37, K)):
        assert_run_equals_oracle(walk._run_blocks(cfg, k, g, layers=layers), ref, layers)
    assert_paths_equal_oracle(simulate_paths(cfg, k, g), ref)


@pytest.mark.parametrize("killed", (False, True))
def test_weighted_mc_clock_equals_oracle(kernels, graphs, monkeypatch, killed):
    # linear_closed_form's MC on a problem with some negative step weight:
    # each start's walk sums the complex log-weight clock as the oracle does
    k, g = kernels(3), graphs(3)
    a, b, c = 0.5, 0.3, 30.0
    spec = problems.validate_problem_dict({
        "driver": {"name": "linear", "a": a, "b": b, "c": c},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed" if killed else "deterministic", "T": 0.05}})
    problem = problems.build_problem(spec)
    seen = []
    run_blocks = bsde._run_blocks

    def spy(cfg, kernel, graph, **kwargs):
        seen.append((cfg, kwargs, run_blocks(cfg, kernel, graph, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(bsde, "_run_blocks", spy)
    linear_closed_form(a, b, c, problem, k, g, mc_starts=[5, 20], mc_paths=600, seed=3)
    assert [cfg.start for cfg, _, _ in seen] == [5, 20]
    for cfg, kwargs, run in seen:
        assert kwargs["clock"].dtype == np.complex128 and cfg.killed == killed
        assert_run_equals_oracle(run, oracle_run(k, cfg, kwargs["clock"]), kwargs["layers"])


@pytest.mark.parametrize("killed", (False, True))
def test_run_blocks_in_a_pool_equal_oracle(kernels, graphs, pool_spy, killed):
    # block_size < path_count with two workers: the pool is started, and its
    # merged blocks equal the oracle's
    k, g = kernels(3), graphs(3)
    cfg = WalkConfig(level=3, horizon=0.4, path_count=500, seed=5, killed=killed,
                     block_size=200, workers=2)
    layers = (0, 9, 60, cfg.n_steps)
    run = walk._run_blocks(cfg, k, g, layers=layers)
    assert pool_spy == [2]
    assert_run_equals_oracle(run, oracle_run(k, cfg), layers)


@pytest.mark.parametrize("killed", (False, True))
@pytest.mark.parametrize("block_size, workers", ((25_000, 1), (130, 1), (130, 2)))
def test_recorded_paths_equal_oracle(kernels, graphs, killed, block_size, workers):
    # simulate_paths in one block, three, and three in a pool: every recorded
    # array has the oracle's bytes, stored time-major (the transposes are
    # C-contiguous) and read-only
    k, g = kernels(2), graphs(2)
    cfg = WalkConfig(level=2, horizon=0.6, path_count=350, seed=19, killed=killed,
                     start=9, block_size=block_size, workers=workers)
    ens = simulate_paths(cfg, k, g)
    ref = oracle_run(k, cfg)
    assert_paths_equal_oracle(ens, ref)
    assert (ref[2] > 0).any() == killed


@pytest.mark.parametrize("tail", (1, 2, 3))
@pytest.mark.parametrize("killed", (False, True))
@pytest.mark.parametrize("m", (0, 1, 2))
def test_recorded_paths_with_a_tail_block_equal_oracle(kernels, graphs, m, killed, tail):
    # K = 4j + tail, from mu: the last block records 1-3 of its byte's
    # substeps. At m = 0 every vertex is on V_0, so a killed path stops at
    # its first step and the tail fill writes every later layer.
    k, g = kernels(m), graphs(m)
    cfg = WalkConfig(level=m, horizon=(4 * (m + 2) + tail) * k.dt, path_count=90,
                     seed=31, killed=killed, block_size=40)
    assert cfg.n_steps % 4 == tail
    ref = oracle_run(k, cfg)
    assert_paths_equal_oracle(simulate_paths(cfg, k, g), ref)
    if killed and m == 0:
        assert (ref[2] == 1).all()


def test_path_ensemble_is_read_only(kernels, graphs):
    # the V^beta norm caches parts built from these arrays: a write raises,
    # and dataclasses.replace builds an ensemble with an empty cache whose
    # arrays are read-only views of the ones passed in
    k, g = kernels(2), graphs(2)
    ens = simulate_paths(WalkConfig(level=2, horizon=0.2, path_count=20, seed=1), k, g)
    for name in ("vertices", "codes", "hit_step", "dW", "dqv"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ens, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            getattr(ens, name).T[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ens, name, getattr(ens, name).copy())
    y = np.ones((ens.n_steps + 1, g.n_vertices))
    bsde.vbeta_norm(ens, y, y, bsde.BetaWeights(1, 1))
    assert ens._norm_parts
    mine = np.zeros((20, ens.n_steps), dtype=np.uint8)  # slot 0 at every step
    walked = np.array(ens.vertices)  # the vertices that follow those codes
    for t in range(ens.n_steps):
        walked[:, t + 1] = k.nbr[walked[:, t], 0]
    other = dataclasses.replace(ens, vertices=walked, codes=mine)
    assert other._norm_parts == {}
    assert mine.flags.writeable and not other.codes.flags.writeable
    assert same_bytes(other.dqv, k.dqv[walked[:, :-1]])
    assert same_bytes(other.dW, k.dW[walked[:, :-1], 0])


@pytest.mark.parametrize("killed", (False, True))
def test_clock_cumsum_equals_integer_cumsum(kernels, graphs, killed):
    # the row-to-row sum along the time axis gives the bytes of numpy's
    # cumsum of the integer units along that axis, divided by D once, one
    # path included; cum_qv is its transpose, and out is written in place
    k, g = kernels(3), graphs(3)
    ens = simulate_paths(WalkConfig(level=3, horizon=0.3, path_count=50, seed=4,
                                    killed=killed), k, g)
    for dqv in (ens.dqv, ens.dqv[:1]):
        time_major = clock_cumsum(dqv.T, 3)
        units = np.cumsum(walk.clock_units(dqv.T, 3), axis=0).astype(float)
        assert same_bytes(time_major, units / walk.clock_denominator(3))
        out = np.full((dqv.shape[1] + 1, dqv.shape[0]), np.nan)
        assert clock_cumsum(dqv.T, 3, out=out[1:]).base is out
        assert same_bytes(out[1:], time_major) and np.isnan(out[0]).all()
    assert same_bytes(ens.cum_qv, np.ascontiguousarray(clock_cumsum(ens.dqv.T, 3).T))


def test_lone_block_result_returned_uncopied(kernels, graphs, monkeypatch):
    # one block: _run_blocks hands back the block's own arrays, no merge
    # copy, and the recorded vertices are a view of the block's positions
    k, g = kernels(2), graphs(2)
    blocks = []
    simulate = walk._simulate_block

    def spy(*args):
        blocks.append(simulate(*args))
        return blocks[-1]

    monkeypatch.setattr(walk, "_simulate_block", spy)
    cfg = WalkConfig(level=2, horizon=0.2, path_count=100, seed=2, killed=True)
    run = walk._run_blocks(cfg, k, g, layers=range(cfg.n_steps + 1), clock=slot_clock(k))
    assert len(blocks) == 1
    assert all(run[key] is blocks[0][key] for key in ("clock", "pos", "hit_step"))
    ens = simulate_paths(cfg, k, g)
    assert len(blocks) == 2 and np.shares_memory(ens.vertices, blocks[1]["pos"])


class _ByteSource:
    """Stands in for a Generator: its raw words carry the given bytes."""

    def __init__(self, data):
        self.bit_generator = self
        self._words = np.frombuffer(
            np.pad(data.astype(np.uint8), (0, -len(data) % 8)).tobytes(), dtype="<u8")

    def random_raw(self, n):
        assert n == len(self._words)
        return self._words


@pytest.mark.parametrize("killed", (False, True))
@pytest.mark.parametrize("m", range(5))
def test_block_tables_compose_four_single_steps(kernels, m, killed):
    # every code 256*x + byte: one oracle block of four composed single steps
    # from x on that byte gives the position and hit rows, the slots read off
    # the slot-id clock, and the clock rows are the running sums of the unit
    # clock over the slots taken
    k = kernels(m)
    code = np.arange(256 * k.n_vertices)
    _, r, _, slot, pos, hit_step = next(walk_oracle.walk_steps(
        k, code >> 8, 4, _ByteSource(code & 255), killed))
    assert r == 4
    ids = walk._block_tables(k, killed, slot_clock(k))
    assert same_bytes(table_slots(ids), slot)
    tables = walk._block_tables(k, killed, unit_clock(k))
    for t in (ids, tables):
        assert same_bytes(t.pos, pos)
        assert np.array_equal(t.hit, np.maximum(hit_step, 0))
    assert (tables.hit > 0).any() == killed
    clock = np.append(unit_clock(k), 0)[np.where(slot < 0, 4 * k.n_vertices, slot)]
    assert same_bytes(tables.clock, np.cumsum(clock, axis=0))


@pytest.mark.parametrize("killed", (False, True))
@pytest.mark.parametrize("m", range(1, 7))
def test_block_tables_equal_code_by_code_oracle(kernels, m, killed):
    # the tables built on the byte's low-bit prefixes vs every code walked
    # through the four substeps: byte for byte, for the integer <W> clock,
    # the slot-id clock of recorded paths and float and complex per-slot clocks
    k = kernels(m)
    units = unit_clock(k)
    for clock in (units, slot_clock(k), units / 7.0,
                  (units / 3.0).astype(complex) * (1 - 0.5j)):
        ours = walk._block_tables(k, killed, clock)
        ref = walk_oracle.block_tables(k, killed, clock)
        for name in ("pos", "hit", "clock"):
            assert same_bytes(getattr(ours, name), getattr(ref, name)), (name, clock.dtype)


@pytest.mark.parametrize("m", range(1, 9))
def test_mu_starts_equal_generator_choice(kernels, m):
    # the bucket-table count is choice's searchsorted count on the same
    # uniforms and cdf: equal arrays, dtype included, and the stream left
    # at the same point
    k = kernels(m)
    for seed in (0, 1, 7, 2**31 + 5):
        for n in (1, 7, 8, 25_000):
            expect = Generator(Philox(key=[seed, 2**32 + m]))
            ours = Generator(Philox(key=[seed, 2**32 + m]))
            want = expect.choice(k.n_vertices, size=n, p=k.mu_weight)
            assert same_bytes(walk._mu_starts(ours, k.mu_weight, n), want), (seed, n)
            assert ours.random() == expect.random()


@pytest.mark.parametrize("killed", (False, True))
@pytest.mark.parametrize("workers", (1, 2))
def test_multi_block_run_equals_its_blocks(kernels, graphs, pool_spy, killed, workers):
    # four blocks of up to 130 paths from mu, in a pool with two workers: every
    # output of the merged run is the concatenation of the blocks run one at a
    # time, stored time-major, <W> divided by D; and so are the slot-id
    # clock's snapshots at every layer that simulate_paths reads
    k, g = kernels(3), graphs(3)
    cfg = WalkConfig(level=3, horizon=0.3, path_count=470, seed=13, killed=killed,
                     block_size=130, workers=workers)
    for layers, clock in (((0, 7, cfg.n_steps), None), (range(cfg.n_steps + 1), slot_clock(k))):
        run = walk._run_blocks(cfg, k, g, layers=layers, clock=clock)
        tables = walk._block_tables(k, killed, unit_clock(k) if clock is None else clock)
        blocks = [walk._simulate_block(k, tables, (min(130, 470 - lo), cfg.n_steps, 13, b,
                                                   killed, None, layers))
                  for b, lo in enumerate(range(0, 470, 130))]
        assert sorted(run) == sorted(blocks[0])
        for key in run:
            whole = np.concatenate([block[key] for block in blocks])
            if key == "clock" and clock is None:
                whole = whole / walk.clock_denominator(3)
            assert same_bytes(run[key], whole), (key, layers)
            assert run[key].T.flags.c_contiguous, key
        assert (run["hit_step"] > 0).any() == killed
    assert pool_spy == ([2, 2] if workers == 2 else [])


@pytest.mark.parametrize("m", range(8))
def test_integer_clock_is_exact(kernels, graphs, m):
    # q = 4 sq / deg over D = 24 * 25^m, sq the summed squared corner-harmonic
    # numerator differences: integers that give dqv bit for bit, and a T = 1
    # walk sums them far below 2^53, where float64 sums stop being exact
    k, g = kernels(m), graphs(m)
    h = corner_harmonics(g)
    diff = h[k.nbr] - h[:, None]
    sq = (diff * diff).sum(axis=(1, 2))
    assert (4 * sq % k.deg == 0).all()
    q = walk.clock_units(k.dqv, m)
    assert np.array_equal(q, 4 * sq // k.deg)
    assert same_bytes(q / walk.clock_denominator(m), k.dqv)
    assert layer_count(1.0, k.dt) * int(q.max()) < 1e-3 * 2**53


@pytest.mark.parametrize("limit", ("clock", "tables"))
def test_walk_limits_rejected_before_allocating(kernels, graphs, monkeypatch, limit):
    # n_steps * max q passes 2^53, or the four-step tables pass their cap:
    # rejected before the tables or any per-path array exist
    k, g = kernels(2), graphs(2)
    horizon, error, match = 1e15, NumericOverflowError, "2\\^53"
    if limit == "tables":
        monkeypatch.setattr(walk, "MAX_TABLE_BYTES",
                            walk.table_bytes(k.n_vertices, np.int64) - 1)
        horizon, error, match = 1.0, CapacityError, "level 8 or below"
    cfg = WalkConfig(level=2, horizon=horizon, path_count=10**6, seed=1, killed=True)
    tracemalloc.start()
    try:
        for run in (ensemble_qv_stats, exit_time_stats):
            with pytest.raises(error, match=match):
                run(cfg, k, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_walk_at_the_deepest_admitted_level(kernels, graphs):
    # m = 8, the deepest level whose tables fit the cap (the m = 9 tables,
    # on 3 |V_8| - 3 vertices, do not; every clock is at most 16 bytes): a
    # T = 1 walk passes the clock guard, and the streamed <W> and hits read
    # the recorded paths
    k, g = kernels(8), graphs(8)
    for dtype in (np.int64, np.complex128):
        assert walk.table_bytes(k.n_vertices, dtype) <= walk.MAX_TABLE_BYTES
    assert walk.table_bytes(3 * k.n_vertices - 3, np.int64) > walk.MAX_TABLE_BYTES
    assert layer_count(1.0, k.dt) * int(walk.clock_units(k.dqv, 8).max()) < 2**53 / 16
    for killed in (False, True):
        cfg = WalkConfig(level=8, horizon=43 * k.dt, path_count=200, seed=3,
                         killed=killed, start=int(np.flatnonzero(k.is_boundary)[0]))
        ens = simulate_paths(cfg, k, g)
        r = walk._run_blocks(cfg, k, g, layers=(2, cfg.n_steps))
        assert same_bytes(r["clock"], ens.cum_qv[:, [1, -1]])
        assert same_bytes(r["pos"][:, 0], ens.vertices[:, 2])
        assert same_bytes(r["hit_step"], ens.hit_step)
        assert (ens.hit_step > 0).any() == killed


@pytest.mark.parametrize("tail", (1, 2, 3))
def test_killed_tail_block_counts_no_hit_past_the_horizon(kernels, graphs, tail):
    # K = 8 + tail steps: the last block's byte also carries substeps past K.
    # The oracle runs that whole block on the same bytes; a first V_0 arrival
    # it finds past K is no hit (-1), so every hit lies in 1..K. The V_0 start
    # itself never counts (the t > 0 convention).
    k, g = kernels(1), graphs(1)
    n_steps, n_paths, start = 8 + tail, 2000, 0
    cfg = WalkConfig(level=1, horizon=n_steps * k.dt, path_count=n_paths, seed=5,
                     killed=True, start=start)
    assert cfg.n_steps == n_steps and k.is_boundary[start]
    hits = simulate_paths(cfg, k, g).hit_step
    assert (((hits >= 1) & (hits <= n_steps)) | (hits == -1)).all()
    *_, (_, _, _, _, _, whole) = walk_oracle.walk_steps(
        k, np.full(n_paths, start), 12, Generator(Philox(key=[5, 0])), True)
    assert (whole > n_steps).any()  # the case arises
    assert same_bytes(hits, np.where(whole > n_steps, -1, whole))


def test_killed_paths_freeze_after_hit(kernels, graphs):
    # four blocks of 50: dead paths hold their V_0 vertex with zero dW and
    # dqv in every block, and live ones keep stepping
    k, g = kernels(2), graphs(2)
    cfg = WalkConfig(level=2, horizon=2.0, path_count=200, seed=7, killed=True,
                     start=g.cells["11"][1], block_size=50)
    ens = simulate_paths(cfg, k, g)
    hit = ens.hit_step
    assert (hit > 0).mean() > 0.95
    for block in range(4):
        assert (hit[50 * block:50 * (block + 1)] > 0).any()
    for i in range(ens.n_paths):
        h = hit[i]
        if h > 0:
            assert k.is_boundary[ens.vertices[i, h]]
            assert not k.is_boundary[ens.vertices[i, :h]].any()
            assert np.all(ens.dW[i, h:] == 0.0)
            assert np.all(ens.dqv[i, h:] == 0.0)
            assert np.all(ens.dqv[i, :h] > 0.0)
            assert np.all(ens.vertices[i, h:] == ens.vertices[i, h])


@pytest.mark.parametrize("start", ("mu", 0))
def test_killed_walk_identical_across_worker_counts(kernels, graphs, start):
    # three blocks, so workers=2 reaches the process pool; hit_step included
    k, g = kernels(2), graphs(2)
    runs = []
    for workers in (1, 2):
        cfg = WalkConfig(level=2, horizon=0.5, path_count=300, seed=11, killed=True,
                         start=start, block_size=100, workers=workers)
        runs.append(simulate_paths(cfg, k, g))
    for name in ("vertices", "dW", "dqv", "hit_step"):
        assert same_bytes(getattr(runs[0], name), getattr(runs[1], name)), name
    assert (runs[0].hit_step > 0).any()


@pytest.mark.parametrize("paths", (0, -5))
def test_nonpositive_path_count_rejected(kernels, graphs, paths):
    with pytest.raises(UsageError, match="path_count"):
        simulate_paths(WalkConfig(level=1, horizon=0.5, path_count=paths, seed=1),
                       kernels(1), graphs(1))


@pytest.mark.parametrize("knob, value", [
    ("block_size", 0),   # used to raise ValueError from range()
    ("block_size", -5),  # used to raise ValueError: no array to concatenate
    ("workers", 0),      # used to run serially without a word
    ("workers", -3),
    # and every count that is not an integer (numpy integers are)
    ("seed", 1.5),       # used to walk seed 1's streams
    ("seed", True),
    ("path_count", 2.5),  # used to end in a bare TypeError
    ("path_count", np.float64(20)),
    ("block_size", 2.5),
    ("workers", 2.0),
    ("workers", "2"),
])
def test_nonpositive_block_knobs_rejected(knob, value):
    with pytest.raises(UsageError, match=knob):
        WalkConfig(level=1, horizon=0.5, **{"path_count": 10, knob: value})


def test_walk_config_takes_numpy_integers(kernels, graphs):
    ints = dict(path_count=40, seed=3, block_size=15, workers=1)
    cfg = WalkConfig(level=1, horizon=0.5, **{k: np.int32(v) for k, v in ints.items()})
    assert ensemble_qv_stats(cfg, kernels(1), graphs(1)) == \
        ensemble_qv_stats(WalkConfig(level=1, horizon=0.5, **ints), kernels(1), graphs(1))


def test_horizon_rounding_to_no_step_rejected():
    # T = 0.001 at m = 2 is 0.075 steps; it used to run a zero-step walk
    with pytest.raises(UsageError, match="horizon"):
        WalkConfig(level=2, horizon=0.001, path_count=10)
    # horizons off the step grid still run, to the nearest step
    assert WalkConfig(level=4, horizon=0.25, path_count=10).n_steps == 469


@pytest.mark.parametrize("horizon", (math.nan, math.inf, -math.inf))
def test_non_finite_horizon_rejected(horizon):
    # used to raise ValueError (NaN) or OverflowError (infinite) from round()
    with pytest.raises(UsageError, match="finite"):
        WalkConfig(level=2, horizon=horizon, path_count=10)


@pytest.mark.parametrize("dt", (0.0, -0.1, math.nan, math.inf))
def test_layer_count_needs_a_finite_positive_step(dt):
    with pytest.raises(UsageError, match="time step"):
        layer_count(1.0, dt)


@pytest.mark.parametrize("stats", (ensemble_qv_stats, exit_time_stats))
def test_statistics_need_two_paths(kernels, graphs, stats):
    # one path used to give stderr nan (qv) or a made-up 0.0 (exit time)
    cfg = WalkConfig(level=2, horizon=0.5, path_count=1, seed=1, killed=True)
    with pytest.raises(UsageError, match="at least 2 paths"):
        stats(cfg, kernels(2), graphs(2))


def test_exit_time_spread_needs_two_hits(kernels, graphs):
    # one step from the interior vertex 3, which neighbours p1 and p2: one of
    # the two paths hits V_0, so there is a mean but no variance or stderr
    k = kernels(1)
    cfg = WalkConfig(level=1, horizon=k.dt, path_count=2, seed=0, killed=True, start=3)
    stats = exit_time_stats(cfg, k, graphs(1))
    assert stats["hit_fraction"] == 0.5
    assert stats["mean"] == k.dt
    assert "variance" not in stats and "stderr" not in stats


def test_walk_statistics_report_the_realized_horizon(kernels, graphs):
    # T = 0.25 at m = 4 runs 469 steps, i.e. 0.250133
    cfg = WalkConfig(level=4, horizon=0.25, path_count=20, seed=1, killed=True)
    k, g = kernels(4), graphs(4)
    for stats in (ensemble_qv_stats(cfg, k, g), exit_time_stats(cfg, k, g)):
        assert stats["horizon"] == 0.25
        assert stats["realized_horizon"] == 469 * k.dt
        assert abs(stats["realized_horizon"] - 0.250133) < 1e-6


def test_path_sample_view(kernels, graphs):
    k, g = kernels(1), graphs(1)
    cfg = WalkConfig(level=1, horizon=0.5, path_count=3, seed=1)
    ens = simulate_paths(cfg, k, g)
    assert len(ens.dqv[0]) == cfg.n_steps
    assert np.all(np.diff(ens.cum_qv[0]) >= 0)  # <W> nondecreasing


def test_ensemble_qv_mean(kernels, graphs):
    cfg = WalkConfig(level=3, horizon=1.0, path_count=4000, seed=9)
    stats = ensemble_qv_stats(cfg, kernels(3), graphs(3))
    assert abs(stats["mean"] - 1.0) < 4 * stats["stderr"] + 0.01


def test_exit_times_match_linear_system(kernels, graphs):
    m = 3
    k, g = kernels(m), graphs(m)
    tau = exact_exit_steps(k)
    start = g.index_by_coord[MIDPOINT_OPP_P1]
    cfg = WalkConfig(level=m, horizon=3.0, path_count=4000, seed=17, killed=True,
                     start=start)
    stats = exit_time_stats(cfg, k, g)
    assert stats["hit_fraction"] > 0.99
    expect = tau[start] * k.dt
    assert abs(stats["mean"] - expect) < 4 * stats["stderr"]


def test_exit_time_warning_on_short_horizon(kernels, graphs):
    m = 3
    g = graphs(m)
    start = g.index_by_coord[MIDPOINT_OPP_P1]
    cfg = WalkConfig(level=m, horizon=0.02, path_count=500, seed=3, killed=True,
                     start=start)
    stats = exit_time_stats(cfg, kernels(m), g)
    assert "warning" in stats


def test_exit_time_from_boundary_start_is_first_return(kernels, graphs):
    # t > 0 convention: a walk started on p1 leaves it, so sigma_V0 is the
    # first return, dt * (1 + mean over p1's neighbours of the exit steps)
    m = 2
    k, g = kernels(m), graphs(m)
    cfg = WalkConfig(level=m, horizon=3.0, path_count=300, seed=5, killed=True,
                     start=0)  # p1
    stats = exit_time_stats(cfg, k, g)
    expect = k.dt * (1 + exact_exit_steps(k)[k.nbr[0, :k.deg[0]]].mean())
    assert stats["hit_fraction"] == 1.0
    assert abs(stats["mean"] - expect) < 5 * stats["stderr"]


def test_occupation_point_mass_at_small_t(kernels, graphs):
    m, g = 2, graphs(2)
    start = g.cells["12"][0]
    cfg = WalkConfig(level=m, horizon=0.5, path_count=400, seed=2, start=start)
    k = kernels(m)
    hist = occupation_histogram(cfg, k, k.dt, cell_level=1, g=g)
    # one step away from the start: mass concentrated near the start's cell
    # (a quarter of the paths sit on the subtriangle corner, which splits its
    # weight with the neighboring prefix)
    assert hist["masses"].get("1", 0.0) > 0.85


def test_occupation_converges_to_mu(kernels, graphs):
    m = 3
    cfg = WalkConfig(level=m, horizon=4.0, path_count=20000, seed=21)
    hist = occupation_histogram(cfg, kernels(m), 4.0, cell_level=1, g=graphs(m))
    mu = hausdorff_measure(1)
    tv = 0.5 * sum(abs(hist["masses"].get(w, 0.0) - float(mass))
                   for w, mass in mu.masses.items())
    assert tv < 0.02


def test_negative_cell_level_rejected(kernels, graphs):
    # cell_level -1 used to aggregate over w[:-1], i.e. level-1 cells
    cfg = WalkConfig(level=2, horizon=0.5, path_count=10, seed=4)
    for cell_level in (-1, -2, 3):
        with pytest.raises(UsageError, match="cell level"):
            occupation_histogram(cfg, kernels(2), 0.25, cell_level=cell_level, g=graphs(2))


def test_heat_kernel_ratio_stable_under_doubling(kernels, graphs):
    m = 3
    k, g = kernels(m), graphs(m)
    ratios = []
    for n in (5000, 10000):
        cfg = WalkConfig(level=m, horizon=0.2, path_count=n, seed=31)
        hist = occupation_histogram(cfg, k, 0.2, cell_level=2, g=g)
        mu = hausdorff_measure(2)
        dens = [hist["masses"].get(w, 0.0) / float(mass)
                for w, mass in mu.masses.items()]
        dens = [d for d in dens if d > 0]
        ratios.append(max(dens) / min(dens))
    assert ratios[0] < 50
    assert 0.5 < ratios[0] / ratios[1] < 2.0


def test_expint_beta_zero(kernels, graphs):
    cfg = WalkConfig(level=2, horizon=0.5, path_count=200, seed=4)
    rep = expint_estimate(cfg, kernels(2), 0.0, t=0.5, g=graphs(2))
    assert rep["estimate"] == 1.0


def test_expint_negative_beta_rejected(kernels, graphs):
    cfg = WalkConfig(level=2, horizon=0.5, path_count=10, seed=4)
    with pytest.raises(UsageError):
        expint_estimate(cfg, kernels(2), -0.5, g=graphs(2))


@pytest.mark.parametrize("beta", (math.nan, math.inf, -math.inf))
def test_expint_beta_that_is_not_finite_rejected(kernels, graphs, beta):
    # NaN used to give estimate nan, ci95 (nan, nan) and unstable False
    cfg = WalkConfig(level=1, horizon=0.2, path_count=50, seed=1)
    with pytest.raises(UsageError, match="finite and >= 0"):
        expint_estimate(cfg, kernels(1), beta, g=graphs(1))


def test_step_duration():
    assert step_duration(0) == pytest.approx(1 / 3)
    assert step_duration(3) == pytest.approx(5.0**-3 / 3)


def test_increment_ensemble_mean_within_3se(kernels, graphs):
    # martingale property through the sampler: mean dW over many steps ~ 0
    k, g = kernels(3), graphs(3)
    cfg = WalkConfig(level=3, horizon=1.0, path_count=1000, seed=77)
    ens = simulate_paths(cfg, k, g)
    incs = ens.dW.ravel()
    se = incs.std(ddof=1) / math.sqrt(len(incs))
    assert abs(incs.mean()) <= 3 * se


def test_hitting_fraction_increases_with_horizon(kernels, graphs):
    k, g = kernels(3), graphs(3)
    start = g.index_by_coord[MIDPOINT_OPP_P1]
    fracs = []
    for T in (0.05, 0.15, 0.6):
        cfg = WalkConfig(level=3, horizon=T, path_count=2000, seed=12,
                         killed=True, start=start)
        ens = simulate_paths(cfg, k, g)
        fracs.append(float((ens.hit_step > 0).mean()))
    assert fracs[0] < fracs[1] < fracs[2]


WALK_ENTRY_POINTS = {
    "simulate_paths": lambda cfg, k, g: simulate_paths(cfg, k, g),
    "ensemble_qv_stats": lambda cfg, k, g: ensemble_qv_stats(cfg, k, g),
    "ensemble_qv_snapshots": lambda cfg, k, g: ensemble_qv_snapshots(cfg, k, (0.1,), g),
    "exit_time_stats": lambda cfg, k, g: exit_time_stats(cfg, k, g),
    "occupation_histogram": lambda cfg, k, g: occupation_histogram(cfg, k, 0.1, 1, g),
    "expint_estimate": lambda cfg, k, g: expint_estimate(cfg, k, 1.0, t=0.1, g=g),
}


@pytest.mark.parametrize("odd_one", ("config", "kernel", "graph"))
@pytest.mark.parametrize("entry", sorted(WALK_ENTRY_POINTS))
def test_walk_entry_points_reject_mixed_levels(kernels, graphs, entry, odd_one):
    # one of config, kernel and graph is at level 3, the other two at level 2
    levels = {part: 3 if part == odd_one else 2 for part in ("config", "kernel", "graph")}
    cfg = WalkConfig(level=levels["config"], horizon=0.2, path_count=10, seed=1,
                     killed=True)
    with pytest.raises(UsageError, match="level"):
        WALK_ENTRY_POINTS[entry](cfg, kernels(levels["kernel"]), graphs(levels["graph"]))


def test_word_and_coordinate_starts_without_a_graph(kernels, graphs):
    # the graph is built inside only for the starts that need it
    g, k = graphs(2), kernels(2)
    for start in ("12", MIDPOINT_OPP_P1):
        cfg = WalkConfig(level=2, horizon=0.2, path_count=20, seed=3, start=start)
        ens = simulate_paths(cfg, k)
        assert np.array_equal(ens.vertices, simulate_paths(cfg, k, g).vertices)
        assert (ens.vertices[:, 0] == ens.vertices[0, 0]).all()


@pytest.mark.parametrize("coord", [("x", 0), (None, 0), (float("nan"), 0), (0, math.inf)])
def test_coordinate_that_is_not_rational_rejected(kernels, graphs, coord):
    # the lookup and a walk started there raise UsageError, not a bare
    # ValueError or TypeError from Fraction
    g, k = graphs(2), kernels(2)
    with pytest.raises(UsageError, match="not a finite rational"):
        vertex_by_coord(g, coord)
    cfg = WalkConfig(level=2, horizon=0.2, path_count=10, seed=1, start=coord)
    with pytest.raises(UsageError, match="not a finite rational"):
        simulate_paths(cfg, k)
    assert vertex_by_coord(g, (0.75, 0.25)) == g.index_by_coord[MIDPOINT_OPP_P1]


@pytest.mark.parametrize("coord", [(0,), (0, 0, 5), (), 5, None])
def test_coordinate_that_is_not_a_pair_rejected(graphs, coord):
    # (0,) used to raise a bare IndexError and (0, 0, 5) to return vertex 0
    g = graphs(2)
    with pytest.raises(UsageError, match="a coordinate is a pair"):
        vertex_by_coord(g, coord)
    assert vertex_by_coord(g, (0, 0)) == 0


def test_layer_at():
    dt = step_duration(2)
    on_grid = 30 * dt
    assert layer_at(0.0, dt, on_grid) == 0
    assert layer_at(on_grid, dt, on_grid) == 30 == layer_count(on_grid, dt)
    off_grid = 30.4 * dt
    assert layer_at(off_grid, dt, off_grid) == 30 == layer_count(off_grid, dt)
    assert layer_at(0.4 * dt, dt, on_grid) == 0
    assert layer_at(0.6 * dt, dt, on_grid) == 1
    for t in (on_grid * 1.001, 1.0, -1e-12, -dt):
        with pytest.raises(UsageError, match="outside"):
            layer_at(t, dt, on_grid)


def test_snapshot_at_time_zero_is_the_start(kernels, graphs):
    g, k = graphs(2), kernels(2)
    start = g.cells["12"][0]
    cfg = WalkConfig(level=2, horizon=0.2, path_count=50, seed=2, start=start)
    qv = ensemble_qv_snapshots(cfg, k, (0.0, 0.2), g)
    assert np.array_equal(qv[0.0], np.zeros(50))
    assert (qv[0.2] > 0).all()
    hist = occupation_histogram(cfg, k, 0.0, cell_level=2, g=g)
    assert hist["t"] == 0.0
    assert hist["masses"] == {w: 1 / len(g.cells_at_vertex(start))
                              for w in g.cells_at_vertex(start)}


@pytest.mark.parametrize("t", (-0.1, 0.75, 2.0))
def test_times_outside_the_horizon_rejected(kernels, graphs, t):
    # these used to clamp silently to the nearest end of the walk
    cfg = WalkConfig(level=2, horizon=0.5, path_count=10, seed=4)
    k, g = kernels(2), graphs(2)
    with pytest.raises(UsageError, match="outside"):
        ensemble_qv_snapshots(cfg, k, (0.25, t), g)
    with pytest.raises(UsageError, match="outside"):
        expint_estimate(cfg, k, 1.0, t=t, g=g)
    with pytest.raises(UsageError, match="outside"):
        occupation_histogram(cfg, k, t, cell_level=1, g=g)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("killed", (False, True))
def test_walk_statistics_read_the_recorded_stream(kernels, graphs, monkeypatch,
                                                  killed, workers):
    # one stream behind every entry point: the streaming statistics read the
    # same paths, bit for bit, that simulate_paths records (three blocks)
    k, g = kernels(3), graphs(3)
    cfg = WalkConfig(level=3, horizon=0.4, path_count=300, seed=13, killed=killed,
                     block_size=128, workers=workers)
    ens = simulate_paths(cfg, k, g)
    layers = (1, 2, 3, 4, 40, 97, cfg.n_steps)  # every residue mod 4, K = 150
    qv = ensemble_qv_snapshots(cfg, k, [j * k.dt for j in layers], g)
    for j, t in zip(layers, qv):
        assert same_bytes(qv[t], ens.cum_qv[:, j - 1]), j

    seen = []
    run_blocks = walk._run_blocks

    def spy(*args, **kwargs):  # keeps each merged walk result
        seen.append(run_blocks(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(walk, "_run_blocks", spy)
    hist = occupation_histogram(cfg, k, 97 * k.dt, cell_level=1, g=g)
    assert hist["t"] == 97 * k.dt
    assert same_bytes(seen[-1]["pos"][:, 0], ens.vertices[:, 97])
    if killed:
        stats = exit_time_stats(cfg, k, g)
        assert same_bytes(seen[-1]["hit_step"], ens.hit_step)
        assert stats["hit_fraction"] == float((ens.hit_step > 0).mean()) > 0
    else:
        assert (ens.hit_step == -1).all()


def _heavy_tailed_by_sort(samples) -> bool:
    """The full-sort form: the top 1% of |samples| summed in ascending order."""
    mass = np.abs(samples)
    top = np.sort(mass)[-max(1, len(mass) // 100):].sum()
    return bool(top > 0.5 * mass.sum())


def test_heavy_tailed_equals_full_sort():
    # the partitioned top 1% is sorted before the sum, so the flag equals
    # the full sort's: with ties at the cut, fewer than 100 samples, mixed
    # signs, and with half the mass put exactly on the smaller of the sorted
    # and the partition-order top sums, where they differ by an ulp and an
    # unsorted sum flips the flag (seeds 6 and 17 with this numpy)
    rng = np.random.default_rng(17)
    cases = [np.array([]), np.array([-3.0]), np.array([1.0, -1.0]),
             rng.standard_normal(99), np.repeat([1.0, -2.0, 3.0], 400),
             np.round(rng.standard_normal(5000), 1)]
    n, m = 50_000, 500
    for seed in (6, 9, 16, 17):
        rng = np.random.default_rng(seed)
        x = np.concatenate([10 + rng.random(m), rng.random(n - m)])
        rng.shuffle(x)
        top = np.sort(x)[-m:].sum()
        target = 2 * min(top, np.partition(x, n - m)[-m:].sum())
        small = x < 1
        x[small] *= (target - top) / x[small].sum()
        for _ in range(100):  # nudge one small sample until the total is target
            x[np.flatnonzero(small)[0]] -= x.sum() - target
        x[rng.random(n) < 0.5] *= -1
        cases.append(x)
    flags = [walk.heavy_tailed(x) for x in cases]
    assert flags == [_heavy_tailed_by_sort(x) for x in cases]
    assert True in flags and False in flags
