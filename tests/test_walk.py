"""Step-kernel invariants and walk statistics."""

import math
from fractions import Fraction

import kernel_oracle
import numpy as np
import pytest
import walk_oracle
from numpy.random import Generator, Philox

from gasketlab import (
    UsageError,
    WalkConfig,
    ensemble_qv_stats,
    exit_time_stats,
    expint_estimate,
    harmonic_restrict,
    occupation_histogram,
    simulate_paths,
)
from gasketlab.harmonic import CellGradientTables
from gasketlab.measures import hausdorff_measure
from gasketlab.walk import (
    ensemble_qv_snapshots,
    exact_exit_steps,
    kernel_moment_defects,
    layer_at,
    layer_count,
    step_duration,
    walk_steps,
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
    for name in ("nbr", "deg", "dW", "dqv", "direction", "is_boundary", "mu_weight",
                 "h_values"):
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
    h = k.h_values
    for x in range(k.n_vertices):
        if k.is_boundary[x]:
            continue
        nb = list(g.neighbors_of[x])
        assert np.abs(h[nb].mean(axis=0) - h[x]).max() < 1e-13


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_transition_operators(kernels, m):
    k = kernels(m)
    ones = np.ones(k.n_vertices)
    assert np.array_equal(k.P @ ones, ones)
    assert np.abs(k.Q @ ones).max() < 1e-15  # dW has conditional mean zero
    inter = ~k.is_boundary
    for i in range(3):
        h = k.h_values[:, i]
        assert np.abs((k.P @ h - h)[inter]).max() < 1e-13


def test_direction_sign_convention(kernels):
    k = kernels(2)
    for x in range(k.n_vertices):
        e = k.direction[x]
        assert e[0] < 1e-13
        if abs(e[0]) < 1e-13:
            assert e[1] > 0
    # the corner p1 row has exactly zero h1 component
    assert abs(k.direction[0][0]) < 1e-13


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


@pytest.mark.parametrize("m, killed, start", WALK_CASES)
def test_walk_steps_equal_two_branch_oracle(kernels, m, killed, start):
    # live-index steps from raw bytes vs a full-width mask-form step on the
    # same bytes, one Philox key; compacted yields are scattered to all paths
    k = kernels(m)
    n_paths, n_steps = 400, 2 * 5**m + 5
    if start == "mu":
        pos = Generator(Philox(key=[3, 1])).choice(k.n_vertices, n_paths, p=k.mu_weight)
    else:
        ids = np.nonzero(k.is_boundary == (start == "V0"))[0]
        pos = np.full(n_paths, ids[-1], dtype=np.int64)
    ours = walk_steps(k, pos, n_steps, Generator(Philox(key=[17, m])), killed)
    ref = walk_oracle.walk_steps(k, pos, n_steps, Generator(Philox(key=[17, m])), killed)
    full_pos = pos.copy()
    count = 0
    for (k1, idx, slot1, nxt), (k2, live, slot2, pos2) in zip(ours, ref, strict=True):
        assert k1 == k2 == count
        rows = slice(None) if idx is None else idx
        full_slot = np.full(n_paths, -1, dtype=np.int64)
        full_slot[rows] = slot1
        full_pos[rows] = nxt
        assert same_bytes(full_slot, slot2) and same_bytes(full_pos, pos2), k1
        assert killed or idx is None
        count += 1
    assert count == n_steps
    if killed:  # the run reaches stopped paths
        assert not live.all() and len(idx) < n_paths


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
