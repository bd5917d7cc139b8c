"""Weak-form solver: masses, maximum principle, energy identity, Feynman-Kac."""

import dataclasses
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from gasketlab import (
    BsdeProblem,
    NumericOverflowError,
    UsageError,
    assemble_masses,
    build_level_graph,
    solve_dp,
    solve_weak_pde,
    feynman_kac_check,
    pde,
)
from gasketlab.harmonic import CellGradientTables
from gasketlab.measures import kusuoka_measure
from gasketlab.pde import BROWNIAN_GRADIENT_SCALE, stiffness_matrix
from gasketlab.walk import layer_at, step_duration
from gasketlab.problems import build_problem, validate_problem_dict

import pde_oracle


def bump(g):
    c = np.array([0.5, math.sqrt(3) / 6])
    pts = np.array([v.euclidean() for v in g.vertices])
    return np.exp(-8 * ((pts - c) ** 2).sum(axis=1))


def zero_g(t, x, u):
    return np.zeros_like(u)


def zero_f(t, x, u, z):
    return np.zeros_like(u)


def pair_of(spec):
    """feynman_kac_check's factory: the problem of spec for both solvers, at every level."""
    p = build_problem(spec)
    return lambda level: (p, p)


def test_assemble_masses_level0(graphs):
    mu, nu = assemble_masses(graphs(0))
    assert mu == [Fraction(1, 3)] * 3
    assert nu == [Fraction(1, 3)] * 3


def test_assemble_masses_level1_hand(graphs):
    g = graphs(1)
    mu, nu = assemble_masses(g)
    for v in g.vertices:
        expect = Fraction(1, 9) if v.is_boundary else Fraction(2, 9)
        assert mu[v.id] == expect
    assert sum(mu) == 1 and sum(nu) == 1


def test_assemble_masses_nu_level2_vs_measures(graphs):
    for m in range(6):
        g = graphs(m)
        mu, nu = assemble_masses(g)
        table = kusuoka_measure(m)
        expect_mu = [Fraction(0)] * g.n_vertices
        expect = [Fraction(0)] * g.n_vertices
        for w, corners in g.cells.items():
            for cvid in corners:
                expect_mu[cvid] += Fraction(1, 3) ** m / 3
                expect[cvid] += table.masses[w] / 3
        assert mu == expect_mu
        assert nu == expect
        assert sum(nu) == 1


@pytest.mark.parametrize("m", range(8))
def test_stiffness_matrix_equals_edge_loop(graphs, m):
    # the array build gives the bytes of the per-edge list build it replaced
    g = graphs(m)
    con = 0.5 * (5.0 / 3.0) ** m
    rows, cols, vals = [], [], []
    for a, b in g.edges:
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        vals += [-con, -con, con, con]
    expect = sp.csr_matrix((vals, (rows, cols)), shape=(g.n_vertices,) * 2)
    S = stiffness_matrix(g)
    for name in ("indptr", "indices", "data"):
        assert getattr(S, name).dtype == getattr(expect, name).dtype
        assert getattr(S, name).tobytes() == getattr(expect, name).tobytes()


def test_stiffness_is_graph_energy(graphs):
    g = graphs(2)
    S = stiffness_matrix(g)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.n_vertices)
    quad = float(u @ (S @ u))
    direct = 0.5 * (5.0 / 3.0) ** 2 * sum(
        (u[a] - u[b]) ** 2 for a, b in g.edges
    )
    assert abs(quad - direct) < 1e-10


def test_constant_solution_preserved(graphs):
    g = graphs(2)
    c = 0.7
    p = BsdeProblem(
        g=zero_g, f=zero_f, terminal_psi=np.full(g.n_vertices, c),
        horizon=0.5, boundary_phi=lambda t: np.full(3, c), duration="killed",
    )
    sol = solve_weak_pde(p, g)
    assert np.abs(sol.u - c).max() < 1e-12
    # the gradients start from corner differences: the constant terminal
    # layer gives exactly 0.0, the solved layers (constant to about 1 ulp)
    # about 1e-15, where the centred triple gave up to about 1e-8
    assert not sol.gradients[-1].any()
    assert np.abs(sol.gradients).max() < 1e-12


def test_maximum_principle_decay(graphs):
    g = graphs(3)
    p = BsdeProblem(
        g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=1.0, duration="killed",
    )
    sol = solve_weak_pde(p, g)
    sups = np.abs(sol.u).max(axis=1)
    assert all(sups[k] <= sups[k + 1] + 1e-13 for k in range(len(sups) - 1))
    assert sups[0] < 0.1 * sups[-1]  # heat decay with zero boundary


def test_step_guard(graphs):
    g = graphs(1)
    p = BsdeProblem(
        g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
        horizon=1.0, k0=4.0, duration="killed",
    )
    with pytest.raises(UsageError):
        solve_weak_pde(p, g, time_step=0.5)


def test_horizon_rounding_to_no_layer_rejected(graphs):
    # T = 0.001 at m = 2 is 0.075 steps; it used to return u = psi alone
    g = graphs(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=0.001, duration="killed")
    with pytest.raises(UsageError, match="horizon"):
        solve_weak_pde(p, g)


@pytest.mark.parametrize("field, value", [
    ("time_step", 0.0),        # used to raise ZeroDivisionError
    ("time_step", -0.01),
    ("horizon", math.nan),     # used to raise ValueError
    ("horizon", math.inf),     # used to raise OverflowError
])
def test_non_finite_or_empty_time_grid_rejected(graphs, field, value):
    g = graphs(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=value if field == "horizon" else 1.0, duration="killed")
    with pytest.raises(UsageError, match="finite"):
        solve_weak_pde(p, g, value if field == "time_step" else None)


def test_discrete_energy_identity(graphs):
    # for g=f=0, phi=0: mass decay matches 2 h sum_k E(u^k) to O(h)
    g = graphs(2)
    mu_ex, _ = assemble_masses(g)
    mu = np.array([float(x) for x in mu_ex])
    S = stiffness_matrix(g)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.5,
                    duration="killed")
    sol = solve_weak_pde(p, g)
    h = sol.time_step
    K = sol.u.shape[0] - 1
    mass_drop = float((mu * sol.u[K] ** 2).sum() - (mu * sol.u[0] ** 2).sum())
    dissipated = 2 * h * sum(float(sol.u[k] @ (S @ sol.u[k])) for k in range(K))
    assert abs(mass_drop - dissipated) / max(mass_drop, 1e-12) < 10 * h / 0.5


def test_linear_example_vs_closed_form(kernels, graphs):
    # the worked linear parabolic problem against the chain closed form
    from gasketlab.bsde import linear_closed_form

    spec = validate_problem_dict({
        "driver": {"name": "linear", "a": 0.4, "b": 0.2, "c": 0.3},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 1.0},
    })
    m = 4
    g, k = graphs(m), kernels(m)
    p = build_problem(spec)
    sol_pde = solve_weak_pde(p, g)
    cf = linear_closed_form(0.4, 0.2, 0.3, p, k, g)
    err = np.abs(sol_pde.u[0] - cf["Y0"]).max()
    assert err < 0.01


def test_residuals_reported(graphs):
    g = graphs(2)
    p = BsdeProblem(
        g=lambda t, x, u: -u, f=zero_f, terminal_psi=bump(g), horizon=0.2,
        duration="killed",
    )
    sol = solve_weak_pde(p, g)
    assert sol.residuals.shape == (int(round(0.2 / sol.time_step)),)
    assert np.isfinite(sol.residuals).all()
    assert sol.meta["max_imex_residual"] == float(sol.residuals.max()) > 0


def _add_at_average(g, tables, grads):
    """nu-weighted vertex average of cell values, summed with np.add.at."""
    num = np.zeros(g.n_vertices)
    den = np.zeros(g.n_vertices)
    np.add.at(num, tables.corners, (tables.nu * grads)[:, None])
    np.add.at(den, tables.corners, tables.nu[:, None])
    return num / den


@pytest.mark.parametrize("m", [2, 3, 4])
def test_residuals_equal_add_at_oracle(graphs, m):
    # layer k's residual re-evaluates the load at u^k with the average of
    # layer k's own gradients. The add.at average sums nu * grad / sum nu,
    # the package's W applies the weights sqrt(2) nu / sum nu, so the two
    # agree at the ulp level; an average carried one layer off misses by
    # 0.65-0.93 of the largest residual at these levels
    g = graphs(m)
    gfun = lambda t, x, u: -u + 0.1 * np.cos(t)
    ffun = lambda t, x, u, z: 0.5 * np.sin(u) + 0.25 * z
    p = BsdeProblem(g=gfun, f=ffun, terminal_psi=bump, horizon=0.1, duration="killed",
                    boundary_phi=lambda t: np.array([0.1 + t, 0.0, -0.2 * t]))
    sol = solve_weak_pde(p, g)
    mu_ex, nu_ex = assemble_masses(g)
    mu = np.array([float(x) for x in mu_ex])
    nu = np.array([float(x) for x in nu_ex])
    S = stiffness_matrix(g)
    tables = CellGradientTables(g)
    inter = np.ones(g.n_vertices, dtype=bool)
    inter[list(g.boundary_ids)] = False
    h, xs = sol.time_step, np.arange(g.n_vertices)
    expect = np.empty(len(sol.residuals))
    for k in range(len(expect)):
        t, uk = k * h, sol.u[k]
        z = _add_at_average(g, tables, BROWNIAN_GRADIENT_SCALE * sol.gradients[k])
        load = gfun(t, xs, uk) * mu + ffun(t, xs, uk, z) * nu
        res = (mu / h) * (uk - sol.u[k + 1]) + (S @ uk) - load
        expect[k] = float(np.abs(res[inter]).max())
    assert np.abs(sol.residuals - expect).max() <= 1e-10 * expect.max()


SIN_KILLED = {"driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
              "terminal": {"name": "bump"}, "duration": {"kind": "killed", "T": 0.25}}
PROBE_TIMES = (0.0, 0.0625, 0.125, 0.1875)
# the fk-ladder sups of the parent per-layer loop with SuperLU's plain (not
# transposed) solve
PLAIN_SOLVE_SUPS = {3: 0.00538330021865302, 4: 0.0008432991922922295,
                    5: 0.00022516996662524935}


def _fk_sup(u, h, Y, dt, g, horizon):
    """Largest |u - Y| over the V_2 probes at PROBE_TIMES, as the fk-ladder reads it."""
    ids = np.array([g.index_by_coord[(v.x, v.y)] for v in build_level_graph(2).vertices])
    return max(float(np.abs(u[layer_at(t, h, horizon)][ids] - Y[layer_at(t, dt, horizon)][ids]).max())
               for t in PROBE_TIMES)


def _assert_near_parent(sol, parent):
    """The three-product layer against the parent loop: u, gradients and
    residuals move at the ulp level only."""
    u, grads, residuals = parent
    assert np.abs(sol.u - u).max() <= 1e-14
    assert np.abs(sol.gradients - grads).max() <= 1e-13 * np.abs(grads).max()
    assert np.abs(sol.residuals - residuals).max() <= 1e-10 * residuals.max()


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_weak_pde_equals_per_layer_oracle(kernels, graphs, m):
    # the chain-only loop, its in-place products and the blocked residual
    # pass give the bytes of the three-product layer written per layer; the
    # parent loop is met to the ulp level, and the FK sups to 1e-11 relative
    g = graphs(m)
    p = build_problem(validate_problem_dict(SIN_KILLED))
    h = step_duration(m)
    sol = solve_weak_pde(p, g)
    u, grads, residuals = pde_oracle.solve_weak_pde_products(p, g, h)
    assert sol.u.tobytes() == u.tobytes()
    assert sol.gradients.tobytes() == grads.tobytes()
    assert sol.residuals.tobytes() == residuals.tobytes()
    _assert_near_parent(sol, pde_oracle.solve_weak_pde_parent(p, g, h))
    if m >= 3:
        Y, dt = solve_dp(p, kernels(m), g).Y, kernels(m).dt
        sup = _fk_sup(sol.u, sol.time_step, Y, dt, g, p.horizon)
        assert abs(sup - PLAIN_SOLVE_SUPS[m]) <= 1e-11 * PLAIN_SOLVE_SUPS[m]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_weak_pde_time_dependent_equals_per_layer_oracle(graphs, m):
    # g and f read t, and phi(t) slopes: the flat residual pass calls the
    # drivers with an array t and still gives the per-layer bytes
    g = graphs(m)
    p = BsdeProblem(g=lambda t, x, u: -u + 0.1 * np.cos(3.0 * t + x),
                    f=lambda t, x, u, z: 0.5 * np.sin(u) * (1.0 + t) + 0.25 * z,
                    terminal_psi=bump, horizon=0.1, duration="killed",
                    boundary_phi=lambda t: np.array([0.1 + t, 0.0, -0.2 * t]))
    h = step_duration(m)
    sol = solve_weak_pde(p, g)
    u, grads, residuals = pde_oracle.solve_weak_pde_products(p, g, h)
    assert sol.u.tobytes() == u.tobytes()
    assert sol.gradients.tobytes() == grads.tobytes()
    assert sol.residuals.tobytes() == residuals.tobytes()
    assert sol.meta["max_imex_residual"] == float(residuals.max())
    _assert_near_parent(sol, pde_oracle.solve_weak_pde_parent(p, g, h))


@pytest.mark.parametrize("m", range(1, 9))
def test_assemble_masses_equal_per_cell_oracle(graphs, m):
    # the int64 Y-route sums scattered with np.add.at give the Fractions of
    # the per-cell loop over kusuoka_measure, numerator and denominator
    # alike, as Python ints
    for got, ref in zip(assemble_masses(graphs(m)), pde_oracle.assemble_masses_by_cell(graphs(m))):
        pairs = [(x.numerator, x.denominator) for x in got]
        assert pairs == [(x.numerator, x.denominator) for x in ref]
        assert {type(v) for pair in pairs for v in pair} == {int}


@pytest.mark.parametrize("m", range(1, 7))
def test_interior_matrix_is_exactly_symmetric(graphs, m):
    # diag(mu/h) + S on the interior equals its transpose entry for entry,
    # so the transposed solve solves the same system
    g = graphs(m)
    mu = np.array([float(x) for x in assemble_masses(g)[0]])
    inter = np.ones(g.n_vertices, dtype=bool)
    inter[list(g.boundary_ids)] = False
    A = sp.csr_matrix(sp.diags(mu / step_duration(m)) + stiffness_matrix(g))[inter][:, inter]
    assert (A != A.T).nnz == 0


def test_weak_pde_keeps_no_whole_field_temporaries(graphs):
    # at m = 5, T = 1/4 the traced peak stays within 4 MB of the returned
    # arrays: no (K+1, V) residual or average field is made
    g = graphs(5)
    p = build_problem(validate_problem_dict(SIN_KILLED))
    solve_weak_pde(p, graphs(1))  # loads splu
    tracemalloc.start()
    try:
        sol = solve_weak_pde(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sol.u.nbytes + sol.gradients.nbytes + sol.residuals.nbytes
    assert peak <= kept + 4 * 2**20


@pytest.mark.parametrize("driver", ["g", "f"])
@pytest.mark.parametrize("value", [
    lambda u: 0.0,                     # used to end in AttributeError
    lambda u: np.zeros((2, u.size)),   # used to end in IndexError
    lambda u: np.zeros(u.size + 1),    # used to end in ValueError
])
def test_driver_of_the_wrong_shape_rejected(graphs, driver, value):
    g = graphs(2)
    drivers = {"g": zero_g, "f": zero_f}
    drivers[driver] = lambda t, x, u, *z: value(u)
    p = BsdeProblem(g=drivers["g"], f=drivers["f"], terminal_psi=bump, horizon=0.1,
                    duration="killed")
    with pytest.raises(UsageError, match=f"driver {driver} returned shape"):
        solve_weak_pde(p, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_terminal_data_rejected(kernels, graphs, bad):
    # a killed m = 2 DP used to return 108 NaN entries of 135, and the weak
    # solve a NaN max_imex_residual
    g = graphs(2)
    psi = bump(g)
    psi[7] = bad
    with pytest.raises(UsageError, match="finite"):
        solve_weak_pde(BsdeProblem(g=zero_g, f=zero_f, terminal_psi=psi, horizon=0.1,
                                   duration="killed"), g)
    bp = BsdeProblem(g=lambda t, x, y: np.zeros_like(y), f=lambda t, x, y, z: np.zeros_like(y),
                     terminal_psi=psi, horizon=0.1, duration="killed")
    with pytest.raises(UsageError, match="finite"):
        solve_dp(bp, kernels(2), g)


@pytest.mark.filterwarnings("error")
def test_blow_up_is_a_typed_error(graphs):
    # g = 5u^2 from terminal value 3 at m = 2: u used to hold 228 NaN entries
    # and max_imex_residual nan
    g = graphs(2)
    p = BsdeProblem(g=lambda t, x, u: 5 * u * u, f=zero_f, horizon=0.5, duration="killed",
                    terminal_psi=np.full(g.n_vertices, 3.0))
    with pytest.raises(NumericOverflowError, match="not finite from layer"):
        solve_weak_pde(p, g)


@pytest.mark.filterwarnings("error")
def test_non_finite_phi_comes_before_an_overflowing_driver(graphs):
    # g = 5u^2 from 3 overflows at m = 2 (NumericOverflowError); with a NaN
    # phi near T as well, the phi check after the loop raises first
    g = graphs(2)
    p = BsdeProblem(g=lambda t, x, u: 5 * u * u, f=zero_f, horizon=0.5, duration="killed",
                    terminal_psi=np.full(g.n_vertices, 3.0))
    with pytest.raises(NumericOverflowError, match="u and gradients not finite from layer"):
        solve_weak_pde(p, g)
    bad = dataclasses.replace(
        p, boundary_phi=lambda t: np.array([math.nan if t > 0.45 else 0.0, 0.0, 0.0]))
    with pytest.raises(UsageError, match="boundary data must be finite"):
        solve_weak_pde(bad, g)


def test_realized_horizon_reported(graphs):
    # T = 0.25 at m = 4 is 468.75 steps; the solve runs 469 layers
    g = graphs(4)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump, horizon=0.25, duration="killed")
    sol = solve_weak_pde(p, g)
    assert sol.u.shape[0] == 470
    assert sol.meta["realized_horizon"] == 469 * sol.time_step


def test_feynman_kac_probe_time_outside_horizon_rejected():
    spec = validate_problem_dict({
        "driver": {"name": "zero"},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 0.5},
    })

    make = pair_of(spec)

    for t in (-0.25, 0.75):
        with pytest.raises(UsageError, match="probe times"):
            feynman_kac_check(make, [2], [0.0, t])


def test_feynman_kac_horizon_must_match_the_problem():
    spec = validate_problem_dict({
        "driver": {"name": "zero"},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 0.5},
    })

    make = pair_of(spec)

    for horizon in (1.0, 0.25, 0.5 * (1 + 1e-9)):
        with pytest.raises(UsageError, match="horizon"):
            feynman_kac_check(make, [2], [0.0, 0.25], horizon=horizon)
    given = feynman_kac_check(make, [2], [0.0, 0.25], horizon=0.5 * (1 + 1e-14))
    assert given == feynman_kac_check(make, [2], [0.0, 0.25])


def test_level_zero_rejected_before_assembly(monkeypatch):
    # V_0 has no interior vertex: both used to end in a bare ValueError from
    # the residual maximum, after the whole solve
    spec = validate_problem_dict({
        "driver": {"name": "zero"},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 0.5},
    })

    make = pair_of(spec)

    def no_assembly(g):
        raise AssertionError("assembled")

    for name in ("_mass_numerators", "assemble_masses"):
        monkeypatch.setattr(pde, name, no_assembly)
    with pytest.raises(UsageError, match="interior"):
        solve_weak_pde(make(0)[0], build_level_graph(0))
    with pytest.raises(UsageError, match="interior"):
        feynman_kac_check(make, [0], [0.0, 0.25], probe_level=0)


def test_deterministic_problem_rejected_before_assembly(monkeypatch, graphs):
    # the weak solver pins phi on V_0; psi = 1 with a zero driver used to give
    # u_0 between 0.0 and 0.487 where the reflected problem has u = 1
    g = graphs(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.ones(g.n_vertices), horizon=0.25)

    def no_assembly(g):
        raise AssertionError("assembled")

    for name in ("_mass_numerators", "assemble_masses"):
        monkeypatch.setattr(pde, name, no_assembly)
    with pytest.raises(UsageError, match="killed"):
        solve_weak_pde(p, g)


def test_feynman_kac_rejects_a_pair_that_disagrees():
    # a pair with T = 0.5 and T = 0.25 used to be compared on [0, 0.25] and
    # return a sup of 0.292 as an ordinary report
    spec = {"driver": {"name": "zero"}, "terminal": {"name": "bump"},
            "duration": {"kind": "killed", "T": 0.5}}
    p = build_problem(validate_problem_dict(spec))
    short = build_problem(validate_problem_dict({**spec, "duration": {"kind": "killed", "T": 0.25}}))
    reflected = build_problem(validate_problem_dict(
        {**spec, "duration": {"kind": "deterministic", "T": 0.5}}))
    for other in (short, reflected):
        for pair in ((p, other), (other, p)):
            with pytest.raises(UsageError, match="differs in horizon or duration"):
                feynman_kac_check(lambda m: pair, [2], [0.0, 0.125])


def test_package_exports_one_problem_type():
    import gasketlab

    # the weak solver's own problem class and its killed-only guard are gone
    assert [n for n in gasketlab.__all__ if n.endswith("Problem")] == ["BsdeProblem"]
    assert [n for n in dir(pde) if n.endswith("Problem")] == ["BsdeProblem"]
    assert not [n for n in dir(pde) if n.startswith("require")]


def test_package_exports_every_name_but_no_module():
    import gasketlab

    # importing the names binds the submodules too; a star import binds none
    public = {n for n in dir(gasketlab) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(gasketlab, n), types.ModuleType)}
    assert modules >= {"bounds", "bsde", "errors", "exact", "gasket", "harmonic",
                       "measures", "pde", "walk"}
    assert gasketlab.__all__ == sorted(public - modules)
    star = {}
    exec("from gasketlab import *", star)
    assert not [n for n, v in star.items() if isinstance(v, types.ModuleType)]


def test_problem_is_frozen():
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(6), horizon=0.5,
                    duration="killed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.horizon = 0.25
    assert p.boundary_phi(0.1).tolist() == [0.0, 0.0, 0.0]


def test_feynman_kac_rejects_a_deterministic_duration():
    # the weak solver pins phi on V_0, so it solves the killed problem; this
    # ladder used to return sups of 0.509 and 0.527 as an ordinary report
    spec = validate_problem_dict({
        "driver": {"name": "sin"},
        "terminal": {"name": "bump"},
        "duration": {"kind": "deterministic", "T": 0.25},
    })
    with pytest.raises(UsageError, match="killed"):
        feynman_kac_check(pair_of(spec), [2, 3], [0.0, 0.125])


def test_feynman_kac_driverless_tiny_gap(kernels, graphs):
    spec = validate_problem_dict({
        "driver": {"name": "zero"},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 0.5},
    })

    make = pair_of(spec)

    rep = feynman_kac_check(make, [3], [0.0, 0.25], horizon=0.5)
    # same linear algebra up to the stepping scheme: gap is time-discretization only
    assert rep["sup_errors"][0] < 5e-3


def test_feynman_kac_decreasing_small_ladder():
    spec = validate_problem_dict({
        "driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 1.0},
    })

    make = pair_of(spec)

    rep = feynman_kac_check(make, [2, 3, 4], [0.0, 0.25, 0.5, 0.75])
    assert rep["decreasing"]


def test_refinement_consistency(graphs):
    # solutions restricted to V_2 probes form a Cauchy trend over levels
    spec = validate_problem_dict({
        "driver": {"name": "sin", "a": -1.0, "fy": 0.5, "fz": 0.25},
        "terminal": {"name": "bump"},
        "duration": {"kind": "killed", "T": 0.5},
    })
    probe = [(v.x, v.y) for v in graphs(2).vertices]
    fields = []
    for m in (2, 3, 4):
        g = graphs(m)
        sol = solve_weak_pde(build_problem(spec), g)
        ids = [g.index_by_coord[c] for c in probe]
        fields.append(sol.u[0][ids])
    d1 = np.abs(fields[1] - fields[0]).max()
    d2 = np.abs(fields[2] - fields[1]).max()
    assert d2 < d1


def test_terminal_row_and_mismatch_from_the_shared_terminal_helper(graphs):
    # the terminal row is bsde._pinned_terminal's: psi off V_0 and phi(T)
    # on it, psi evaluated once; the mismatch is max |psi - phi(T)| on V_0
    g = graphs(3)
    calls = []

    def psi(graph):
        calls.append(graph)
        return bump(graph)

    phi = lambda t: np.array([0.1 + t, -0.3, 0.2 * t])  # noqa: E731
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=psi, horizon=0.1, duration="killed",
                    boundary_phi=phi)
    sol = solve_weak_pde(p, g)
    assert calls == [g]
    b = bump(g)
    assert sol.u[-1, :3].tolist() == phi(0.1).tolist()
    assert sol.u[-1, 3:].tobytes() == b[3:].tobytes()
    assert sol.meta["terminal_boundary_mismatch"] == float(np.abs(b[:3] - phi(0.1)).max())


def test_feynman_kac_evaluates_a_shared_terminal_once_per_level():
    # both problems hold one callable terminal: the check evaluates it once
    # per rung and gives the sups of two problems that each evaluate their own
    spec = validate_problem_dict(SIN_KILLED)
    p = build_problem(spec)
    calls = []

    def psi(graph):
        calls.append(graph.level)
        return p.terminal_psi(graph)

    shared = dataclasses.replace(p, terminal_psi=psi)
    rep = feynman_kac_check(lambda m: (shared, shared), (2, 3), PROBE_TIMES)
    assert calls == [2, 3]
    own = dataclasses.replace(p, terminal_psi=lambda graph: p.terminal_psi(graph))
    apart = feynman_kac_check(lambda m: (shared, own), (2, 3), PROBE_TIMES)
    assert calls == [2, 3, 2, 3]
    assert rep["sup_errors"] == apart["sup_errors"]
    assert rep["errors"] == apart["errors"]


@pytest.mark.parametrize("m", range(1, 9))
def test_float_masses_equal_the_fractions(graphs, m):
    # solve_weak_pde divides the integer numerators as floats: both operands
    # are exact below 2^53, so each mass is float(Fraction), bit for bit
    cells, mu_den, nu_num, nu_den = pde._mass_numerators(graphs(m))
    mu_ex, nu_ex = assemble_masses(graphs(m))
    assert (cells / mu_den).tobytes() == np.array([float(x) for x in mu_ex]).tobytes()
    assert (nu_num / nu_den).tobytes() == np.array([float(x) for x in nu_ex]).tobytes()
