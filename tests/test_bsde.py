"""Chain BSDE solvers: DP, Picard iteration, V^beta norms, linear closed form."""

import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from gasketlab import (
    BetaWeights,
    BsdeProblem,
    CapacityError,
    DeclaredConstantError,
    NumericOverflowError,
    SchemeError,
    UsageError,
    WalkConfig,
    contraction_constant,
    harmonic_extend_to_level,
    monotonicity_check,
    picard_iterate,
    simulate_paths,
    solve_dp,
    vbeta_norm,
)
from gasketlab import bsde, walk
from gasketlab.bsde import _vbeta_norm_on, linear_closed_form
from gasketlab.pde import solve_weak_pde
from gasketlab.problems import make_drivers
from gasketlab.walk import layer_count

import kernel_oracle
import vbeta_oracle


def bump(g):
    c = np.array([0.5, math.sqrt(3) / 6])
    pts = np.array([v.euclidean() for v in g.vertices])
    return np.exp(-8 * ((pts - c) ** 2).sum(axis=1))


def zero_g(t, x, y):
    return np.zeros_like(y)


def zero_f(t, x, y, z):
    return np.zeros_like(y)


# --- driverless and constant cases ---------------------------------------------

def test_driverless_constant_terminal(kernels, graphs):
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.full(g.n_vertices, 3.5),
                    horizon=0.5)
    sol = solve_dp(p, k, g)
    assert np.abs(sol.Y - 3.5).max() < 1e-12
    assert np.abs(sol.Z[:-1]).max() < 1e-12


def test_driverless_harmonic_is_invariant(kernels, graphs):
    # harmonic terminal data with matching boundary pins stays fixed (killed)
    g, k = graphs(2), kernels(2)
    tab = harmonic_extend_to_level((Fraction(1), Fraction(0), Fraction(0)), 2, g)
    h1 = np.array([float(x) for x in tab])
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=h1, horizon=0.5,
                    duration="killed",
                    boundary_phi=lambda t: np.array([1.0, 0.0, 0.0]))
    sol = solve_dp(p, k, g)
    assert np.abs(sol.Y - h1[None, :]).max() < 1e-12


def test_driverless_z_tracks_gradient_sign(kernels, graphs):
    # for the invariant h1 field, Z is the covariation gradient: negative
    g, k = graphs(3), kernels(3)
    tab = harmonic_extend_to_level((Fraction(1), Fraction(0), Fraction(0)), 3, g)
    h1 = np.array([float(x) for x in tab])
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=h1, horizon=0.1,
                    duration="killed",
                    boundary_phi=lambda t: np.array([1.0, 0.0, 0.0]))
    sol = solve_dp(p, k, g)
    inter = ~k.is_boundary
    z = sol.Z[0][inter]
    assert (z <= 1e-12).all()  # zero only where h1 is locally flat
    strong = np.abs(kernel_oracle.directions(g)[inter][:, 0]) > 0.1
    assert (z[strong] < 0).all()


def test_z_energy_converges_to_twice_isometric(kernels, graphs):
    # sum_x mu_x Z^2 dqv/dt -> 2 E(h1) = 2 under refinement: the covariation
    # variable carries twice the isometric gradient's energy density
    totals = []
    for m in (2, 3, 4):
        g, k = graphs(m), kernels(m)
        tab = harmonic_extend_to_level((Fraction(1), Fraction(0), Fraction(0)), m, g)
        h1 = np.array([float(x) for x in tab])
        yn = h1[k.nbr]
        ez = np.where(k.deg == 4, (yn * k.dW).sum(axis=1) / 4,
                      (yn[:, :2] * k.dW[:, :2]).sum(axis=1) / 2)
        assert np.array_equal(k.Q @ h1, ez)
        zfield = ez / k.dqv
        totals.append(float((k.mu_weight * zfield**2 * k.dqv).sum() / k.dt))
    assert totals[0] < totals[1] < totals[2] < 2.0
    assert abs(totals[-1] - 2.0) < 0.25


def test_comparison_nonnegative(kernels, graphs):
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.5)
    sol = solve_dp(p, k, g)
    assert (sol.Y >= -1e-15).all()


# --- linear closed form ----------------------------------------------------------

def test_linear_trivial_cases(kernels, graphs):
    g, k = graphs(2), kernels(2)
    psi = bump(g)
    p0 = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=psi, horizon=1.0)
    cf = linear_closed_form(0.0, 0.0, 0.0, p0, k, g)
    sol = solve_dp(p0, k, g)
    assert np.abs(cf["Y0"] - sol.Y[0]).max() < 1e-13

    # a=1, b=c=0, psi=1: Y0 = e^T via the compounded discrete exponential
    ones = np.ones(g.n_vertices)
    p1 = BsdeProblem(g=lambda t, x, y: y, f=zero_f, terminal_psi=ones,
                     horizon=1.0, k0=2.0)
    cf1 = linear_closed_form(1.0, 0.0, 0.0, p1, k, g)
    K = int(round(1.0 / k.dt))
    discrete_e = (1.0 + k.dt) ** K
    assert np.abs(cf1["Y0"] - discrete_e).max() < 1e-12
    assert abs(discrete_e - math.e) < 0.02


def test_linear_dp_vs_weighted_expectation(kernels, graphs):
    g, k = graphs(3), kernels(3)
    psi = bump(g)
    a, b, c = 0.5, 0.3, 0.4
    p = BsdeProblem(
        g=lambda t, x, y: a * y,
        f=lambda t, x, y, z: b * y + c * z,
        terminal_psi=psi, horizon=1.0, k0=2 * max(a, b), k1=c,
    )
    sol = solve_dp(p, k, g)
    cf = linear_closed_form(a, b, c, p, k, g)
    assert np.abs(sol.Y[0] - cf["Y0"]).max() < 1e-12
    assert np.abs(sol.Z[0] - cf["Z0"]).max() < 1e-12


def test_closed_form_z0_zero_on_boundary_when_killed(kernels, graphs):
    # Z_0 is pinned to 0 on V_0 by solve_dp; the closed form used to report
    # the covariation ratio there (2.1e-3 at one corner on this problem)
    g, k = graphs(4), kernels(4)
    a, b, c = 0.5, 0.3, 0.4
    p = BsdeProblem(
        g=lambda t, x, y: a * y, f=lambda t, x, y, z: b * y + c * z,
        terminal_psi=bump(g), horizon=0.05, k0=1.0, k1=c, duration="killed",
        boundary_phi=lambda t: np.array([0.2 + 2.0 * t, -0.1 + t, 0.3 - 3.0 * t]),
    )
    cf = linear_closed_form(a, b, c, p, k, g)
    sol = solve_dp(p, k, g)
    assert np.abs(cf["Z0"] - sol.Z[0]).max() < 1e-12
    assert np.abs(cf["Y0"] - sol.Y[0]).max() < 1e-12
    assert (cf["Z0"][k.is_boundary] == 0.0).all()


def test_linear_qv_exponential_matches_expint(kernels, graphs):
    # a=0, b=1, c=0, psi=1: Y0(x) = E_x[e-compounded <W>], close to expint
    from gasketlab import expint_estimate

    g, k = graphs(3), kernels(3)
    ones = np.ones(g.n_vertices)
    p = BsdeProblem(g=zero_g, f=lambda t, x, y, z: y, terminal_psi=ones,
                    horizon=1.0, k0=2.0)
    cf = linear_closed_form(0.0, 1.0, 0.0, p, k, g)
    start = 7
    cfg = WalkConfig(level=3, horizon=1.0, path_count=20000, seed=13, start=start)
    rep = expint_estimate(cfg, k, 1.0, t=1.0, g=g)
    lo, hi = rep["ci95"]
    spread = max(hi - lo, 1e-3)
    assert abs(cf["Y0"][start] - rep["estimate"]) < 3 * spread


def test_linear_mc_agrees(kernels, graphs):
    g, k = graphs(3), kernels(3)
    psi = bump(g)
    p = BsdeProblem(
        g=lambda t, x, y: 0.5 * y,
        f=lambda t, x, y, z: 0.3 * y + 0.4 * z,
        terminal_psi=psi, horizon=1.0, k0=1.0, k1=0.4,
    )
    cf = linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=[0, 9],
                            mc_paths=20000, seed=2)
    for s, est in cf["mc"].items():
        err = abs(est["estimate"] - cf["Y0"][s])
        assert err < 3 * est["stderr"]
        assert err / abs(cf["Y0"][s]) < 0.02
        assert not est["unstable"]


def _recorded_linear_mc(a, b, c, p, k, g, start, paths, seed):
    """The weighted MC's estimate and stderr, rebuilt from recorded paths.

    simulate_paths with the MC's walk config walks the same stream; each path
    weighs prod (1 + a dt + b dqv + c dW) over its steps before a V_0 hit by
    psi(X_K), or by phi(hit time) at the corner hit. Also returns how many
    negative step weights the paths took.
    """
    cfg = WalkConfig(level=k.level, horizon=p.horizon, path_count=paths, seed=seed,
                     killed=p.duration == "killed", start=start)
    ens = simulate_paths(cfg, k, g)
    hit = ens.hit_step
    steps = np.arange(ens.n_steps)
    live = (hit[:, None] < 0) | (steps < hit[:, None])
    w = np.where(live, 1.0 + a * k.dt + b * ens.dqv + c * ens.dW, 1.0)
    value = p.terminal_psi[ens.vertices[:, -1]]
    for i in np.flatnonzero(hit > 0):
        value[i] = p.boundary_phi(hit[i] * k.dt)[ens.vertices[i, hit[i]]]
    samples = w.prod(axis=1) * value
    return samples.mean(), samples.std(ddof=1) / math.sqrt(paths), int((w < 0).sum())


@pytest.mark.parametrize("m, c, duration, horizon, paths", [
    (1, 6.0, "deterministic", 1.0, 30_000),  # two blocks; some step weights < 0
    (1, 6.0, "killed", 1.0, 30_000),
    (3, 0.4, "killed", 0.5, 3_000),
])
def test_linear_mc_equals_recorded_path_oracle(kernels, graphs, m, c, duration,
                                               horizon, paths):
    g, k = graphs(m), kernels(m)
    a, b = 0.5, 0.3
    p = BsdeProblem(g=lambda t, x, y: a * y, f=lambda t, x, y, z: b * y + c * z,
                    terminal_psi=bump(g), horizon=horizon, duration=duration,
                    boundary_phi=lambda t: np.array([0.2 + 0.1 * t, -0.4 * t, 0.3]))
    starts = [4, 5] if m == 1 else [5, 9]
    mc = linear_closed_form(a, b, c, p, k, g, mc_starts=starts, mc_paths=paths,
                            seed=21)["mc"]
    negative = 0
    for i, s in enumerate(starts):
        mean, stderr, neg = _recorded_linear_mc(a, b, c, p, k, g, s, paths, 21 + i)
        assert abs(mc[s]["estimate"] - mean) <= 1e-12 * abs(mean)
        assert abs(mc[s]["stderr"] - stderr) <= 1e-12 * stderr
        negative += neg
    assert (negative > 0) == (c == 6.0)


@pytest.mark.parametrize("starts, paths, match", [
    ([-1], 100, "not vertices"),   # used to walk from vertex 14 and report key -1
    ([0, 99], 100, "not vertices"),  # used to raise a bare IndexError
    ([0], -5, "mc_paths"),         # used to raise a bare ValueError
    ([0], 1, "mc_paths"),          # used to return a NaN stderr
])
def test_linear_mc_rejects_bad_input(kernels, graphs, starts, paths, match):
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.2)
    with pytest.raises(UsageError, match=match):
        linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=starts, mc_paths=paths)


def test_homogeneity_doubling(kernels, graphs):
    g, k = graphs(2), kernels(2)
    psi = bump(g)
    p1 = BsdeProblem(g=lambda t, x, y: 0.3 * y,
                     f=lambda t, x, y, z: 0.2 * y + 0.1 * z,
                     terminal_psi=psi, horizon=0.5, k0=0.6, k1=0.1)
    p2 = BsdeProblem(g=p1.g, f=p1.f, terminal_psi=2 * psi, horizon=0.5,
                     k0=0.6, k1=0.1)
    s1, s2 = solve_dp(p1, k, g), solve_dp(p2, k, g)
    assert np.abs(s2.Y - 2 * s1.Y).max() < 1e-12
    assert np.abs(s2.Z - 2 * s1.Z).max() < 1e-12


# --- schemes ----------------------------------------------------------------------

def test_picard_in_step_matches_explicit_to_order_dt(kernels, graphs):
    g, k = graphs(2), kernels(2)
    psi = bump(g)
    p = BsdeProblem(g=lambda t, x, y: -y, f=lambda t, x, y, z: 0.5 * np.sin(y),
                    terminal_psi=psi, horizon=0.5, k0=2.0, k1=0.0)
    se = solve_dp(p, k, g, scheme="explicit")
    si = solve_dp(p, k, g, scheme="picard-in-step")
    assert si.iterations > 0
    assert np.abs(se.Y[0] - si.Y[0]).max() < 5 * k.dt


def test_unknown_scheme_rejected(kernels, graphs):
    g, k = graphs(1), kernels(1)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=0.2)
    with pytest.raises(UsageError):
        solve_dp(p, k, g, scheme="midpoint")


def test_horizon_rounding_to_no_layer_rejected(kernels, graphs):
    # T = 0.001 at m = 2 is 0.075 steps; it used to return Y = psi alone
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=0.001)
    with pytest.raises(UsageError, match="horizon"):
        solve_dp(p, k, g)


@pytest.mark.parametrize("horizon", (math.nan, math.inf))
def test_non_finite_horizon_rejected(kernels, graphs, horizon):
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=horizon)
    with pytest.raises(UsageError, match="finite"):
        solve_dp(p, k, g)


def test_realized_horizon_reported(kernels, graphs):
    # T = 0.25 at m = 4 is 468.75 steps; the chain runs 469 of them
    g, k = graphs(4), kernels(4)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.25)
    sol = solve_dp(p, k, g)
    assert sol.n_steps == 469
    assert sol.meta["realized_horizon"] == 469 * k.dt


def phi_bad_at(when, bad, horizon):
    """phi, zero except bad on p1 at t = 0, inside [0.4 T, 0.6 T], or from T on."""
    def phi(t):
        hit = {"0": t == 0, "interior": 0.4 * horizon <= t <= 0.6 * horizon,
               "T": t >= horizon}[when]
        return np.array([bad if hit else 0.0, 0.0, 0.0])
    return phi


def killed_linear(g, phi, horizon=0.05):
    gf, ff, k0, k1 = make_drivers({"driver": {"name": "linear", "a": 0.3, "b": 0.2, "c": 0.1}})
    return BsdeProblem(g=gf, f=ff, terminal_psi=bump(g), horizon=horizon, k0=k0, k1=k1,
                       duration="killed", boundary_phi=phi)


# an interior inf meets inf - inf in the layers before the check after the
# loop, which run with numpy's warnings off, so no RuntimeWarning comes first
@pytest.mark.parametrize("when", ("T", "interior", "0"))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("solver", ("explicit", "picard-in-step", "picard", "closed-form",
                                    "weak-pde"))
def test_non_finite_boundary_data_rejected(kernels, graphs, solver, bad, when):
    # at m = 2, T = 0.05 a NaN phi used to leave 33 of 75 DP entries, 13 of
    # 15 closed-form Y0 entries and 53 of 75 entries of the weak solve's u NaN
    # (max_imex_residual nan); picard-in-step ended in SchemeError
    g, k = graphs(2), kernels(2)
    p = killed_linear(g, phi_bad_at(when, bad, 0.05))
    solve = {
        "weak-pde": lambda: solve_weak_pde(BsdeProblem(
            g=p.g, f=p.f, terminal_psi=bump, horizon=0.05, duration="killed",
            boundary_phi=p.boundary_phi), g),
        "explicit": lambda: solve_dp(p, k, g),
        "picard-in-step": lambda: solve_dp(p, k, g, scheme="picard-in-step"),
        "picard": lambda: picard_iterate(
            p, k, 2, simulate_paths(WalkConfig(level=2, horizon=0.05, path_count=20, seed=1),
                                    k, g), BetaWeights(1, 1), g),
        "closed-form": lambda: linear_closed_form(0.3, 0.2, 0.1, p, k, g),
    }[solver]
    with pytest.raises(UsageError, match="boundary data must be finite"):
        solve()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme, error", (("explicit", NumericOverflowError),
                                           ("picard-in-step", SchemeError)))
def test_dp_blow_up_is_a_typed_error(kernels, graphs, scheme, error):
    # g = y^2 from terminal value 3 leaves the float range before T = 2; at m = 2
    # the explicit DP used to return 1680 NaN and 15 inf entries of Y
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=lambda t, x, y: y * y, f=lambda t, x, y, z: np.zeros_like(y),
                    terminal_psi=np.full(g.n_vertices, 3.0), horizon=2.0)
    with pytest.raises(error, match="not finite from layer" if error is NumericOverflowError
                       else "did not converge"):
        solve_dp(p, k, g, scheme=scheme)


@pytest.mark.filterwarnings("error")
def test_closed_form_blow_up_is_a_typed_error(kernels, graphs):
    # a = 50 at m = 2 multiplies Y by 3 per step, past the float range in 1000 steps
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=None, f=None, terminal_psi=np.full(g.n_vertices, 3.0), horizon=40.0)
    with pytest.raises(NumericOverflowError, match="closed form is not finite"):
        linear_closed_form(50.0, 0.0, 0.0, p, k, g)
    killed = dataclasses.replace(p, duration="killed", boundary_phi=lambda t: np.ones(3))
    with pytest.raises(NumericOverflowError, match="closed form is not finite"):
        linear_closed_form(50.0, 0.0, 0.0, killed, k, g)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", ("explicit", "picard-in-step", "closed-form"))
def test_non_finite_phi_comes_before_an_overflowing_driver(kernels, graphs, solver):
    # both faults in one killed problem: the phi check runs first, so the
    # UsageError wins over the NumericOverflowError the same driver gives
    # with finite phi (picard-in-step: over the SchemeError, as phi is bad
    # above the layer that fails to converge)
    g, k = graphs(2), kernels(2)
    T = 40.0 if solver == "closed-form" else 0.5
    p = BsdeProblem(g=lambda t, x, y: 5 * y * y, f=lambda t, x, y, z: np.zeros_like(y),
                    terminal_psi=np.full(g.n_vertices, 3.0), horizon=T, duration="killed",
                    boundary_phi=lambda t: np.array([math.nan if t > 0.9 * T else 0.0, 0.0, 0.0]))
    solve = {"explicit": lambda q: solve_dp(q, k, g),
             "picard-in-step": lambda q: solve_dp(q, k, g, scheme="picard-in-step"),
             "closed-form": lambda q: linear_closed_form(50.0, 0.0, 0.0, q, k, g)}[solver]
    fault = {"explicit": (NumericOverflowError, "Y and Z not finite from layer"),
             "picard-in-step": (SchemeError, "did not converge"),
             "closed-form": (NumericOverflowError, "closed form is not finite in Y0")}[solver]
    with pytest.raises(fault[0], match=fault[1]):
        solve(dataclasses.replace(p, boundary_phi=lambda t: np.zeros(3)))
    with pytest.raises(UsageError, match="boundary data must be finite"):
        solve(p)


def refuses_below(T):
    """A zero driver g that raises SchemeError on every layer below T/2."""
    def g(t, x, y):
        if np.min(t) < T / 2:
            raise SchemeError("driver refused a layer", {"t": float(np.min(t))})
        return np.zeros_like(y)
    return g


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("solver", ("explicit", "picard-in-step", "picard", "closed-form",
                                    "weak-pde"))
def test_non_finite_phi_below_a_failing_layer_comes_first(kernels, graphs, solver):
    # phi is NaN at t = 0 only, below the layer that fails. Every phi(t) is
    # evaluated and checked before any layer runs, so UsageError wins; a
    # check after the loop, or only above a layer that raised, gave the
    # layer's SchemeError instead. Picard evaluates its drivers before the
    # loop, so its fault is an overflowing iterate; the closed form has none,
    # so its fault is its own growth
    g, k = graphs(2), kernels(2)
    T = 40.0 if solver == "closed-form" else 0.05
    p = BsdeProblem(g=refuses_below(T), f=zero_f, terminal_psi=np.full(g.n_vertices, 3.0),
                    horizon=T, duration="killed",
                    boundary_phi=lambda t: np.array([math.nan if t == 0 else 0.0, 0.0, 0.0]))
    if solver == "picard":
        p = dataclasses.replace(p, g=lambda t, x, y: 5 * y * y)
        paths = simulate_paths(WalkConfig(level=2, horizon=T, path_count=20, seed=1), k, g)
        huge = np.full((layer_count(T, k.dt) + 1, g.n_vertices), 1e200)
    solve = {
        "explicit": lambda q: solve_dp(q, k, g),
        "picard-in-step": lambda q: solve_dp(q, k, g, scheme="picard-in-step"),
        "picard": lambda q: picard_iterate(q, k, 1, paths, BetaWeights(1, 1), g, initial=huge),
        "closed-form": lambda q: linear_closed_form(50.0, 0.0, 0.0, q, k, g),
        "weak-pde": lambda q: solve_weak_pde(q, g),
    }[solver]
    fault = {"picard": (NumericOverflowError, "Y and Z not finite from layer"),
             "closed-form": (NumericOverflowError, "closed form is not finite in Y0")
             }.get(solver, (SchemeError, "driver refused a layer"))
    with pytest.raises(fault[0], match=fault[1]):
        solve(dataclasses.replace(p, boundary_phi=lambda t: np.zeros(3)))
    with pytest.raises(UsageError, match="boundary data must be finite"):
        solve(p)


def phi_spy(events):
    """An affine phi that appends ("phi", t) to events at every call."""
    def phi(t):
        events.append(("phi", t))
        return np.array([0.2 + t, -0.1 * t, 0.05])
    return phi


@pytest.mark.parametrize("solver", ("explicit", "picard-in-step", "picard", "closed-form",
                                    "weak-pde"))
def test_killed_solve_calls_phi_once_per_layer_time(kernels, graphs, solver):
    # phi(T) for the terminal row, then phi(k dt) for k = K-1 ... 0 in one
    # run before the layers' drivers: K + 1 calls per killed solve, and K
    # more per further Picard sweep
    g, k = graphs(2), kernels(2)
    T, events = 0.05, []

    def driver(t, x, y):
        events.append(("g", t))
        return -0.5 * y

    p = BsdeProblem(g=driver, f=zero_f, terminal_psi=bump(g), horizon=T, duration="killed",
                    boundary_phi=phi_spy(events))
    K = layer_count(T, k.dt)
    paths = simulate_paths(WalkConfig(level=2, horizon=T, path_count=20, seed=1, killed=True),
                           k, g)
    solve = {
        "explicit": lambda: solve_dp(p, k, g),
        "picard-in-step": lambda: solve_dp(p, k, g, scheme="picard-in-step"),
        "picard": lambda: picard_iterate(p, k, 2, paths, BetaWeights(1, 1), g, stop_rel=0.0),
        "closed-form": lambda: linear_closed_form(0.5, 0.3, 0.4, p, k, g),
        "weak-pde": lambda: solve_weak_pde(p, g),
    }[solver]
    solve()
    layer_times = [("phi", j * k.dt) for j in range(K - 1, -1, -1)]
    phis = [e for e in events if e[0] == "phi"]
    assert phis == [("phi", T)] + layer_times * (2 if solver == "picard" else 1)
    first = events.index(layer_times[0])
    assert events[first:first + K] == layer_times  # no driver call among them
    if solver not in ("picard", "closed-form"):
        # the layers' driver calls all come after them
        assert all(e[1] >= (K - 1) * k.dt for e in events[:first] if e[0] == "g")


def test_mc_hit_steps_read_phi_once_each_from_the_boundary_values(kernels, graphs):
    # the MC route asks phi for each distinct hit step k at int(k) * dt, in
    # ascending order, per start; a non-finite phi there is a UsageError
    g, k = graphs(2), kernels(2)
    events = []
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.5, duration="killed",
                    boundary_phi=phi_spy(events))
    starts = [5, 9]
    out = linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=starts, mc_paths=400, seed=3)
    K = layer_count(0.5, k.dt)
    mc_times = [t for _, t in events[K + 1:]]
    expect = []
    for i, s in enumerate(starts):
        cfg = WalkConfig(level=2, horizon=0.5, path_count=400, seed=3 + i, killed=True, start=s)
        hit = simulate_paths(cfg, k, g).hit_step
        expect += [int(h) * k.dt for h in np.unique(hit[hit > 0])]
    assert len(expect) > 2 and mc_times == expect
    for i, s in enumerate(starts):
        mean, _, _ = _recorded_linear_mc(0.5, 0.3, 0.4, p, k, g, s, 400, 3 + i)
        assert abs(out["mc"][s]["estimate"] - mean) <= 1e-12 * abs(mean)
    nan_at_hits = dataclasses.replace(p, boundary_phi=lambda t: np.full(3, math.nan if t else 0.0))
    with pytest.raises(UsageError, match="boundary data must be finite"):
        bsde._mc_linear(k, nan_at_hits, 0.5, 0.3, 0.4, starts, 400, 3, bump(g), True)


@pytest.mark.parametrize("duration", ("deterministic", "killed"))
def test_overflow_names_the_highest_non_finite_layer(kernels, graphs, duration):
    # at m = 5 the finite check walks Y and Z in 14 row blocks; the layer it
    # names is the highest one where the per-layer loop, run without checks,
    # has a non-finite Y or Z, the first the backward loop reached
    g, k = graphs(5), kernels(5)
    p = BsdeProblem(g=lambda t, x, y: 5 * y * y, f=lambda t, x, y, z: np.zeros_like(y),
                    terminal_psi=np.full(g.n_vertices, 3.0), horizon=0.5, duration=duration)
    with np.errstate(over="ignore", invalid="ignore"):
        Y, Z = vbeta_oracle.solve_dp(p, k, "explicit")
    bad = np.flatnonzero(~(np.isfinite(Y) & np.isfinite(Z)).all(axis=1))
    assert 0 < bad[-1] < len(Y) - 400
    top = int(bad[-1])
    with pytest.raises(NumericOverflowError,
                       match=rf"Y and Z not finite from layer {top} \(t = {top * k.dt:.6g}\) down"):
        solve_dp(p, k, g)


def test_closed_form_evaluates_a_callable_terminal_once(kernels, graphs):
    # the exact route's terminal layer and the MC's psi come from one call
    g, k = graphs(2), kernels(2)
    calls = []

    def terminal(graph):
        calls.append(graph)
        return bump(graph)

    for duration in ("deterministic", "killed"):
        calls.clear()
        p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=terminal, horizon=0.05,
                        duration=duration)
        out = linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=[5, 7], mc_paths=50)
        assert calls == [g]
        ref = linear_closed_form(0.5, 0.3, 0.4, dataclasses.replace(p, terminal_psi=bump(g)),
                                 k, g, mc_starts=[5, 7], mc_paths=50)
        assert out["Y0"].tobytes() == ref["Y0"].tobytes()
        assert repr(out["mc"]) == repr(ref["mc"])


@pytest.mark.parametrize("action", ("error", "ignore"))
def test_mc_linear_overflow_and_zero_weights(kernels, graphs, action):
    # a = 3e4 at m = 2, T = 1: every path's weight product is the exact
    # Y0 = 401^75 = 1.72e195, whose spread used to square past the float
    # range: stderr inf with warnings ignored, numpy's "overflow encountered
    # in square" with warnings as errors
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=lambda t, x, y: 3e4 * y, f=lambda t, x, y, z: np.zeros_like(y),
                    terminal_psi=np.ones(g.n_vertices), horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        out = linear_closed_form(3e4, 0.0, 0.0, p, k, g, mc_starts=[5], mc_paths=100)
    mc = out["mc"][5]
    assert 1e195 < out["Y0"][5] < 1e196
    assert mc["estimate"] == pytest.approx(out["Y0"][5], rel=1e-12)
    assert 0 <= mc["stderr"] < 1e-12 * mc["estimate"] and not mc["unstable"]
    # a = -75 makes every step weight 1 + a dt exactly 0: its log, -inf, used
    # to raise "divide by zero encountered in log" with warnings as errors
    assert 1 + -75.0 * k.dt == 0
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        out = linear_closed_form(-75.0, 0.0, 0.0, p, k, g, mc_starts=[5], mc_paths=100)
    assert out["Y0"][5] == 0 and out["mc"][5]["estimate"] == out["mc"][5]["stderr"] == 0


@pytest.mark.parametrize("action", ("error", "ignore"))
def test_mc_moments_take_the_scaled_route_only_past_the_float_range(action):
    rng = np.random.default_rng(4)
    log_w, value = rng.normal(size=500) + 0.3j * rng.normal(size=500), rng.normal(size=500)
    samples = np.exp(log_w).real * value
    plain = (float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(500)),
             bsde.heavy_tailed(samples))
    # 2^1000 * (1, 2, -4): finite samples and mean, a spread that squares past the range
    ln2 = math.log(2)
    big = np.array([1000 * ln2, 1001 * ln2, 1002 * ln2 + math.pi * 1j])
    ref = np.array([1.0, 2.0, -4.0])
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert bsde._mc_moments(log_w, value) == plain
        estimate, stderr, _ = bsde._mc_moments(big, np.ones(3))
        assert estimate == pytest.approx(2.0**1000 * ref.mean(), rel=1e-12)
        assert stderr == pytest.approx(2.0**1000 * ref.std(ddof=1) / math.sqrt(3), rel=1e-12)
        for bad in (np.array([1100.0, 1100.0]), np.array([1.0, math.nan])):
            with pytest.raises(NumericOverflowError, match="Monte Carlo estimate"):
                bsde._mc_moments(bad, np.ones(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("initial, match", ((None, "distance of sweep 10 is not finite"),
                                            (1e200, "not finite from layer")))
def test_picard_blow_up_is_a_typed_error(kernels, graphs, initial, match):
    # g = y^2 from terminal value 3 at m = 2, T = 2: from zero, the V^beta norm
    # used to square a finite iterate past 1e154 and raise "overflow
    # encountered in multiply"; from a 1e200 field the drivers overflow on
    # the previous iterate
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=lambda t, x, y: y * y, f=lambda t, x, y, z: np.zeros_like(y),
                    terminal_psi=np.full(g.n_vertices, 3.0), horizon=2.0)
    ens = simulate_paths(WalkConfig(level=2, horizon=2.0, path_count=50, seed=1), k, g)
    start = None if initial is None else np.full((ens.n_steps + 1, g.n_vertices), initial)
    with pytest.raises(NumericOverflowError, match=match):
        picard_iterate(p, k, 12, ens, BetaWeights(1, 1), g, initial=start)


@pytest.mark.parametrize("when", ("T", "interior", "0"))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_mc_linear_rejects_non_finite_boundary_data_it_reads(kernels, graphs, bad, when):
    # the MC route reads phi only at the hit steps, 1..K: a path that starts
    # off V_0 never reads phi(0)
    g, k = graphs(2), kernels(2)
    p = killed_linear(g, phi_bad_at(when, bad, 0.05))
    psi = bump(g)

    def run():
        return bsde._mc_linear(k, p, 0.3, 0.2, 0.1, [3, 4, 5], 400, 7, psi, True)

    if when == "0":
        assert all(math.isfinite(r["estimate"]) for r in run().values())
        return
    with pytest.raises(UsageError, match="boundary data must be finite"):
        run()


# --- V^beta norm -------------------------------------------------------------------

def test_vbeta_zero_field(kernels, graphs):
    g, k = graphs(1), kernels(1)
    cfg = WalkConfig(level=1, horizon=0.5, path_count=50, seed=3)
    ens = simulate_paths(cfg, k, g)
    K = ens.n_steps
    zeros = np.zeros((K + 1, g.n_vertices))
    assert vbeta_norm(ens, zeros, zeros, BetaWeights(1, 1)) == 0.0


def test_vbeta_hand_value(kernels, graphs):
    # y == 1, z == 0, beta=(1,1), T=1: with <W>_t ~ t the squared norm is
    # sup_t [e^{4t} + 2 int_t^1 e^{4r} dr] = e^4 at t = T
    g, k = graphs(1), kernels(1)
    cfg = WalkConfig(level=1, horizon=1.0, path_count=4000, seed=5)
    ens = simulate_paths(cfg, k, g)
    K = ens.n_steps
    ones = np.ones((K + 1, g.n_vertices))
    zeros = np.zeros_like(ones)
    val = vbeta_norm(ens, ones, zeros, BetaWeights(1, 1))
    assert abs(val - math.exp(2.0)) / math.exp(2.0) < 0.01  # sqrt(e^4)


def test_vbeta_monotone_in_beta(kernels, graphs):
    g, k = graphs(1), kernels(1)
    cfg = WalkConfig(level=1, horizon=0.5, path_count=200, seed=8)
    ens = simulate_paths(cfg, k, g)
    K = ens.n_steps
    rng = np.random.default_rng(0)
    y = rng.standard_normal((K + 1, g.n_vertices))
    z = rng.standard_normal((K + 1, g.n_vertices))
    v1 = vbeta_norm(ens, y, z, BetaWeights(1, 1))
    v2 = vbeta_norm(ens, y, z, BetaWeights(2, 1))
    v3 = vbeta_norm(ens, y, z, BetaWeights(2, 3))
    assert v1 <= v2 <= v3


@pytest.mark.parametrize("killed, horizon, beta, scale", [
    (False, 1.0, 1.0, 1.0),
    (True, 0.05, 1.0, 1.0),    # short: most paths are still alive at the end
    (False, 1.0, 36.0, 1.0),
    (True, 0.05, 36.0, 1.0),
    (False, 1.0, 200.0, 1e-60),  # exponent past 600: the shift > 0 branch
])
def test_vbeta_equals_path_major_oracle(kernels, graphs, killed, horizon, beta, scale):
    g, k = graphs(3), kernels(3)
    cfg = WalkConfig(level=3, horizon=horizon, path_count=80, seed=31, killed=killed)
    ens = simulate_paths(cfg, k, g)
    w = BetaWeights(beta, beta)
    # past 709 the weight alone overflows, so a finite norm needs the shift
    assert (2 * beta * (1.0 + ens.cum_qv[:, -1].max()) > 709.8) == (beta == 200.0)
    rng = np.random.default_rng(4)
    y, z = scale * rng.standard_normal((2, ens.n_steps + 1, g.n_vertices))
    y[-1] = 0.0  # as in a Picard difference: the sup then reads the running sums
    got = vbeta_norm(ens, y, z, w)
    assert math.isfinite(got)
    assert got == vbeta_oracle.vbeta_norm(ens, y, z, w)
    # one path at a time, so that a last-bit change in one path's sup is not
    # averaged away by the mean over paths
    for i in range(ens.n_paths):
        one = dataclasses.replace(ens, vertices=ens.vertices[i:i + 1], dW=ens.dW[i:i + 1],
                                  dqv=ens.dqv[i:i + 1], hit_step=ens.hit_step[i:i + 1])
        assert vbeta_norm(one, y, z, w) == vbeta_oracle.vbeta_norm(one, y, z, w)


@pytest.mark.parametrize("action", ("error", "ignore"))
@pytest.mark.parametrize("which", ("y", "z"))
def test_vbeta_norm_overflow_is_a_typed_error(kernels, graphs, which, action):
    # finite fields of 1e200 square past the float range: the norm used to
    # return inf with warnings ignored and raise numpy's RuntimeWarning with
    # warnings as errors
    g, k = graphs(2), kernels(2)
    ens = simulate_paths(WalkConfig(level=2, horizon=1.0, path_count=20, seed=1), k, g)
    big = np.full((ens.n_steps + 1, g.n_vertices), 1e200)
    fields = (big, np.zeros_like(big)) if which == "y" else (np.zeros_like(big), big)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(NumericOverflowError, match="V\\^beta norm is not finite"):
            vbeta_norm(ens, *fields, BetaWeights(1, 1))


def test_vbeta_rejects_a_field_of_another_level(kernels, graphs):
    # level-3 paths over T = 1 and a level-4 field over T = 0.2 both have 375 steps
    g3, k3, g4 = graphs(3), kernels(3), graphs(4)
    ens = simulate_paths(WalkConfig(level=3, horizon=1.0, path_count=20, seed=1), k3, g3)
    assert ens.n_steps == layer_count(0.2, kernels(4).dt)
    right = np.ones((ens.n_steps + 1, g3.n_vertices))
    wrong = np.ones((ens.n_steps + 1, g4.n_vertices))
    w = BetaWeights(1, 1)
    for y, z in ((wrong, wrong), (right, wrong), (wrong, right), (right, right[:-1])):
        with pytest.raises(UsageError):
            vbeta_norm(ens, y, z, w)


@pytest.mark.parametrize("rows", (1, 7, 64, 375))
def test_vbeta_blocks_equal_path_major_oracle(kernels, graphs, monkeypatch, rows):
    # the norm's row blocks carry both running sums across block edges: one
    # row per block, a partial last block (375 = 53 * 7 + 4) and a single
    # block all give the oracle's bytes, path by path
    g, k = graphs(3), kernels(3)
    ens = simulate_paths(WalkConfig(level=3, horizon=1.0, path_count=12, seed=5), k, g)
    w = BetaWeights(1.0, 1.0)  # small weights: each sup reads sums over many blocks
    rng = np.random.default_rng(6)
    y, z = rng.standard_normal((2, ens.n_steps + 1, g.n_vertices))
    y[-1] = 0.0
    monkeypatch.setattr(bsde, "_NORM_BLOCK_BYTES", 24 * rows)  # rows rows for one path
    for i in range(ens.n_paths):
        one = dataclasses.replace(ens, vertices=ens.vertices[i:i + 1], dW=ens.dW[i:i + 1],
                                  dqv=ens.dqv[i:i + 1], hit_step=ens.hit_step[i:i + 1])
        assert vbeta_norm(one, y, z, w) == vbeta_oracle.vbeta_norm(one, y, z, w)
    monkeypatch.setattr(bsde, "_NORM_BLOCK_BYTES", 24 * ens.n_paths * rows)
    assert vbeta_norm(ens, y, z, w) == vbeta_oracle.vbeta_norm(ens, y, z, w)


def test_vbeta_norm_closure_keeps_no_state(kernels, graphs):
    # one closure, called alternately on two field pairs, returns exactly what
    # a fresh closure on a fresh ensemble returns for each: its reused buffers
    # carry nothing over. Two closures on one ensemble share its cached path
    # part and nothing else, so calling them in turn changes nothing either.
    g, k = graphs(3), kernels(3)
    ens = simulate_paths(WalkConfig(level=3, horizon=1.0, path_count=300, seed=7), k, g)
    w = BetaWeights(4.0, 4.0)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, ens.n_steps + 1, g.n_vertices))
    b = 1e3 * rng.standard_normal((2, ens.n_steps + 1, g.n_vertices))
    b[0, -1] = 0.0  # b's sup reads the running sums, a's mostly the last layer
    fresh = [_vbeta_norm_on(dataclasses.replace(ens), w)(*pair) for pair in (a, b)]
    norm = _vbeta_norm_on(ens, w)
    for _ in range(3):
        assert [norm(*pair) for pair in (a, b)] == fresh
    assert fresh[0] != fresh[1]
    first, second = _vbeta_norm_on(ens, w), _vbeta_norm_on(ens, w)
    for _ in range(2):
        assert [first(*a), second(*b), first(*b), second(*a)] == fresh + fresh[::-1]


def test_vbeta_path_part_built_once_per_ensemble(kernels, graphs, monkeypatch):
    # criterion 08's pattern, two picard_iterate calls and one vbeta_norm on
    # one ensemble and weights, builds the path part once (counted through
    # walk.clock_cumsum along the time axis, which sums its <W>); the cache
    # keeps the latest weights only, and a dataclasses.replace'd ensemble
    # starts empty
    g, k = graphs(2), kernels(2)
    p = BsdeProblem(g=lambda t, x, y: -0.5 * y, f=lambda t, x, y, z: 0.5 * np.sin(y) + z,
                    terminal_psi=bump(g), horizon=0.2, k0=1.0, k1=1.0)
    ens = simulate_paths(WalkConfig(level=2, horizon=0.2, path_count=200, seed=3), k, g)
    w, other = BetaWeights(36.0, 36.0), BetaWeights(2.0, 3.0)
    seed_field = solve_dp(BsdeProblem(g=zero_g, f=zero_f, terminal_psi=p.terminal_psi,
                                      horizon=0.2), k, g).Y
    builds = []
    cumsum = walk.clock_cumsum

    def counted(dqv, level, axis, out=None):
        builds.append(axis)
        return cumsum(dqv, level, axis, out=out)

    monkeypatch.setattr(walk, "clock_cumsum", counted)
    runs = [picard_iterate(p, k, 6, ens, w, g, initial=init) for init in (None, seed_field)]
    y, z = runs[0]["final"]
    norm = vbeta_norm(ens, y, z, w)
    assert builds == [0]
    assert norm == vbeta_norm(ens, y, z, BetaWeights(36.0, 36.0))  # an equal key
    assert builds == [0] and list(ens._norm_parts) == [w]
    norm_other = vbeta_norm(ens, y, z, other)
    assert builds == [0, 0] and list(ens._norm_parts) == [other]
    assert vbeta_norm(ens, y, z, w) == norm
    assert builds == [0, 0, 0] and list(ens._norm_parts) == [w]
    copy = dataclasses.replace(ens)
    assert copy._norm_parts == {}
    assert vbeta_norm(copy, y, z, w) == norm
    assert builds == [0] * 4
    monkeypatch.undo()
    assert norm == vbeta_oracle.vbeta_norm(ens, y, z, w)
    assert norm_other == vbeta_oracle.vbeta_norm(ens, y, z, other)


DRIVERS = (
    {"name": "zero"},
    {"name": "linear", "a": 0.5, "b": -0.3, "c": 0.4},
    {"name": "sin", "a": -0.2, "fy": 0.7, "fz": 0.3},
    {"name": "sat-exp", "a": 0.1, "fy": 0.5, "fz": -0.25},
    {"name": "custom-table", "y_knots": [-2.0, -0.5, 0.5, 2.0],
     "g_values": [1.0, 0.2, -0.3, 0.4], "b": 0.2, "c": -0.1},
)


@pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d["name"])
def test_builtin_drivers_are_elementwise(kernels, driver):
    # the driver contract picard_iterate relies on: one call on flat K*V
    # arrays (t an array) gives the bytes of K per-layer calls (t a scalar)
    k = kernels(3)
    K, V = layer_count(1.0, k.dt), k.n_vertices
    g, f, _, _ = make_drivers({"driver": driver})
    y, z = 2.0 * np.random.default_rng(9).standard_normal((2, K, V))
    ts, xs = np.repeat(np.arange(K) * k.dt, V), np.tile(np.arange(V), K)
    layers = range(K)
    flat_g = g(ts, xs, y.ravel())
    flat_f = f(ts, xs, y.ravel(), z.ravel())
    per_layer_g = np.concatenate([g(i * k.dt, np.arange(V), y[i]) for i in layers])
    per_layer_f = np.concatenate([f(i * k.dt, np.arange(V), y[i], z[i]) for i in layers])
    assert flat_g.dtype == flat_f.dtype == np.float64
    assert flat_g.tobytes() == per_layer_g.tobytes()
    assert flat_f.tobytes() == per_layer_f.tobytes()


# --- contraction constant ------------------------------------------------------------

def test_contraction_constant_values():
    w = BetaWeights(36, 36)
    kb = contraction_constant(1.0, 1.0, w)
    assert abs(kb - 1 / math.sqrt(18)) < 1e-15
    assert abs(3 * math.sqrt(2) * kb - 1.0) < 1e-12
    assert contraction_constant(0.0, 2.0, BetaWeights(9, 4)) == 1.0
    assert contraction_constant(1.0, 1.0, BetaWeights(1e12, 1e12)) < 1e-5


def test_beta_weights_guard():
    with pytest.raises(UsageError):
        BetaWeights(0.5, 2.0)


# --- Picard iteration ----------------------------------------------------------------

def test_picard_converges_to_dp_fixed_point(kernels, graphs):
    g, k = graphs(2), kernels(2)
    psi = bump(g)
    a, b, c = 0.5, 0.3, 0.4
    p = BsdeProblem(
        g=lambda t, x, y: a * y, f=lambda t, x, y, z: b * y + c * z,
        terminal_psi=psi, horizon=1.0, k0=1.0, k1=0.4,
    )
    cfg = WalkConfig(level=2, horizon=1.0, path_count=300, seed=11)
    ens = simulate_paths(cfg, k, g)
    rep = picard_iterate(p, k, 25, ens, BetaWeights(4, 4), g)
    # the Picard fixed point evaluates drivers on the current layer: compare
    # against the in-step fixed-point scheme, not the explicit one
    sol = solve_dp(p, k, g, scheme="picard-in-step")
    yfin, _ = rep["final"]
    assert np.abs(yfin - sol.Y).max() < 1e-10
    expl = solve_dp(p, k, g, scheme="explicit")
    assert np.abs(expl.Y[0] - sol.Y[0]).max() < 5 * k.dt  # O(dt) scheme gap
    # geometric decay of distances
    d = rep["distances"]
    assert d[6] < d[2] * 0.1


@pytest.mark.parametrize("duration", ["deterministic", "killed"])
def test_first_picard_sweep_is_explicit_dp(kernels, graphs, duration):
    # drivers that ignore (y, z) make the sweep from zero the explicit DP itself
    g, k = graphs(3), kernels(3)
    killed = duration == "killed"
    p = BsdeProblem(
        g=lambda t, x, y: np.cos(t + x), f=lambda t, x, y, z: 0.3 * np.sin(2.0 * t - x),
        terminal_psi=bump(g), horizon=0.1, duration=duration,
        boundary_phi=(lambda t: np.array([0.2 + t, 0.0, -0.1 * t])) if killed else None,
    )
    cfg = WalkConfig(level=3, horizon=0.1, path_count=20, seed=2, killed=killed)
    ens = simulate_paths(cfg, k, g)
    rep = picard_iterate(p, k, 1, ens, BetaWeights(1, 1), g)
    assert set(rep) == {"distances", "ratios", "final"}
    Y, Z = rep["final"]
    sol = solve_dp(p, k, g)
    assert Y.tobytes() == sol.Y.tobytes()
    assert Z.tobytes() == sol.Z.tobytes()


def test_picard_equals_path_major_oracle(kernels, graphs):
    # criterion 08: every distance and ratio, and the last iterate, from zero
    # and from the driverless DP seed, have the bytes of the loop measured
    # with the old norm
    g, k = graphs(3), kernels(3)
    p = BsdeProblem(
        g=lambda t, x, y: -0.5 * y, f=lambda t, x, y, z: 0.5 * np.sin(y) + z,
        terminal_psi=bump(g), horizon=1.0, k0=1.0, k1=1.0,
    )
    w = BetaWeights(36.0, 36.0)
    ens = simulate_paths(WalkConfig(level=3, horizon=1.0, path_count=1500, seed=808), k, g)
    seed_field = solve_dp(BsdeProblem(g=zero_g, f=zero_f, terminal_psi=p.terminal_psi,
                                      horizon=1.0), k, g).Y
    for initial in (None, seed_field):
        got = picard_iterate(p, k, 30, ens, w, g, initial=initial, stop_rel=1e-19)
        ref = vbeta_oracle.picard_iterate(p, k, 30, ens, w, initial=initial, stop_rel=1e-19)
        assert got["distances"] == ref["distances"]
        assert got["ratios"] == ref["ratios"]
        (Y, Z), (Yr, Zr) = got["final"], ref["final"]
        assert Y.tobytes() == Yr.tobytes()
        assert Z.tobytes() == Zr.tobytes()


def test_picard_killed_time_dependent_equals_path_major_oracle(kernels, graphs):
    # the per-sweep drivers read t as an array, phi(t) is pinned per layer
    # and Z comes from one product with V_0 zeroed: every distance, ratio and
    # the last iterate keep the bytes of the per-layer loop, from zero and
    # from the driverless DP seed
    g, k = graphs(3), kernels(3)
    phi = lambda t: np.array([0.2 + t, -0.1 * t, 0.05])  # noqa: E731
    p = BsdeProblem(
        g=lambda t, x, y: -0.5 * y + 0.2 * np.cos(3.0 * t + x),
        f=lambda t, x, y, z: 0.5 * np.sin(y) * (1.0 + t) + z,
        terminal_psi=bump(g), horizon=0.25, duration="killed", boundary_phi=phi,
    )
    w = BetaWeights(36.0, 36.0)
    cfg = WalkConfig(level=3, horizon=0.25, path_count=600, seed=909, killed=True)
    ens = simulate_paths(cfg, k, g)
    assert (ens.hit_step > 0).any()
    seed_field = solve_dp(BsdeProblem(g=zero_g, f=zero_f, terminal_psi=p.terminal_psi,
                                      horizon=0.25, duration="killed", boundary_phi=phi),
                          k, g).Y
    for initial in (None, seed_field):
        got = picard_iterate(p, k, 12, ens, w, g, initial=initial, stop_rel=1e-19)
        ref = vbeta_oracle.picard_iterate(p, k, 12, ens, w, initial=initial, stop_rel=1e-19)
        assert len(got["distances"]) == 12
        assert got["distances"] == ref["distances"]
        assert got["ratios"] == ref["ratios"]
        (Y, Z), (Yr, Zr) = got["final"], ref["final"]
        assert Y.tobytes() == Yr.tobytes()
        assert Z.tobytes() == Zr.tobytes()
        assert not Z[:, k.is_boundary].any()


@pytest.mark.parametrize("m", (3, 4, 5))
@pytest.mark.parametrize("duration", ("deterministic", "killed"))
@pytest.mark.parametrize("scheme", ("explicit", "picard-in-step"))
def test_dp_equals_per_layer_sweep(kernels, graphs, m, duration, scheme):
    # one [P; Q] product per layer gives the bytes of separate P and Q
    # products, with phi(t) and Z = 0 pinned on V_0 layer by layer
    g, k = graphs(m), kernels(m)
    p = BsdeProblem(
        g=lambda t, x, y: -0.5 * y + 0.1 * np.cos(t),
        f=lambda t, x, y, z: 0.5 * np.sin(y) + 0.25 * z,
        terminal_psi=bump(g), horizon=0.25, k0=1.0, k1=0.25, duration=duration,
        boundary_phi=(lambda t: np.array([0.1 + t, 0.0, -0.2 * t])) if duration == "killed" else None,
    )
    sol = solve_dp(p, k, g, scheme=scheme)
    Y, Z = vbeta_oracle.solve_dp(p, k, scheme)
    assert sol.Y.tobytes() == Y.tobytes()
    assert sol.Z.tobytes() == Z.tobytes()


@pytest.mark.parametrize("m", range(6))
def test_csr_product_equals_matmul(kernels, m):
    # the backward layers' product, scipy's csr_matvec into a zeroed buffer,
    # against scipy's own `@`, for P and [P; Q], on fields with signed zeros:
    # this fails if the installed scipy's private kernel changes behaviour
    k = kernels(m)
    rng = np.random.default_rng(m)
    y = rng.standard_normal(k.n_vertices)
    y[::3] = -0.0
    zero = np.full(k.n_vertices, -0.0)
    for matrix in (k.P, sp.vstack([k.P, k.Q], format="csr")):
        product, out = bsde._csr_product(matrix)
        for x in (y, zero, 1e300 * y, y):  # the last one after a product left out dirty
            product(x)
            expect = matrix @ x
            assert out.tobytes() == expect.tobytes()
        product(zero)
        assert not np.signbit(out).any()  # 0.0 + w * (-0.0) is +0.0, as in scipy
        for short in (y[:-1], y[:1]):  # the kernel itself would read past the end
            with pytest.raises(ValueError, match="columns"):
                product(short)


def closed_form_by_matmul(a, b, c, problem, kernel):
    """linear_closed_form's (Y0, Z0) from separate `@` products per layer."""
    dt = kernel.dt
    V = bsde._pinned_terminal(problem, None, kernel.n_vertices)
    drift = 1.0 + a * dt + b * kernel.dqv
    for k in range(layer_count(problem.horizon, dt) - 1, -1, -1):
        ez = kernel.Q @ V
        V = drift * (kernel.P @ V) + c * ez
        if problem.duration == "killed":
            V[kernel.is_boundary] = problem.boundary_phi(k * dt)
    z0 = ez / kernel.dqv
    if problem.duration == "killed":
        z0[kernel.is_boundary] = 0.0
    return V, z0


@pytest.mark.parametrize("m", (2, 4))
@pytest.mark.parametrize("duration", ("deterministic", "killed"))
def test_linear_closed_form_equals_per_layer_products(kernels, graphs, m, duration):
    g, k = graphs(m), kernels(m)
    for a, b, c in ((0.5, 0.3, 0.4), (-0.5, 0.0, -0.0)):
        p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g) - 0.5, horizon=0.1,
                        duration=duration,
                        boundary_phi=(lambda t: np.array([t, -t, -0.0]))
                        if duration == "killed" else None)
        got = linear_closed_form(a, b, c, p, k, g)
        Y0, Z0 = closed_form_by_matmul(a, b, c, p, k)
        assert got["Y0"].tobytes() == Y0.tobytes()
        assert got["Z0"].tobytes() == Z0.tobytes()


@pytest.mark.parametrize("duration", ("deterministic", "killed"))
def test_signed_zero_drivers_equal_per_layer_oracle(kernels, graphs, duration):
    # g = -y/2 and f = -z/2 turn zero fields into -0.0, so the frozen
    # layer adds -0.0 driver rows to +0.0 products: DP and Picard keep the
    # per-layer bytes, sign bits included
    g, k = graphs(3), kernels(3)
    p = BsdeProblem(g=lambda t, x, y: -0.5 * y, f=lambda t, x, y, z: -0.5 * z,
                    terminal_psi=np.full(k.n_vertices, -0.0), horizon=0.05,
                    duration=duration)
    xs = np.arange(k.n_vertices)
    assert np.signbit(p.g(0.0, xs, np.zeros(k.n_vertices)) * k.dt).all()
    for scheme in ("explicit", "picard-in-step"):
        sol = solve_dp(p, k, g, scheme=scheme)
        Y, Z = vbeta_oracle.solve_dp(p, k, scheme)
        assert sol.Y.tobytes() == Y.tobytes() and sol.Z.tobytes() == Z.tobytes()
    ens = simulate_paths(WalkConfig(level=3, horizon=0.05, path_count=50, seed=2,
                                    killed=duration == "killed"), k, g)
    w = BetaWeights(2.0, 2.0)
    got = picard_iterate(p, k, 3, ens, w, g)
    ref = vbeta_oracle.picard_iterate(p, k, 3, ens, w)
    assert got["distances"] == ref["distances"]
    for mine, theirs in zip(got["final"], ref["final"]):
        assert mine.tobytes() == theirs.tobytes()


def test_linear_mc_starts_share_one_table_build(kernels, graphs, monkeypatch):
    # a 3-start call gives the bytes of three 1-start calls with seeds
    # seed + i, and builds the four-step tables once, not once per start
    g, k = graphs(3), kernels(3)
    p = BsdeProblem(g=lambda t, x, y: 0.5 * y, f=lambda t, x, y, z: 0.3 * y + 0.4 * z,
                    terminal_psi=bump(g), horizon=0.5, duration="killed",
                    boundary_phi=lambda t: np.array([0.2 + 0.1 * t, -0.4 * t, 0.3]))
    builds = []
    build = walk._block_tables

    def counted(*args):
        builds.append(1)
        return build(*args)

    monkeypatch.setattr(walk, "_block_tables", counted)
    starts = [5, 9, 14]
    many = linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=starts, mc_paths=3000,
                              seed=11)["mc"]
    assert len(builds) == 1
    for i, s in enumerate(starts):
        one = linear_closed_form(0.5, 0.3, 0.4, p, k, g, mc_starts=[s], mc_paths=3000,
                                 seed=11 + i)["mc"]
        assert list(one) == [s]
        assert repr(one[s]) == repr(many[s])
    assert len(builds) == 1 + len(starts)


@pytest.mark.parametrize("solver", ("dp", "picard", "pde"))
def test_field_limits_rejected_before_allocating(kernels, graphs, solver):
    # (K+1) * V past walk.MAX_RECORDED_ENTRIES: 6 vertices by 1.5e8 layers
    # would take 7 GB a field; rejected before any field exists
    g, k = graphs(1), kernels(1)
    horizon = 1e7
    assert (layer_count(horizon, k.dt) + 1) * k.n_vertices > walk.MAX_RECORDED_ENTRIES
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=horizon)
    ens = simulate_paths(WalkConfig(level=1, horizon=0.5, path_count=20, seed=1), k, g)
    run = {
        "dp": lambda: solve_dp(p, k, g),
        "picard": lambda: picard_iterate(p, k, 2, ens, BetaWeights(1, 1), g),
        "pde": lambda: solve_weak_pde(BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g),
                                                  horizon=horizon, duration="killed"), g),
    }[solver]
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="entry cap"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_picard_rejects_paths_of_another_level(kernels, graphs):
    # same 375 steps, different level
    g3, k3, g4, k4 = graphs(3), kernels(3), graphs(4), kernels(4)
    ens = simulate_paths(WalkConfig(level=3, horizon=1.0, path_count=20, seed=1), k3, g3)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g4), horizon=0.2)
    with pytest.raises(UsageError, match="level"):
        picard_iterate(p, k4, 2, ens, BetaWeights(1, 1), g4)


@pytest.mark.parametrize("n_iters", (0, -1))
def test_picard_rejects_fewer_than_one_sweep(kernels, graphs, n_iters):
    g, k = graphs(2), kernels(2)
    ens = simulate_paths(WalkConfig(level=2, horizon=0.5, path_count=20, seed=1), k, g)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.5)
    with pytest.raises(UsageError, match="n_iters"):
        picard_iterate(p, k, n_iters, ens, BetaWeights(1, 1), g)


def test_picard_rejects_a_misshapen_initial_field(kernels, graphs):
    g, k = graphs(2), kernels(2)
    ens = simulate_paths(WalkConfig(level=2, horizon=0.5, path_count=20, seed=1), k, g)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=bump(g), horizon=0.5)
    K = ens.n_steps
    for shape in ((K, g.n_vertices), (K + 1, g.n_vertices - 1), (g.n_vertices,)):
        with pytest.raises(UsageError, match="initial"):
            picard_iterate(p, k, 2, ens, BetaWeights(1, 1), g, initial=np.zeros(shape))


def test_picard_zero_data_stays_zero(kernels, graphs):
    g, k = graphs(1), kernels(1)
    p = BsdeProblem(g=zero_g, f=zero_f, terminal_psi=np.zeros(g.n_vertices),
                    horizon=0.5)
    cfg = WalkConfig(level=1, horizon=0.5, path_count=50, seed=1)
    ens = simulate_paths(cfg, k, g)
    rep = picard_iterate(p, k, 4, ens, BetaWeights(1, 1), g)
    yfin, zfin = rep["final"]
    assert np.abs(yfin).max() == 0.0
    assert np.abs(zfin).max() == 0.0


# --- monotonicity spot checks -----------------------------------------------------------

def _mono_problem(gfun, kappa0, k0=2.0):
    return BsdeProblem(
        g=gfun, f=lambda t, x, y, z: np.zeros_like(y),
        terminal_psi=np.zeros(3), horizon=1.0, k0=k0, k1=0.0,
        kappa0=kappa0, kappa1=0.0,
    )


def test_monotonicity_equality_case():
    p = _mono_problem(lambda t, x, y: -y, 1.0)
    rep = monotonicity_check(p, samples=256, seed=0)
    assert rep["worst_margin_g"] >= -1e-12


def test_monotonicity_sin_with_negative_kappa():
    p = _mono_problem(lambda t, x, y: np.sin(y), -1.0)
    rep = monotonicity_check(p, samples=256, seed=1)
    assert rep["worst_margin_g"] >= -1e-12


def test_monotonicity_violation_detected():
    p = _mono_problem(lambda t, x, y: 2.0 * y, 1.0)
    with pytest.raises(DeclaredConstantError):
        monotonicity_check(p, samples=256, seed=2)


def test_beta_margin_guard():
    # g = -40y satisfies kappa0 = 40, but beta0 - kappa0 <= 0 at beta0 = 36
    p = _mono_problem(lambda t, x, y: -40.0 * y, 40.0, k0=80.0)
    with pytest.raises(UsageError):
        monotonicity_check(p, weights=BetaWeights(36, 36), samples=16, seed=0)


# --- killed duration ---------------------------------------------------------------------

def test_killed_duration_reproduces_phi_and_mc(kernels, graphs):
    g, k = graphs(2), kernels(2)
    psi = bump(g)
    phi = lambda t: np.array([0.2 + 0.1 * t, 0.0, -0.3])
    a, b, c = 0.2, 0.1, 0.3
    p = BsdeProblem(
        g=lambda t, x, y: a * y, f=lambda t, x, y, z: b * y + c * z,
        terminal_psi=psi, horizon=1.0, k0=0.4, k1=0.3,
        duration="killed", boundary_phi=phi,
    )
    sol = solve_dp(p, k, g)
    K = int(round(1.0 / k.dt))
    for kk in (0, K // 2, K):
        t = kk * k.dt
        assert np.abs(sol.Y[kk][list(g.boundary_ids)] - phi(t)).max() < 1e-14
    cf = linear_closed_form(a, b, c, p, k, g, mc_starts=[9], mc_paths=20000, seed=6)
    assert np.abs(cf["Y0"] - sol.Y[0]).max() < 1e-12
    est = cf["mc"][9]
    assert abs(est["estimate"] - cf["Y0"][9]) < max(3 * est["stderr"], 5e-3)


def test_inner_fixed_point_divergence_raises(kernels, graphs):
    from gasketlab import SchemeError

    g, k = graphs(1), kernels(1)
    # slope ~1/dqv makes the in-step map expansive
    blow = 2.0 / k.dqv.min()
    p = BsdeProblem(g=zero_g, f=lambda t, x, y, z: blow * y,
                    terminal_psi=np.ones(g.n_vertices), horizon=0.2)
    with pytest.raises(SchemeError):
        solve_dp(p, k, g, scheme="picard-in-step")


def test_stability_estimate_shape(kernels, graphs):
    # ||(Y,Z)||_Vbeta <= C * data norm, one C across random linear problems
    g, k = graphs(2), kernels(2)
    w = BetaWeights(4.0, 4.0)
    cfg = WalkConfig(level=2, horizon=0.5, path_count=400, seed=19)
    ens = simulate_paths(cfg, k, g)
    K = ens.n_steps
    rng = np.random.default_rng(20)

    def data_norm(psi, g0, f0):
        # empirical version of the right-hand side of the a priori estimate
        qv = np.concatenate([np.zeros((ens.n_paths, 1)), ens.cum_qv], axis=1)
        tgrid = np.arange(K + 1) * ens.dt
        ew = np.exp(2 * w.b0 * tgrid[None, :] + 2 * w.b1 * qv)
        term = (psi[ens.vertices[:, -1]] ** 2 * ew[:, -1]).mean()
        gint = (g0 ** 2 * ew[:, :-1] * ens.dt).sum(axis=1).mean()
        fint = (f0 ** 2 * ew[:, :-1] * ens.dqv).sum(axis=1).mean()
        return math.sqrt(term + gint + fint)

    zeros = np.zeros((ens.n_paths, K))
    ratios = []
    for _ in range(6):
        a, b, c = rng.uniform(-0.5, 0.5, 3)
        scale = float(rng.uniform(0.5, 2.0))
        psi = scale * bump(g)
        p = BsdeProblem(g=lambda t, x, y: a * y,
                        f=lambda t, x, y, z: b * y + c * z,
                        terminal_psi=psi, horizon=0.5,
                        k0=2 * max(abs(a), abs(b)), k1=abs(c))
        sol = solve_dp(p, k, g)
        yz = vbeta_norm(ens, sol.Y, sol.Z, w)
        # linear drivers vanish at the origin: the data norm is the xi term
        ratios.append(yz / data_norm(psi, zeros, zeros))
    C = max(ratios[:3])
    assert all(r <= 1.5 * C for r in ratios[3:])
