"""Special functions, spectral constants, and the bound-check machinery."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from beta_chain_oracle import nested_simplex_integral_p2

from gasketlab import (
    GAMMA_S,
    SPECTRAL_DIMENSION,
    GasketLabError,
    SchemeError,
    UsageError,
    mittag_leffler,
)
from gasketlab.bounds import (
    _ml_series,
    beta_chain_identity,
    check_mittag_leffler_bound,
    check_moment_bound,
    fit_joint_constant,
    fit_moment_constant,
)


def _loaded_by_package_import(modules):
    """The modules of `modules` that `import gasketlab` loads, in a fresh process."""
    code = f"import sys, gasketlab; print(sorted(m for m in {modules!r} if m in sys.modules))"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return out.strip()


def test_package_import_leaves_scipy_special_and_integrate_unloaded():
    # bounds imports gammaln and quad inside the functions that call them
    assert _loaded_by_package_import(("scipy.special", "scipy.integrate")) == "[]"


def test_package_import_leaves_scipy_sparse_linalg_unloaded():
    # only exact_exit_steps (spsolve) and solve_weak_pde (splu) need it, and
    # each imports it when called
    assert _loaded_by_package_import(("scipy.sparse.linalg",)) == "[]"


def test_spectral_constants_high_precision():
    import mpmath

    mpmath.mp.dps = 30
    ds = 2 * mpmath.log(3) / mpmath.log(5)
    assert abs(SPECTRAL_DIMENSION - float(ds)) < 1e-15
    assert abs(GAMMA_S - float(1 - ds / 2)) < 1e-15
    assert f"{SPECTRAL_DIMENSION:.16f}".startswith("1.365212388971970")
    assert f"{GAMMA_S:.16f}".startswith("0.317393805514014")
    assert 1.0 < SPECTRAL_DIMENSION < 2.0
    assert 0.0 < GAMMA_S < 0.5


@pytest.mark.parametrize("z", (-5.0, -2.0, 0.0, 1.0, 5.0, 10.0))
def test_ml_e11_is_exp(z):
    assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) < 1e-12 * max(1.0, math.exp(z))


def test_ml_e12_identity():
    z = 1.0
    assert abs(mittag_leffler(1.0, 2.0, z) - (math.e - 1.0)) < 1e-12


def test_ml_at_zero_is_inverse_gamma():
    for a, b in ((0.5, 0.7), (GAMMA_S, 1.0), (2.0, 3.0)):
        assert mittag_leffler(a, b, 0.0) == 1.0 / math.gamma(b)


def test_ml_monotonicity():
    zs = np.linspace(0.0, 4.0, 9)
    vals = [mittag_leffler(GAMMA_S, 1.0, z) for z in zs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    # decreasing in a for fixed z > 0 on the tested grid
    z = 2.0
    for a1, a2 in ((0.3, 0.5), (0.5, 0.8), (0.8, 1.2)):
        assert mittag_leffler(a1, 1.0, z) > mittag_leffler(a2, 1.0, z)


def test_ml_domain_errors():
    with pytest.raises(UsageError):
        mittag_leffler(-0.5, 1.0, 1.0)
    with pytest.raises(OverflowError):
        mittag_leffler(0.2, 1.0, 500.0)


def test_ml_overflow_is_a_package_error():
    with pytest.raises(GasketLabError, match="overflow"):
        mittag_leffler(0.2, 1.0, 500.0)


def _ml_mpmath(a, b, z, dps=80, terms=1500):
    # the same series at 80 digits: enough for the ~1e43 cancellation below
    import mpmath

    with mpmath.workdps(dps):
        a, b, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        return float(mpmath.fsum(z ** p / mpmath.gamma(a * p + b) for p in range(terms)))


@pytest.mark.parametrize("a, z", ((1.0, -20.0), (1.0, -40.0), (0.5, -10.0),
                                  (GAMMA_S, -2.0), (GAMMA_S, -5.0), (0.9, -40.0)))
def test_ml_negative_argument_matches_mpmath(a, z):
    # the bare series gives 5.2e-7, 459 and -1.25e29 for the first three
    exact = _ml_mpmath(a, 1.0, z)
    assert abs(mittag_leffler(a, 1.0, z) - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("z", (-5.0, -2.0, -1.0, -0.25))
def test_ml_mild_cancellation_keeps_the_series(z):
    assert mittag_leffler(1.0, 1.0, z) == _ml_series(1.0, 1.0, z)[0]


@pytest.mark.parametrize("a, b, z", ((2.0, 1.0, -200.0), (0.5, 2.0, -30.0)))
def test_ml_cancellation_without_a_stable_route_raises(a, b, z):
    with pytest.raises(SchemeError):
        mittag_leffler(a, b, z)


def test_beta_chain_p1_is_inverse_gamma():
    rep = beta_chain_identity(1, 0.37)
    assert abs(rep["lhs"] - 1 / 0.37) < 1e-10
    assert rep["rel_gap"] < 1e-10


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("gamma", (GAMMA_S, 0.5))
def test_beta_chain_gap(p, gamma):
    rep = beta_chain_identity(p, gamma)
    assert rep["rel_gap"] <= 1e-6


def test_beta_chain_p3_half_closed_form():
    # Gamma(1/2)^3 / Gamma(5/2) = pi^{3/2} / (3 sqrt(pi) / 4)
    rep = beta_chain_identity(3, 0.5)
    closed = math.pi ** 1.5 / (3.0 * math.sqrt(math.pi) / 4.0)
    assert abs(rep["rhs"] - closed) < 1e-12
    assert abs(rep["lhs"] - closed) < 1e-6 * closed


def test_beta_chain_nested_crosscheck():
    for gamma in (GAMMA_S, 0.5):
        chain = beta_chain_identity(2, gamma)["lhs"]
        nested = nested_simplex_integral_p2(gamma)
        assert abs(chain - nested) < 1e-9 * max(1.0, chain)


def test_beta_chain_guards():
    with pytest.raises(UsageError):
        beta_chain_identity(5, 0.4)
    with pytest.raises(UsageError):
        beta_chain_identity(2, 1.5)


def test_moment_fit_on_synthetic_clock():
    # deterministic clock A_t = t: moments t^p/p!; the dominant fitted cell
    # must reproduce C >= Gamma(gamma_s+1)^{...}-consistent values and the
    # envelope must hold afterwards
    rng = np.random.default_rng(4)
    qv = {t: np.full(2000, t) + 1e-3 * rng.standard_normal(2000)
          for t in (0.25, 0.5, 1.0)}
    fit = fit_moment_constant(qv)
    assert fit["C"] > 0
    chk = check_moment_bound(qv, fit["C"])
    assert chk["holds"]
    for t, ratio in fit["first_moment_over_t"].items():
        assert abs(ratio - 1.0) < 0.01


def test_ml_bound_checker_and_joint_fit():
    rng = np.random.default_rng(9)
    qv = {t: t * (1 + 0.1 * rng.standard_normal(4000)) for t in (0.25, 0.5, 1.0)}
    expint = {}
    for beta in (0.25, 0.5, 1.0):
        for t in (0.25, 0.5, 1.0):
            expint[(beta, t)] = float(np.exp(beta * qv[t]).mean())
    joint = fit_joint_constant(qv, expint)
    assert joint["moments"]["holds"]
    assert joint["mittag_leffler"]["holds"]
    rows = check_mittag_leffler_bound(expint, joint["C"])["rows"]
    assert all(r["margin"] >= 0 for r in rows)


class _CountedSamples:
    """A sample array that counts the times it is read as an array."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __array__(self, dtype=None, copy=None):
        self.reads += 1
        return self.values if dtype is None else self.values.astype(dtype, copy=False)


def test_joint_fit_builds_the_moment_table_once():
    # the margins read the fit's moments: each sample array is read (and
    # raised to each power) once, and the parts equal the public functions'
    rng = np.random.default_rng(4)
    qv = {t: t * (1 + 0.1 * rng.standard_normal(2000)) for t in (0.25, 0.5, 1.0)}
    expint = {(beta, t): float(np.exp(beta * qv[t]).mean())
              for beta in (0.25, 1.0) for t in (0.25, 1.0)}
    counted = {t: _CountedSamples(v) for t, v in qv.items()}
    joint = fit_joint_constant(counted, expint)
    assert [s.reads for s in counted.values()] == [1, 1, 1]
    assert repr(joint["moment_fit"]) == repr(fit_moment_constant(qv))
    assert repr(joint["moments"]) == repr(check_moment_bound(qv, joint["C"]))
