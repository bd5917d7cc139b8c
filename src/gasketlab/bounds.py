"""Special functions and quantitative bound checks: Mittag-Leffler series,
the Beta-chain telescoping identity, moment and exponential-moment envelopes
for the quadratic clock, and the spectral constants.

All bound checks are one-sided inequality assertions against fitted
constants; the underlying universal constant is not pinned by theory, and the
fitted values for different checks need not coincide (one joint constant is
reported for convenience).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericOverflowError, SchemeError, UsageError

SPECTRAL_DIMENSION = 2.0 * math.log(3.0) / math.log(5.0)
GAMMA_S = 1.0 - SPECTRAL_DIMENSION / 2.0
P_MAX = 4  # highest clock moment the envelope checks


def mittag_leffler(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) = sum_p z^p / Gamma(a p + b) by direct summation.

    Terms are accumulated with fsum; summation stops when the tail is below
    1e-14 relative to the running sum. Arguments far enough into the
    super-exponential growth region trip the overflow guard, which raises
    NumericOverflowError (a GasketLabError and an OverflowError).

    For z < 0 the terms alternate and cancel. The sum is kept while its
    largest term is at most 100 max(1, |E|), which holds the absolute error
    near 1e-13 max(1, |E|). Past that (or on overflow), (a, b) = (1, 1)
    returns exp(z), 0 < a < 1 with b = 1 uses the completely monotone integral
    representation (Gorenflo, Kilbas, Mainardi & Rogosin 2014, sec. 3.7), and
    any other (a, b) raises SchemeError; both give 0.0 at z = -inf.
    UsageError for NaN, or a or b not finite and > 0, before any term.
    """
    for name, x in (("a", a), ("b", b)):
        if not 0 < x < math.inf:
            raise UsageError(f"Mittag-Leffler parameter {name} must be finite and > 0, got {x}")
    if math.isnan(z):
        raise UsageError("Mittag-Leffler argument z is NaN")
    if z >= 0.0:
        return _ml_series(a, b, z)[0]
    try:
        value, largest = _ml_series(a, b, z)
        if largest <= 100.0 * max(1.0, abs(value)):
            return value
    except OverflowError:
        largest = math.inf
    if a == 1.0 and b == 1.0:
        return math.exp(z)
    if a < 1.0 and b == 1.0:
        return 0.0 if z == -math.inf else _ml_monotone_integral(a, -z)
    raise SchemeError("Mittag-Leffler series cancels beyond its accuracy",
                      {"a": a, "b": b, "z": z, "largest_term": largest})


def _ml_series(a: float, b: float, z: float) -> tuple[float, float]:
    """The fsum of the series and the largest term magnitude.

    The stopping test reads a running sum, within 4 (p + 2) 2^-53 sum |terms|
    of the partial fsum, and takes the fsum only past the index bound when
    that interval straddles the threshold: it stops where a per-term fsum
    would, in one pass."""
    from scipy.special import gammaln  # imported here, as quad is: keeps the package import light
    terms = [1.0 / math.gamma(b)]
    if z == 0.0:
        return terms[0], abs(terms[0])
    s = terms[0]
    largest = s_abs = abs(s)
    logaz = math.log(abs(z))
    sign = -1.0 if z < 0 else 1.0
    p = 1
    while True:
        logt = p * logaz - gammaln(a * p + b)
        if logt > 700.0:
            raise NumericOverflowError(
                f"Mittag-Leffler term overflow at p={p} for a={a}, b={b}, z={z}"
            )
        t = math.exp(logt)
        largest = max(largest, t)
        terms.append(t * (sign ** p))
        s += terms[-1]
        s_abs += t
        err = 4.0 * (p + 2) * 2.0**-53 * s_abs
        # the index test last, as its power overflows for a huge z
        if t <= 1e-14 * max(abs(s) + err, 1e-300) and a * p + b > abs(z) ** (1.0 / a) + a:
            if t <= 1e-14 * max(abs(s) - err, 1e-300) or \
                    t <= 1e-14 * max(abs(math.fsum(terms)), 1e-300):
                break
        p += 1
        if p > 100_000:
            raise UsageError("Mittag-Leffler series did not settle")
    return math.fsum(terms), largest


def _ml_monotone_integral(a: float, x: float) -> float:
    """E_{a,1}(-x) for 0 < a < 1 and x > 0, from
    E_a(-t^a) = int_0^inf e^{-rt} K_a(r) dr,
    K_a(r) = sin(a pi) r^{a-1} / (pi (r^{2a} + 2 r^a cos(a pi) + 1)),
    after r = u^{1/a} / t, which removes the r^{a-1} singularity:
    E_{a,1}(-x) = sin(a pi) x / (pi a) int_0^inf e^{-u^{1/a}} / |u + x e^{i a pi}|^2 du.
    The integrand has no cancellation; e^{-u^{1/a}} underflows past u = 750^a.
    """
    from scipy.integrate import quad  # imported here: only three functions need it
    c = math.cos(a * math.pi)
    upper = 750.0 ** a
    val, _ = quad(lambda u: math.exp(-u ** (1.0 / a)) / (u * u + 2.0 * u * x * c + x * x),
                  0.0, upper, points=[x] if x < upper else None,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return math.sin(a * math.pi) * x / (math.pi * a) * val


def _chain_integral(p: int, gamma: float) -> float:
    """Simplex integral of prod (theta_i - theta_{i-1})^{gamma-1} by a chain
    of singular 1-D adaptive quadratures.

    Uses only the elementary scaling G_k(s) = s^{k gamma} G_k(1) (change of
    variables), never the Beta/Gamma identity being tested:
        G_k(1) = G_{k-1}(1) * int_0^1 x^{(k-1)gamma} (1-x)^{gamma-1} dx.
    """
    from scipy.integrate import quad
    total = quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(gamma - 1.0, 0.0))[0]
    for k in range(2, p + 1):
        inner, err = quad(
            lambda x: 1.0, 0.0, 1.0,
            weight="alg", wvar=((k - 1) * gamma, gamma - 1.0),
        )
        if not math.isfinite(inner):
            raise UsageError(
                f"quadrature failed near the singular faces at stage {k}; refine gamma"
            )
        total *= inner
    return total


def beta_chain_identity(p: int, gamma: float) -> dict:
    """Both sides of the telescoped simplex integral and their relative gap.

    lhs: recursive 1-D adaptive quadrature (see _chain_integral).
    rhs: Gamma(gamma)^p / Gamma(p gamma + 1).
    """
    if not (1 <= p <= 4):
        raise UsageError("p must be between 1 and 4 (integration cost guard)")
    if not (0.0 < gamma < 1.0):
        raise UsageError("gamma must lie in (0, 1)")
    from scipy.special import gammaln
    lhs = _chain_integral(p, gamma)
    rhs = math.exp(p * gammaln(gamma) - gammaln(p * gamma + 1.0))
    return {"p": p, "gamma": gamma, "lhs": lhs, "rhs": rhs,
            "rel_gap": abs(lhs - rhs) / rhs}


def fit_moment_constant(qv_samples: dict) -> dict:
    """Smallest C with E[A_t^p]/p! <= (C t^GAMMA_S)^p / Gamma(p GAMMA_S + 1)
    per (p, t) cell, p = 1..P_MAX, and the single joint constant (their max).

    qv_samples maps t -> array of <W>_t samples. UsageError names a time
    that is not finite and positive, or that has no samples, a non-finite
    one or a negative one; NumericOverflowError names a (t, p) cell whose
    moment or constant leaves the floating-point range.
    """
    from scipy.special import gammaln
    if not qv_samples:
        raise UsageError("no sample times to fit")
    cells = []
    for t, samples in sorted(qv_samples.items()):
        arr = np.asarray(samples, dtype=float)
        flaw = ("is not finite and positive" if not (math.isfinite(t) and t > 0) else
                "has no samples" if not arr.size else
                "has a sample that is not finite" if not np.isfinite(arr).all() else
                "has a negative sample" if (arr < 0).any() else None)
        if flaw:
            raise UsageError(f"sample time {t} {flaw}")
        for p in range(1, P_MAX + 1):
            with np.errstate(over="ignore"):
                mom = float((arr ** p).mean()) / math.factorial(p)
            c = (mom * math.exp(gammaln(p * GAMMA_S + 1.0))) ** (1.0 / p) / t ** GAMMA_S
            if not math.isfinite(c):
                raise NumericOverflowError(f"the moment of order {p} at t = {t} leaves "
                                           "the floating-point range")
            cells.append({"t": t, "p": p, "C": c, "moment_over_pfact": mom})
    cstar = max(cell["C"] for cell in cells)
    p1 = {cell["t"]: cell["moment_over_pfact"] / cell["t"]
          for cell in cells if cell["p"] == 1}
    return {"cells": cells, "C": cstar, "first_moment_over_t": p1}


def check_moment_bound(qv_samples: dict, C: float) -> dict:
    """Margins of the fitted moment envelope; all must be >= 0."""
    return _moment_margins(fit_moment_constant(qv_samples)["cells"], C)


def _moment_margins(cells: list, C: float) -> dict:
    """check_moment_bound on the moments of fit_moment_constant's cells."""
    from scipy.special import gammaln
    rows = []
    ok = True
    for cell in cells:
        t, p, lhs = cell["t"], cell["p"], cell["moment_over_pfact"]
        rhs = (C * t ** GAMMA_S) ** p * math.exp(-gammaln(p * GAMMA_S + 1.0))
        rows.append({"t": t, "p": p, "lhs": lhs, "rhs": rhs,
                     "margin": rhs - lhs})
        ok &= lhs <= rhs * (1 + 1e-12)
    return {"rows": rows, "holds": ok}


def _ml_rhs(C: float, beta: float, t: float) -> float:
    """The bound E_{GAMMA_S,1}[C beta max(t, t^GAMMA_S)], or inf where it
    leaves the floating-point range."""
    try:
        return mittag_leffler(GAMMA_S, 1.0, C * beta * max(t, t ** GAMMA_S))
    except OverflowError:
        return math.inf


def check_mittag_leffler_bound(expint_table: dict, C: float) -> dict:
    """Margins of sup_x E_x[e^{beta A_t}] <= E_{GAMMA_S,1}[C beta max(t, t^GAMMA_S)].

    expint_table maps (beta, t) -> measured max over starts of the MC
    estimate of E_x[e^{beta A_t}]. NumericOverflowError names the entries
    whose bound leaves the floating-point range.
    """
    rows = []
    for (beta, t), lhs in sorted(expint_table.items()):
        rhs = _ml_rhs(C, beta, t)
        rows.append({"beta": beta, "t": t, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs})
    over = [(row["beta"], row["t"]) for row in rows if row["rhs"] == math.inf]
    if over:
        raise NumericOverflowError(f"the Mittag-Leffler bounds of table entries (beta, t) "
                                   f"{over} at C = {C:.6g} leave the floating-point range")
    return {"rows": rows, "holds": all(row["lhs"] <= row["rhs"] for row in rows)}


def fit_joint_constant(qv_samples: dict, expint_table: dict) -> dict:
    """One constant satisfying both bound families: the moment fit, enlarged
    by bisection if the Mittag-Leffler side needs more room. The margins
    read the fit's moments, so the samples are raised to each power once.
    UsageError names the Mittag-Leffler entries that are not finite.

    A constant at which some bound leaves the floating-point range counts as
    too large. When no smaller one holds, NumericOverflowError names the
    entries that the largest constant with finite bounds leaves uncovered.
    """
    bad = [key for key, value in expint_table.items() if not math.isfinite(value)]
    if bad:
        raise UsageError(f"Mittag-Leffler table entries {bad} are not finite")
    fit = fit_moment_constant(qv_samples)

    def short(C):  # the entries whose bound at C fails or overflows, and whether one overflows
        rhs = {key: _ml_rhs(C, *key) for key in sorted(expint_table)}
        return ([key for key, r in rhs.items() if not expint_table[key] <= r < math.inf],
                math.inf in rhs.values())

    c = fit["C"]
    rows, over = short(c)
    if rows and not over:
        lo, hi = c, c
        while rows and not over:
            hi *= 2.0
            if hi > 1e6:
                raise UsageError("no finite constant closes the ML bound")
            rows, over = short(hi)
        for _ in range(60):  # lo falls short with finite bounds; hi holds or overflows
            mid = 0.5 * (lo + hi)
            mid_rows, mid_over = short(mid)
            if mid_rows and not mid_over:
                lo = mid
            else:
                hi, over = mid, mid_over
        c = hi
        if over:
            c, rows = lo, short(lo)[0]
    if over:
        raise NumericOverflowError(
            f"no Mittag-Leffler bound in the floating-point range covers table entries "
            f"(beta, t) {rows}: at C = {c:.6g} they fall short or overflow, and a larger "
            "C takes a bound past the float range")
    return {
        "C": c,
        "moment_fit": fit,
        "moments": _moment_margins(fit["cells"], c),
        "mittag_leffler": check_mittag_leffler_bound(expint_table, c),
    }
