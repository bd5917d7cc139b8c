"""Named problem builders shared by the CLI and the check pipelines.

A problem file declares a driver pair, terminal data, optional boundary data
(phi_i(t) = values_i + slope_i * t) and the duration. The same description
feeds both solvers: the bsde module consumes (g, f, psi, phi, duration), the
pde module consumes the identical data in weak form.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .bsde import BsdeProblem
from .errors import UsageError
from .gasket import LevelGraph
from .harmonic import harmonic_extend_to_level
from .pde import WeakPdeProblem


def _schema(name: str) -> dict:
    with resources.files("gasketlab.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def validate_problem_dict(spec: dict) -> dict:
    import jsonschema

    try:
        jsonschema.validate(spec, _schema("problem.schema.json"))
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise UsageError(f"problem file invalid at {path}: {exc.message}") from exc
    return spec


def load_problem_file(path: str) -> dict:
    """The validated problem in the JSON file at path; UsageError names the path."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read problem file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise UsageError(f"problem file {path} is not valid JSON: {exc}") from exc
    return validate_problem_dict(spec)


def make_drivers(spec: dict):
    """(g, f, K0, K1) from a validated driver description."""
    d = spec["driver"]
    name = d["name"]
    a = d.get("a", 0.0)
    b = d.get("b", 0.0)
    c = d.get("c", 0.0)
    if name == "zero":
        return (lambda t, x, y: np.zeros_like(y),
                lambda t, x, y, z: np.zeros_like(y), 0.0, 0.0)
    if name == "linear":
        return (lambda t, x, y: a * y,
                lambda t, x, y, z: b * y + c * z,
                2.0 * max(abs(a), abs(b)), abs(c))
    if name == "sin":
        fy = d.get("fy", 0.5)
        fz = d.get("fz", 0.25)
        return (lambda t, x, y: a * y,
                lambda t, x, y, z: fy * np.sin(y) + fz * z,
                2.0 * max(abs(a), abs(fy)), abs(fz))
    if name == "sat-exp":
        fy = d.get("fy", 0.5)
        fz = d.get("fz", 0.25)

        def f(t, x, y, z):
            return fy * np.sign(y) * (-np.expm1(-np.abs(y))) + fz * z

        return (lambda t, x, y: a * y, f, 2.0 * max(abs(a), abs(fy)), abs(fz))
    if name == "custom-table":
        yk = np.asarray(d.get("y_knots", [-1.0, 1.0]), dtype=float)
        gv = np.asarray(d.get("g_values", [0.0, 0.0]), dtype=float)
        if len(yk) != len(gv) or len(yk) < 2:
            raise UsageError("custom-table needs matching y_knots/g_values, >= 2 knots")
        slopes = np.abs(np.diff(gv) / np.diff(yk))
        k0 = 2.0 * float(slopes.max())

        def g(t, x, y):
            return np.interp(y, yk, gv)

        return (g, lambda t, x, y, z: b * y + c * z,
                max(k0, 2.0 * abs(b)), abs(c))
    raise UsageError(f"unknown driver {name!r}")


def make_terminal(spec: dict):
    """Callable graph -> terminal value array."""
    t = spec["terminal"]
    name = t["name"]
    if name == "constant":
        val = t.get("value", 1.0)
        return lambda g: np.full(g.n_vertices, float(val))
    if name == "bump":
        center = t.get("center", [0.5, 3.0**0.5 / 6.0])
        width = t.get("width", 8.0)

        def psi(g: LevelGraph):
            pts = np.array([v.euclidean() for v in g.vertices])
            d2 = ((pts - np.asarray(center)) ** 2).sum(axis=1)
            return np.exp(-width * d2)

        return psi
    if name == "harmonic":
        bv = t.get("boundary_values", [1.0, 0.0, 0.0])

        def psi(g: LevelGraph):
            tab = harmonic_extend_to_level(bv, g.level, g)
            return np.array([float(x) for x in tab])

        return psi
    raise UsageError(f"unknown terminal {name!r}")


def make_boundary(spec: dict):
    b = spec.get("boundary", {})
    vals = np.asarray(b.get("values", [0.0, 0.0, 0.0]), dtype=float)
    slope = np.asarray(b.get("slope", [0.0, 0.0, 0.0]), dtype=float)
    return lambda t: vals + slope * t


def build_problem_pair(spec: dict, level: int,
                       time_step: float | None = None):
    """(WeakPdeProblem, BsdeProblem) for one validated description."""
    g_fun, f_fun, k0, k1 = make_drivers(spec)
    lip = spec.get("lipschitz", {})
    k0 = lip.get("K0", k0)
    k1 = lip.get("K1", k1)
    psi = make_terminal(spec)
    phi = make_boundary(spec)
    dur = spec["duration"]
    wp = WeakPdeProblem(
        g=g_fun, f=f_fun, terminal_psi=psi, horizon=dur["T"], level=level,
        boundary_phi=phi, time_step=time_step, lip_g=k0, lip_f=k0 + k1,
    )
    bp = BsdeProblem(
        g=g_fun, f=f_fun, terminal_psi=psi, horizon=dur["T"], k0=k0, k1=k1,
        duration=dur["kind"], boundary_phi=phi,
    )
    return wp, bp
