"""Named problem builders shared by the CLI and the check pipelines.

A problem file declares a driver pair, terminal data, optional boundary data
(phi_i(t) = values_i + slope_i * t) and the duration. build_problem turns it
into one BsdeProblem, which both solvers read: the bsde module's chain BSDE
and, for a killed duration, pde.solve_weak_pde.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from .bsde import BsdeProblem
from .errors import UsageError
from .gasket import LevelGraph
from .harmonic import harmonic_extend_to_level

# the JSON Schema keywords schema_violation checks; the annotations are read past
SCHEMA_KEYWORDS = frozenset({
    "type", "enum", "minimum", "maximum", "exclusiveMinimum", "minLength",
    "minItems", "maxItems", "items", "required", "properties", "additionalProperties"})
_ANNOTATIONS = frozenset({"$schema", "$id", "title"})
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_TYPE_NAMES = {"number", "integer", *_PY_TYPES}


@functools.cache
def _schema(name: str) -> dict:
    """The shipped schema file `name`, loaded once; ValueError names a keyword
    that schema_violation does not check, so no schema edit is skipped silently."""
    with resources.files("gasketlab.schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    _check_keywords(schema, name)
    return schema


def _check_keywords(schema: dict, where: str) -> None:
    for kw, arg in schema.items():
        if kw not in SCHEMA_KEYWORDS | _ANNOTATIONS:
            raise ValueError(f"{where}: unsupported schema keyword {kw!r}")
        if kw == "type" and not set([arg] if isinstance(arg, str) else arg) <= _TYPE_NAMES:
            raise ValueError(f"{where}: unknown type {arg!r}")
        if kw == "additionalProperties" and not isinstance(arg, bool):
            raise ValueError(f"{where}: additionalProperties must be true or false")
        if kw == "enum" and not all(isinstance(v, str) for v in arg):
            raise ValueError(f"{where}: enum values must be strings")  # `in` would match True to 1
        if kw == "items":
            _check_keywords(arg, f"{where}/items")
        elif kw == "properties":
            for k, sub in arg.items():
                _check_keywords(sub, f"{where}/{k}")


def _is_type(x, name: str) -> bool:
    """JSON Schema's type test: a bool is no number, and 1.0 is an integer."""
    if name in ("number", "integer"):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return False
        return name == "number" or isinstance(x, int) or x.is_integer()
    return isinstance(x, _PY_TYPES[name])


def _violations(x, schema: dict, path: tuple):
    """(path, keyword, message) of each violation of schema by x, in the
    schema's keyword order; a keyword for another JSON type than x's passes,
    and NaN fails no bound."""
    for kw, arg in schema.items():
        if kw == "type":
            names = [arg] if isinstance(arg, str) else arg
            if not any(_is_type(x, t) for t in names):
                yield path, kw, f"{x!r} is not of type {', '.join(map(repr, names))}"
        elif kw == "enum":
            if x not in arg:
                yield path, kw, f"{x!r} is not one of {arg!r}"
        elif isinstance(x, dict):
            if kw == "required":
                yield from ((path, kw, f"{k!r} is a required property") for k in arg if k not in x)
            elif kw == "properties":
                for k, sub in arg.items():
                    if k in x:
                        yield from _violations(x[k], sub, (*path, k))
            elif kw == "additionalProperties" and not arg:
                extra = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
                if extra:
                    names = ", ".join(map(repr, extra))
                    yield path, kw, (f"Additional properties are not allowed ({names} "
                                     f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        elif isinstance(x, list):
            if kw == "items":
                for i, item in enumerate(x):
                    yield from _violations(item, arg, (*path, i))
            elif kw == "minItems" and len(x) < arg:
                yield path, kw, f"{x!r} {'should be non-empty' if arg == 1 else 'is too short'}"
            elif kw == "maxItems" and len(x) > arg:
                yield path, kw, f"{x!r} is too long"
        elif isinstance(x, str):
            if kw == "minLength" and len(x) < arg:
                yield path, kw, f"{x!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif _is_type(x, "number"):
            if kw == "minimum" and x < arg:
                yield path, kw, f"{x!r} is less than the minimum of {arg!r}"
            elif kw == "maximum" and x > arg:
                yield path, kw, f"{x!r} is greater than the maximum of {arg!r}"
            elif kw == "exclusiveMinimum" and x <= arg:
                yield path, kw, f"{x!r} is less than or equal to the minimum of {arg!r}"


def schema_violation(doc, schema_name: str) -> tuple[str, str, str] | None:
    """(path, keyword, message) of doc's first violation of the shipped schema
    schema_name, in document order, or None. path joins keys and indices
    with "/" ("driver/name"), or is "<root>".

    It checks the keywords in SCHEMA_KEYWORDS with JSON Schema 2020-12's
    meaning; _schema refuses any other keyword when it loads the file.
    """
    for path, kw, message in _violations(doc, _schema(schema_name), ()):
        return "/".join(map(str, path)) or "<root>", kw, message
    return None


def validate_problem_dict(spec: dict) -> dict:
    """spec, or UsageError naming where it breaks schemas/problem.schema.json."""
    bad = schema_violation(spec, "problem.schema.json")
    if bad:
        raise UsageError(f"problem file invalid at {bad[0]}: {bad[2]}")
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


def build_problem(spec: dict) -> BsdeProblem:
    """The problem of one validated description, for either solver."""
    g_fun, f_fun, k0, k1 = make_drivers(spec)
    dur, lip = spec["duration"], spec.get("lipschitz", {})
    return BsdeProblem(g=g_fun, f=f_fun, terminal_psi=make_terminal(spec), horizon=dur["T"],
                       k0=lip.get("K0", k0), k1=lip.get("K1", k1), duration=dur["kind"],
                       boundary_phi=make_boundary(spec))


def build_problem_pair(spec: dict, level: int):
    """(p, p) for p = build_problem(spec): the benchmark's entry point, which
    ROADMAP item 7's benchmark-only change deletes. level is not read."""
    p = build_problem(spec)
    return p, p
