"""The problem and run-config schemas: the validator in problems.py against
jsonschema, its keyword guard, and a run path that never imports jsonschema."""

import json
import math
import os
import subprocess
import sys
from importlib import resources

import pytest

from gasketlab.errors import UsageError
from gasketlab.problems import SCHEMA_KEYWORDS, _check_keywords, schema_violation, validate_problem_dict

SCHEMAS = ("problem.schema.json", "runconfig.schema.json")
ANNOTATIONS = {"$schema", "$id", "title"}

PROBLEM = {"driver": {"name": "linear", "a": 0.5, "b": 0.2, "c": 0.1},
           "terminal": {"name": "bump"},
           "duration": {"kind": "killed", "T": 0.25}}
DROP = object()


def with_(doc, path, value):
    """A deep copy of doc with the entry at path set to value, or removed when value is DROP."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


PROBLEMS = [
    PROBLEM,
    {"driver": {"name": "zero"}, "terminal": {"name": "constant", "value": 2},
     "duration": {"kind": "deterministic", "T": 1}},
    {"driver": {"name": "custom-table", "y_knots": [-1, 0, 1], "g_values": [0, 1, 0], "b": -1},
     "terminal": {"name": "harmonic", "boundary_values": [1, 0, 0]},
     "boundary": {"values": [1, 0, 0], "slope": [0, 0.5, 0]},
     "duration": {"kind": "killed", "T": 2.5}, "lipschitz": {"K0": 0, "K1": 1.5}},
    {"driver": {"name": "sat-exp", "fy": 0.5, "fz": 0.25},
     "terminal": {"name": "bump", "center": [0.5, 0.25], "width": 3},
     "duration": {"kind": "killed", "T": 0.1}},
    # NaN and inf pass `number`, and NaN fails no bound: the solvers reject them
    with_(PROBLEM, ("terminal",), {"name": "constant", "value": math.nan}),
    with_(PROBLEM, ("boundary",), {"values": [math.inf, 0, 0]}),
    with_(PROBLEM, ("duration", "T"), math.nan),
    with_(PROBLEM, ("duration", "T"), math.inf),
    with_(PROBLEM, ("lipschitz",), {"K0": math.nan}),
    # one violation each
    with_(PROBLEM, ("driver", "a"), True),                       # a bool is no number
    with_(PROBLEM, ("driver", "a"), "0.5"),                      # type
    with_(PROBLEM, ("driver", "name"), "quadratic"),             # enum
    with_(PROBLEM, ("driver", "name"), 1),                       # enum, not a string
    with_(PROBLEM, ("lipschitz",), {"K0": -1}),                  # minimum
    with_(PROBLEM, ("lipschitz",), {"K1": -math.inf}),           # minimum
    with_(PROBLEM, ("duration", "T"), 0),                        # exclusiveMinimum
    with_(PROBLEM, ("duration", "T"), -math.inf),                # exclusiveMinimum
    with_(PROBLEM, ("terminal",), {"name": "bump", "width": -2}),
    with_(PROBLEM, ("terminal",), {"name": "bump", "center": [0.5]}),           # minItems
    with_(PROBLEM, ("terminal",), {"name": "bump", "center": [0.5, 0.2, 0]}),   # maxItems
    with_(PROBLEM, ("boundary",), {"values": [0, 0]}),                          # wrong length
    with_(PROBLEM, ("driver", "y_knots"), [0, "1"]),             # items
    with_(PROBLEM, ("driver", "g_values"), {"0": 1}),            # an object for an array
    with_(PROBLEM, ("boundary",), []),                           # an array for an object
    with_(PROBLEM, ("driver", "d"), 1),                          # additionalProperties
    with_(PROBLEM, ("extra",), {}),                              # additionalProperties
    with_(PROBLEM, ("terminal",), DROP),                         # required
    with_(PROBLEM, ("duration", "kind"), DROP),                  # required, nested
    [PROBLEM],                                                   # a top-level list
    None,
    "problem",
    # several violations: both validators must reject
    with_(with_(PROBLEM, ("driver", "name"), "nope"), ("terminal",), 5),
    with_(with_(PROBLEM, ("extra",), 1), ("duration",), DROP),
    {},
]

RUNCONFIG = {"subcommand": "walk", "out": "w.json", "level": 3, "seed": 0, "paths": 1000,
             "horizon": 1.0, "workers": 1, "format": "csv"}
RUNCONFIGS = [
    RUNCONFIG,
    {"subcommand": "check", "out": "x", "check_kind": "fk", "problem": "p.json"},
    with_(RUNCONFIG, ("problem",), None),                        # a type list
    with_(RUNCONFIG, ("level",), 3.0),                           # 1.0 is an integer
    with_(RUNCONFIG, ("anything",), [1, 2]),                     # additionalProperties: true
    with_(RUNCONFIG, ("horizon",), math.nan),
    with_(RUNCONFIG, ("horizon",), math.inf),
    with_(RUNCONFIG, ("horizon",), 0),                           # exclusiveMinimum
    with_(RUNCONFIG, ("level",), 13),                            # maximum
    with_(RUNCONFIG, ("level",), math.inf),                      # a float, not an integer
    with_(RUNCONFIG, ("level",), -1),                            # minimum
    with_(RUNCONFIG, ("level",), 2.5),                           # type
    with_(RUNCONFIG, ("seed",), True),                           # a bool is no integer
    with_(RUNCONFIG, ("workers",), 0),
    with_(RUNCONFIG, ("out",), ""),                              # minLength
    with_(RUNCONFIG, ("problem",), 3),                           # a type list
    with_(RUNCONFIG, ("format",), "xml"),                        # enum
    with_(RUNCONFIG, ("subcommand",), None),
    with_(RUNCONFIG, ("out",), DROP),                            # required
    {"subcommand": "walk"},
    {},
    [RUNCONFIG],
]


def _jsonschema_errors(doc, name):
    jsonschema = pytest.importorskip("jsonschema")
    with resources.files("gasketlab.schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    return list(jsonschema.Draft202012Validator(schema).iter_errors(doc))


@pytest.mark.parametrize("name, docs", [("problem.schema.json", PROBLEMS),
                                        ("runconfig.schema.json", RUNCONFIGS)])
def test_validator_agrees_with_jsonschema(name, docs):
    for doc in docs:
        errors = _jsonschema_errors(doc, name)
        got = schema_violation(doc, name)
        assert (got is None) == (not errors), doc
        if len(errors) == 1:
            path = "/".join(map(str, errors[0].absolute_path)) or "<root>"
            assert got[:2] == (path, errors[0].validator), doc


def test_corpus_covers_every_keyword():
    # each checked keyword is broken alone by some document of the corpus
    broken = set()
    for name, docs in (("problem.schema.json", PROBLEMS), ("runconfig.schema.json", RUNCONFIGS)):
        for doc in docs:
            errors = _jsonschema_errors(doc, name)
            if len(errors) == 1:
                broken.add(errors[0].validator)
    assert broken == SCHEMA_KEYWORDS - {"items", "properties"}


def _keywords(schema):
    """Every keyword of schema and of its subschemas."""
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _keywords(sub)
    if "items" in schema:
        yield from _keywords(schema["items"])


@pytest.mark.parametrize("name", SCHEMAS)
def test_shipped_schemas_use_only_checked_keywords(name):
    with resources.files("gasketlab.schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    assert set(_keywords(schema)) <= SCHEMA_KEYWORDS | ANNOTATIONS
    _check_keywords(schema, name)


@pytest.mark.parametrize("schema", (
    {"type": "object", "patternProperties": {"^x": {}}},
    {"properties": {"a": {"type": "number", "multipleOf": 2}}},
    {"properties": {"a": {"type": "array", "items": {"const": 1}}}},
    {"additionalProperties": {"type": "number"}},
    {"properties": {"a": {"enum": ["x", 1]}}},
    {"properties": {"a": {"type": ["string", "float"]}}},
))
def test_unchecked_keyword_raises_on_load(schema):
    with pytest.raises(ValueError):
        _check_keywords(schema, "test")


def test_problem_messages_name_the_path():
    with pytest.raises(UsageError, match="problem file invalid at driver/name: 'nope' is not one of"):
        validate_problem_dict(with_(PROBLEM, ("driver", "name"), "nope"))
    with pytest.raises(UsageError, match="problem file invalid at <root>: 'terminal' is a required"):
        validate_problem_dict(with_(PROBLEM, ("terminal",), DROP))
    with pytest.raises(UsageError, match="at boundary/values/1: 'x' is not of type 'number'"):
        validate_problem_dict(with_(PROBLEM, ("boundary",), {"values": [0, "x", 0]}))
    assert validate_problem_dict(PROBLEM) is PROBLEM


def test_run_path_never_imports_jsonschema(tmp_path):
    # the package import, a validation and a CLI run, in a fresh process
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    code = ("import sys, gasketlab\n"
            "from gasketlab import cli, problems\n"
            f"problems.validate_problem_dict({PROBLEM!r})\n"
            f"assert cli.main(['pde', '--problem', {str(pf)!r}, '--level', '2', "
            f"'--out', {str(tmp_path / 'u.csv')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
