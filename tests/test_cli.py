"""Command-line interface: outputs, schema validation, reproducibility."""

import csv
import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from gasketlab.cli import COMMANDS, main
from gasketlab.errors import UsageError
from gasketlab.problems import validate_problem_dict
from gasketlab.walk import step_duration


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_graph_export(tmp_path):
    out = tmp_path / "g.json"
    assert run(["graph", "--level", 1, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["level"] == 1 and len(doc["vertices"]) == 6
    meta = json.loads((tmp_path / "g.json.meta.json").read_text())
    assert "config_hash" in meta and meta["version"]


def test_harmonic_csv(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["harmonic", "--boundary", "1,0,0", "--level", 1, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["vertex_id", "x", "y", "value"]
    assert len(rows) == 6
    vals = sorted(float(r[3]) for r in rows)
    assert vals == sorted([1.0, 0.0, 0.0, 0.4, 0.4, 0.2])


def test_measure_nu_level2(tmp_path):
    out = tmp_path / "nu.csv"
    assert run(["measure", "--kind", "nu", "--level", 2, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["word", "mass_numerator", "mass_denominator", "mass_float"]
    assert len(rows) == 9
    total = sum(Fraction(int(r[1]), int(r[2])) for r in rows)
    assert total == 1


def test_measure_energy_requires_boundary(tmp_path, capsys):
    rc = run(["measure", "--kind", "energy", "--level", 1,
              "--out", tmp_path / "e.csv"])
    assert rc == 2
    assert "boundary" in capsys.readouterr().err


def test_walk_paths_csv(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["walk", "--level", 1, "--paths", 3, "--horizon", 0.2,
                "--seed", 5, "--emit", "paths", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["path_id", "step", "vertex_id", "dW", "dQV", "cumQV", "hit_flag"]
    steps = int(round(0.2 / (5.0**-1 / 3)))
    assert len(rows) == 3 * steps


def test_walk_stats_and_histogram(tmp_path):
    rep = tmp_path / "s.json"
    assert run(["walk", "--level", 2, "--paths", 500, "--horizon", 1.0,
                "--killed", "--start", "0", "--emit", "stats", "--out", rep]) == 0
    doc = json.loads(rep.read_text())
    assert "qv" in doc and "exit_time" in doc

    out = tmp_path / "h.csv"
    assert run(["walk", "--level", 2, "--paths", 500, "--horizon", 1.0,
                "--emit", "histogram", "--cell-level", 1, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["word", "mass"]
    assert abs(sum(float(r[1]) for r in rows) - 1.0) < 1e-9


PROBLEM = {
    "driver": {"name": "linear", "a": 0.3, "b": 0.2, "c": 0.1},
    "terminal": {"name": "bump"},
    "duration": {"kind": "killed", "T": 0.5},
}


def test_bsde_and_pde_outputs(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    bs = tmp_path / "sol.csv"
    assert run(["bsde", "--problem", pf, "--level", 2, "--stride", 25,
                "--out", bs]) == 0
    header, rows = read_csv(bs)
    assert header == ["step", "vertex_id", "Y", "Z"]

    ps = tmp_path / "u.csv"
    assert run(["pde", "--problem", pf, "--level", 2, "--stride", 25,
                "--out", ps]) == 0
    header, rows = read_csv(ps)
    assert header == ["layer", "vertex_id", "u"]
    gheader, _ = read_csv(str(ps) + ".gradients.csv")
    assert gheader == ["layer", "word", "grad"]


def test_pde_at_level_zero_is_a_usage_error(tmp_path, capsys):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    assert run(["pde", "--problem", pf, "--level", 0, "--out", tmp_path / "u.csv"]) == 2
    assert "interior" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pde", "bsde"])
def test_non_finite_terminal_data_is_a_usage_error(tmp_path, capsys, command):
    # JSON's NaN passes the schema as a number; the solvers reject it
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({**PROBLEM, "terminal": {"name": "constant", "value": math.nan}}))
    assert run([command, "--problem", pf, "--level", 2, "--out", tmp_path / "u.csv"]) == 2
    assert "finite" in capsys.readouterr().err


def test_bsde_iters_flag_removed(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    with pytest.raises(SystemExit) as exc:
        run(["bsde", "--problem", pf, "--level", 1, "--iters", 3,
             "--out", tmp_path / "sol.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, keys", (
    (["bsde", "--level", 1, "--stride", 25], {"step", "vertex_id", "Y", "Z"}),
    (["check", "fk", "--levels", "2,3", "--probe-times", "0.0,0.25"], {"level", "sup_error"}),
))
def test_json_format_tables(tmp_path, command, keys):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "t.json"
    assert run(["--format", "json", *command, "--problem", pf, "--out", out]) == 0
    rows = json.loads(out.read_text())
    assert rows and all(set(r) == keys for r in rows)
    assert all(isinstance(r[k], float) for r in rows for k in keys & {"Y", "sup_error"})


def test_check_fk_decreasing_column(tmp_path):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "fk.csv"
    assert run(["check", "fk", "--problem", pf, "--levels", "2,3",
                "--probe-times", "0.0,0.25", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["level", "sup_error"]
    sups = [float(r[1]) for r in rows]
    assert sups[1] < sups[0]


def test_check_fk_probe_past_horizon_usage_error(tmp_path, capsys):
    # the default probe times run to 0.75, past this problem's T = 0.5
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "fk.csv"
    assert run(["check", "fk", "--problem", pf, "--levels", "2,3", "--out", out]) == 2
    assert "probe times [0.75] lie outside [0, 0.5]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", (
    ["pde", "--level", 2],
    ["check", "fk", "--levels", "2,3", "--probe-times", "0.0,0.125"],
))
def test_pde_and_check_fk_reject_a_deterministic_duration(tmp_path, capsys, command):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({**PROBLEM, "driver": {"name": "sin"},
                              "duration": {"kind": "deterministic", "T": 0.25}}))
    out = tmp_path / "out.csv"
    assert run([*command, "--problem", pf, "--out", out]) == 2
    assert "killed" in capsys.readouterr().err
    assert not out.exists()


def test_walk_negative_cell_level_usage_error(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert run(["walk", "--level", 2, "--paths", 50, "--horizon", 0.5,
                "--emit", "histogram", "--cell-level", -1, "--out", out]) == 2
    assert "cell level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, field", (
    (["pde", "--level", 2, "--steps", 0], "steps"),
    (["pde", "--level", 2, "--stride", 0], "stride"),
    (["bsde", "--level", 2, "--stride", -3], "stride"),
))
def test_non_positive_steps_and_stride_usage_error(tmp_path, capsys, command, field):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "out.csv"
    assert run([*command, "--problem", pf, "--out", out]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("iters", (0, -2))
def test_check_contraction_without_sweeps_usage_error(tmp_path, capsys, iters):
    out = tmp_path / "c.json"
    assert run(["check", "contraction", "--level", 1, "--paths", 10, "--iters", iters,
                "--out", out]) == 2
    assert "n_iters" in capsys.readouterr().err
    assert not out.exists()


def test_command_handlers_take_args_only():
    for handler in COMMANDS.values():
        assert list(inspect.signature(handler).parameters) == ["args"]


def test_check_identity(tmp_path):
    out = tmp_path / "id.json"
    assert run(["check", "identity", "--levels", "1,3", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["1"]["exact_zero"] and doc["3"]["exact_zero"]


def test_check_identity_negative_level_usage_error(tmp_path, capsys):
    out = tmp_path / "id.json"
    assert run(["check", "identity", "--levels", "1,-1", "--out", out]) == 2
    assert "level -1 is negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", (
    (["check", "fk", "--problem", "{problem}", "--levels", "2,x"], "--levels"),
    (["check", "fk", "--problem", "{problem}", "--probe-times", "0,abc"], "--probe-times"),
    (["check", "identity", "--levels", "1,x"], "--levels"),
    (["harmonic", "--level", 1, "--boundary", "1,x,2"], "--boundary"),
    (["measure", "--kind", "energy", "--level", 1, "--boundary", "1,x,2"], "--boundary"),
))
def test_malformed_list_flags_usage_error(tmp_path, capsys, command, flag):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "out.csv"
    argv = [str(pf) if a == "{problem}" else a for a in command]
    assert run([*argv, "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_check_bounds_beta_chain(tmp_path):
    out = tmp_path / "bc.json"
    assert run(["check", "bounds", "--which", "beta-chain", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert all(case["rel_gap"] <= 1e-6 for case in doc["cases"])


def test_check_contraction(tmp_path):
    out = tmp_path / "c.json"
    assert run(["check", "contraction", "--level", 2, "--paths", 100,
                "--iters", 6, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_below_bound"]
    assert abs(doc["bound"] - 1.0) < 1e-12


def test_empty_config_usage_error(capsys):
    assert run([]) == 2


@pytest.mark.parametrize("paths", (0, -5))
def test_walk_nonpositive_paths_usage_error(tmp_path, capsys, paths):
    out = tmp_path / "w.json"
    assert run(["walk", "--level", 2, "--paths", paths, "--out", out]) == 2
    assert "paths" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ("nan", "inf"))
def test_walk_non_finite_horizon_usage_error(tmp_path, capsys, horizon):
    # the schema's exclusiveMinimum lets NaN through; it used to end in a traceback
    out = tmp_path / "w.json"
    assert run(["walk", "--level", 2, "--horizon", horizon, "--out", out]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_walk_stats_single_path_usage_error(tmp_path, capsys):
    out = tmp_path / "w.json"
    assert run(["walk", "--level", 2, "--paths", 1, "--emit", "stats", "--out", out]) == 2
    assert "at least 2 paths" in capsys.readouterr().err
    assert not out.exists()


def test_arithmetic_flag_removed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["--arithmetic", "exact", "graph", "--level", 1, "--out", tmp_path / "g.json"])
    assert exc.value.code == 2


def test_problem_schema_violation(tmp_path, capsys):
    pf = tmp_path / "bad.json"
    pf.write_text(json.dumps({"driver": {"name": "nope"},
                              "terminal": {"name": "bump"},
                              "duration": {"kind": "killed", "T": 1.0}}))
    rc = run(["bsde", "--problem", pf, "--level", 1, "--out", tmp_path / "x.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "driver/name" in err


@pytest.mark.parametrize("content", (None, "{bad"))
@pytest.mark.parametrize("command", (
    ["bsde", "--level", 1],
    ["pde", "--level", 1],
    ["check", "fk", "--levels", "2,3"],
))
def test_unreadable_problem_file_usage_error(tmp_path, capsys, command, content):
    # a missing file or malformed JSON is a UsageError naming the path
    pf = tmp_path / "problem.json"
    if content is not None:
        pf.write_text(content)
    out = tmp_path / "out.csv"
    assert run([*command, "--problem", pf, "--out", out]) == 2
    assert str(pf) in capsys.readouterr().err
    assert not out.exists()


def test_problem_schema_missing_field():
    with pytest.raises(UsageError) as exc:
        validate_problem_dict({"driver": {"name": "zero"}})
    assert "terminal" in str(exc.value) or "required" in str(exc.value)


def test_reproducibility_across_workers(tmp_path):
    outs = []
    for workers, name in ((1, "a.csv"), (3, "b.csv")):
        out = tmp_path / name
        assert run(["--seed", "11", "--workers", workers,
                    "walk", "--level", 2, "--paths", 600, "--horizon", 0.5,
                    "--emit", "paths", "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reproducibility_across_workers_multi_block(tmp_path):
    # 50001 paths make three default 25000-path blocks, so --workers 3
    # runs them in a process pool
    outs = []
    for workers, name in ((1, "a.json"), (3, "b.json")):
        out = tmp_path / name
        assert run(["--seed", "11", "--workers", workers,
                    "walk", "--level", 1, "--paths", 50001, "--horizon", 0.2,
                    "--emit", "stats", "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["qv"]["paths"] == 50001


def test_measure_json_format(tmp_path):
    out = tmp_path / "nu.json"
    assert run(["--format", "json", "measure", "--kind", "nu", "--level", 1,
                "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 3
    assert {r["word"] for r in doc} == {"1", "2", "3"}


def test_bsde_dt_per_step_flag_removed(tmp_path):
    # the flag relabelled dt while P, Q and dqv stayed on the 5^-m/3 step
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(PROBLEM))
    out = tmp_path / "sol.csv"
    with pytest.raises(SystemExit) as exc:
        run(["bsde", "--problem", pf, "--level", 1, "--dt-per-step", 0.05, "--out", out])
    assert exc.value.code == 2
    assert run(["bsde", "--problem", pf, "--level", 1, "--stride", 3, "--out", out]) == 0
    _, rows = read_csv(out)
    steps = {int(r[0]) for r in rows}
    last = int(round(0.5 / step_duration(1)))
    assert steps == set(range(0, last + 1, 3))
