"""Command-line interface: outputs, schema validation, reproducibility."""

import argparse
import csv
import inspect
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from gasketlab.cli import COMMANDS, build_parser, main
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


@pytest.mark.parametrize("value", (math.nan, math.inf))
@pytest.mark.parametrize("command", ["pde", "bsde"])
def test_non_finite_boundary_data_is_a_usage_error(tmp_path, capsys, command, value):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({**PROBLEM, "boundary": {"values": [value, 0, 0]}}))
    out = tmp_path / "u.csv"
    assert run([command, "--problem", pf, "--level", 2, "--out", out]) == 2
    assert "boundary data must be finite" in capsys.readouterr().err
    assert not out.exists()


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
    assert run([*command, "--format", "json", "--problem", pf, "--out", out]) == 0
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


# each leaf subcommand with its required arguments, and the leaves that read
# each of the three shared flags; every other placement exits 2 in argparse
LEAVES = {
    "graph": ["graph", "--level", "1"],
    "harmonic": ["harmonic", "--boundary", "1,0,0", "--level", "1"],
    "measure": ["measure", "--kind", "nu", "--level", "1"],
    "walk": ["walk", "--level", "1"],
    "bsde": ["bsde", "--problem", "p.json", "--level", "1"],
    "pde": ["pde", "--problem", "p.json", "--level", "1"],
    "check fk": ["check", "fk", "--problem", "p.json"],
    "check bounds": ["check", "bounds", "--which", "ml"],
    "check contraction": ["check", "contraction"],
    "check identity": ["check", "identity"],
}
FLAG_READERS = {
    "--seed": {"walk", "check bounds", "check contraction"},
    "--workers": {"walk", "check bounds", "check contraction"},
    "--format": {"harmonic", "measure", "walk", "bsde", "pde", "check fk"},
}
FLAG_VALUES = {"--seed": ("3", 3), "--workers": ("2", 2), "--format": ("json", "json")}


def all_parsers(parser, name=""):
    """(name, parser) for the top-level parser, the check group and every leaf."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child, p in action.choices.items():
                yield from all_parsers(p, f"{name} {child}".strip())


def test_shared_flags_are_placed_only_on_their_readers():
    placed = {(name, opt) for name, p in all_parsers(build_parser())
              for action in p._actions for opt in action.option_strings if opt in FLAG_READERS}
    assert placed == {(leaf, flag) for flag, leaves in FLAG_READERS.items() for leaf in leaves}
    assert len(placed) == 12


@pytest.mark.parametrize("flag", FLAG_READERS)
@pytest.mark.parametrize("leaf", LEAVES)
def test_shared_flag_placements(capsys, leaf, flag):
    text, value = FLAG_VALUES[flag]
    argv = [*LEAVES[leaf], flag, text, "--out", "x"]
    if leaf in FLAG_READERS[flag]:
        assert getattr(build_parser().parse_args(argv), flag[2:]) == value
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", FLAG_READERS)
@pytest.mark.parametrize("leaf", LEAVES)
def test_shared_flags_before_the_subcommand_exit_2(leaf, flag):
    # before the subcommand or between check and its kind, even for a reader
    words = LEAVES[leaf]
    cut = 1 if words[0] == "check" else 0
    argv = [*words[:cut], flag, FLAG_VALUES[flag][0], *words[cut:], "--out", "x"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("check", (False, True))
@pytest.mark.parametrize("flag", FLAG_READERS)
def test_flag_before_the_subcommand_is_named(capsys, flag, check):
    # argparse alone would read the flag's value as the subcommand:
    # "invalid choice: '1'"
    argv = [flag, FLAG_VALUES[flag][0], "bounds" if check else "walk", "--out", "x"]
    with pytest.raises(SystemExit) as exc:
        main(["check", *argv] if check else argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} goes after the subcommand" in err
    assert "invalid choice" not in err


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("gasketlab ")]
    assert len(lines) >= 8
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("emit", ("paths", "stats"))
@pytest.mark.parametrize("flag", (["--at-time", "0.25"], ["--cell-level", "1"]))
def test_walk_histogram_flags_need_emit_histogram(tmp_path, capsys, emit, flag):
    out = tmp_path / "w.out"
    assert run(["walk", "--level", 1, "--paths", 10, "--horizon", 0.5, "--emit", emit,
                *flag, "--out", out]) == 2
    assert "--emit histogram" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_walk_stats_rejects_format(tmp_path, capsys, fmt):
    # stats are always JSON; --format csv used to be accepted and ignored
    out = tmp_path / "w.out"
    assert run(["walk", "--level", 1, "--paths", 10, "--emit", "stats", "--format", fmt,
                "--out", out]) == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ("ml", "beta-chain"))
@pytest.mark.parametrize("flag", (["--level", "9"], ["--paths", "1"], ["--seed", "3"],
                                  ["--workers", "2"]))
def test_check_bounds_rejects_ensemble_flags_it_does_not_read(tmp_path, capsys, which, flag):
    # `--which ml --level 9 --paths 1` used to exit 0
    out = tmp_path / "b.json"
    assert run(["check", "bounds", "--which", which, *flag, "--out", out]) == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_sidecar_records_the_defaults_a_command_resolves(tmp_path):
    # walk's --format and check bounds' ensemble flags default to None in the
    # parser, so the mode that ignores them can tell them apart from a given
    # value; the modes that read them record the values they ran with, and
    # walk stats, which reads no --format, records none
    walk_out, bounds_out = tmp_path / "w.csv", tmp_path / "b.json"
    assert run(["walk", "--level", 1, "--paths", 10, "--emit", "paths", "--out", walk_out]) == 0
    assert run(["walk", "--level", 1, "--paths", 10, "--out", tmp_path / "s.json"]) == 0
    assert "format" not in json.loads((tmp_path / "s.json.meta.json").read_text())["config"]
    assert run(["check", "bounds", "--which", "moments", "--level", 1, "--paths", 50,
                "--out", bounds_out]) == 0
    walk_cfg = json.loads((tmp_path / "w.csv.meta.json").read_text())["config"]
    bounds_cfg = json.loads((tmp_path / "b.json.meta.json").read_text())["config"]
    assert walk_cfg["format"] == "csv"
    assert walk_out.read_text().startswith("path_id,step,")
    assert {k: bounds_cfg[k] for k in ("level", "paths", "seed", "workers")} == {
        "level": 1, "paths": 50, "seed": 0, "workers": 1}


def test_check_without_a_kind_names_the_kinds(capsys):
    # it used to say "config missing required fields: 'out' is a required property"
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "required: {fk,bounds,contraction,identity}" in err
    assert "'out'" not in err


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


def test_reproducibility_across_workers_single_block(tmp_path):
    # 600 paths are one 25000-path block: --workers 3 is accepted, but no
    # pool is started (the multi-block test below reaches it)
    outs = []
    for workers, name in ((1, "a.csv"), (3, "b.csv")):
        out = tmp_path / name
        assert run(["walk", "--seed", "11", "--workers", workers,
                    "--level", 2, "--paths", 600, "--horizon", 0.5,
                    "--emit", "paths", "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reproducibility_across_workers_multi_block(tmp_path, pool_spy):
    # 50001 paths make three default 25000-path blocks, so --workers 3
    # runs them in a process pool
    outs = []
    for workers, name in ((1, "a.json"), (3, "b.json")):
        out = tmp_path / name
        assert run(["walk", "--seed", "11", "--workers", workers,
                    "--level", 1, "--paths", 50001, "--horizon", 0.2,
                    "--emit", "stats", "--out", out]) == 0
        outs.append(out.read_bytes())
    assert pool_spy == [3]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["qv"]["paths"] == 50001


def test_measure_json_format(tmp_path):
    out = tmp_path / "nu.json"
    assert run(["measure", "--format", "json", "--kind", "nu", "--level", 1,
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
