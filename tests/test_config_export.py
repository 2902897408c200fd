"""Config file format, diagnostics CSV, VTK output and the CLI."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcflow.cli import build_parser
from mcflow.cli import main as cli_main
from mcflow.config import (
    ConfigError,
    ScenarioConfig,
    load_config,
    parse_config,
    serialize_config,
)
from mcflow.export import (
    CSV_HEADER,
    export_vtk,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from mcflow.convergence import convergence_study
from mcflow.flow import FlowProblem, NormalDrift, run


# -- config -------------------------------------------------------------------


def test_roundtrip_default_config(tmp_path):
    cfg = ScenarioConfig()
    p = tmp_path / "run.cfg"
    p.write_text(serialize_config(cfg))
    assert load_config(p) == cfg


def test_serialization_is_canonical():
    cfg = ScenarioConfig(dt=0.1 + 0.2)  # value with a long repr
    text = serialize_config(cfg)
    assert serialize_config(parse_config(text)) == text


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a comment line
        scenario = sphere_patch
        dt = 0.025   # trailing comment
        t_final = 0.9

        elements_per_side = 10
        snapshot_stride = 4
        """
    )
    assert cfg.scenario == "sphere_patch"
    assert cfg.dt == 0.025
    assert cfg.elements_per_side == 10
    assert cfg.snapshot_stride == 4


@pytest.mark.parametrize(
    "text,match",
    [
        ("no_such_key = 3", "unknown key"),
        ("ritz_lambda = 10.0", "unknown key"),
        ("dt = fast", "bad value"),
        ("dt = 0.1\ndt = 0.2", "duplicate"),
        ("just words", "expected"),
    ],
)
def test_malformed_config_rejected(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@settings(max_examples=40, deadline=None)
@given(
    dt=st.floats(min_value=1e-8, max_value=1e3, allow_nan=False),
    amp=st.floats(min_value=-10, max_value=10, allow_nan=False),
    n=st.integers(min_value=1, max_value=512),
)
def test_config_roundtrip_property(dt, amp, n):
    cfg = ScenarioConfig(dt=dt, perturbation_amplitude=amp, elements_per_side=n)
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "key, value",
    [
        ("output_dir", "runs/#1"),
        ("output_dir", " padded "),
        ("output_dir", "runs/out\t"),
        ("output_dir", "runs/a\nb"),
        ("output_dir", "runs/a\u2028b"),
        ("scenario", "sphere_patch\r"),
    ],
    ids=["hash", "padded", "trailing-tab", "newline", "line-separator", "carriage-return"],
)
def test_serialize_refuses_what_parse_reads_back_differently(key, value):
    """`#` starts a comment, a line break ends the line and surrounding
    whitespace is stripped, so none of them can be written."""
    with pytest.raises(ConfigError, match=f"cannot write '{key}'"):
        serialize_config(replace(ScenarioConfig(), **{key: value}))


@settings(max_examples=60, deadline=None)
@given(output_dir=st.text(max_size=12))
@example(output_dir="")
@example(output_dir="runs/a b")
@example(output_dir="runs/x=1")
@example(output_dir="C:\\runs\\ü")
def test_serialized_configs_read_back_equal(output_dir):
    """Any string is either refused or read back as written."""
    cfg = ScenarioConfig(output_dir=output_dir)
    try:
        text = serialize_config(cfg)
    except ConfigError as exc:
        assert "'output_dir'" in str(exc)
        return
    assert parse_config(text) == cfg


def test_unknown_scenario_fails_at_params():
    cfg = ScenarioConfig(scenario="torus")
    with pytest.raises(ConfigError):
        cfg.scenario_params()


# -- CSV ------------------------------------------------------------------------


def test_csv_roundtrip_values(tmp_path, rng):
    from mcflow.flow import StepDiagnostics

    rows = [
        StepDiagnostics(
            time=float(i) * 0.1,
            area=float(rng.uniform(3, 5)),
            max_abs_kappa=float(rng.uniform(0, 3)),
            constraint_residual=float(rng.uniform(0, 1e-12)),
            solver_residual=float(rng.uniform(0, 1e-14)),
            wallclock=0.01,
        )
        for i in range(5)
    ]
    p = tmp_path / "d.csv"
    write_diagnostics_csv(rows, p)
    assert p.read_text().splitlines()[0] == CSV_HEADER
    back = read_diagnostics_csv(p)
    assert np.array_equal(back["area"], [r.area for r in rows])
    assert np.array_equal(back["solver_residual"], [r.solver_residual for r in rows])


def test_csv_header_mismatch_detected(tmp_path):
    p = tmp_path / "bad.csv"
    for text in ("t,area\n0.0,4.0\n", ""):
        p.write_text(text)
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_diagnostics_csv(p)


# -- VTK ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run():
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.01,
        t_final=0.02,
        snapshot_stride=1,
        output_dir="",
    )
    prob = FlowProblem(cfg)
    return prob, prob.run()


def test_vtk_legacy_structure(tiny_run, tmp_path):
    prob, res = tiny_run
    path = export_vtk(prob, res.final_state, tmp_path / "s.vtk")
    lines = path.read_text().splitlines()
    n = 4 * 2 + 1
    assert lines[0].startswith("# vtk DataFile")
    assert f"POINTS {n * n} double" in lines
    assert f"CELLS {(n - 1) ** 2} {5 * (n - 1) ** 2}" in lines
    assert f"POINT_DATA {n * n}" in lines
    assert "VECTORS velocity double" in lines


# -- CLI -------------------------------------------------------------------------


def test_cli_solve(tmp_path, capsys):
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.01,
        t_final=0.03,
        snapshot_stride=2,
        output_dir=str(tmp_path / "out"),
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    assert cli_main(["solve", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshot_000000.vtk").exists()
    assert (out / "snapshot_000003.vtk").exists()
    assert "area" in capsys.readouterr().out


def test_cli_solve_without_output_dir_writes_here(tmp_path, monkeypatch, capsys):
    """With no output_dir every file of a run lands in the current
    directory: its CSV and its snapshots."""
    monkeypatch.chdir(tmp_path)
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.01,
        t_final=0.01,
        snapshot_stride=1,
        output_dir="",
    )
    (tmp_path / "run.cfg").write_text(serialize_config(cfg))
    assert cli_main(["solve", "--config", "run.cfg"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "diagnostics.csv",
        "run.cfg",
        "snapshot_000000.vtk",
        "snapshot_000001.vtk",
    ]


def test_cli_solve_without_output_dir_keeps_its_abort_record(tmp_path, monkeypatch):
    """A failing run with no output_dir leaves its diagnostics so far and
    its last good state in the current directory.  The N=8 sphere at
    dt = 0.1 stops by NormalDrift at t = 0.2."""
    monkeypatch.chdir(tmp_path)
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=8,
        dt=0.1,
        t_final=3.0,
        output_dir="",
    )
    (tmp_path / "run.cfg").write_text(serialize_config(cfg))
    with pytest.raises(NormalDrift, match="step to t = 0.2"):
        cli_main(["solve", "--config", "run.cfg"])
    rows = read_diagnostics_csv(tmp_path / "diagnostics_abort.csv")
    assert np.allclose(rows["t"], [0.0, 0.1], rtol=0, atol=1e-12)
    assert (tmp_path / "last_good_state.vtk").exists()


def test_run_writes_the_files_of_solve(tmp_path):
    """`flow.run` with an output_dir writes the files `mcflow solve` writes
    for that config, with the same bytes except the wallclock column."""
    cfg = ScenarioConfig(
        scenario="sphere_patch",
        degree=2,
        smoothness=1,
        elements_per_side=4,
        dt=0.01,
        t_final=0.03,
        snapshot_stride=2,
        output_dir=str(tmp_path / "solve"),
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    assert cli_main(["solve", "--config", str(cfg_path)]) == 0
    run(replace(cfg, output_dir=str(tmp_path / "run")))
    names = sorted(p.name for p in (tmp_path / "solve").iterdir())
    assert names == [
        "diagnostics.csv",
        "snapshot_000000.vtk",
        "snapshot_000002.vtk",
        "snapshot_000003.vtk",
    ]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
    for name in names:
        a, b = ((tmp_path / d / name).read_text() for d in ("solve", "run"))
        if name == "diagnostics.csv":  # all but the last column, the wallclock
            a, b = ([line.rsplit(",", 1)[0] for line in t.splitlines()] for t in (a, b))
        assert a == b, name


def test_convergence_study_writes_its_report(tmp_path):
    """With an output_dir the study writes its report there, and its level
    runs write nothing."""
    cfg = ScenarioConfig(elements_per_side=2, dt=0.02, t_final=0.04, output_dir=str(tmp_path))
    report = convergence_study(cfg, [2, 4, 8], t_final=cfg.t_final)
    assert [p.name for p in tmp_path.iterdir()] == ["convergence.json"]
    assert (tmp_path / "convergence.json").read_text() == report.to_json() + "\n"


def test_no_output_dir_writes_no_file(tmp_path, monkeypatch):
    """With an empty output_dir neither a run, with snapshots on, nor a
    study writes into the working directory."""
    monkeypatch.chdir(tmp_path)
    cfg = ScenarioConfig(
        elements_per_side=2,
        dt=0.02,
        t_final=0.04,
        snapshot_stride=1,
        output_dir="",
    )
    run(cfg)
    convergence_study(cfg, [2, 4, 8], t_final=cfg.t_final)
    assert list(tmp_path.iterdir()) == []


def test_cli_converge(tmp_path, capsys):
    cfg = ScenarioConfig(
        scenario="perturbed_plane",
        degree=2,
        smoothness=1,
        elements_per_side=2,
        dt=0.02,
        t_final=0.04,
        output_dir=str(tmp_path / "out"),
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    assert cli_main(["converge", "--config", str(cfg_path), "--levels", "2,4,8"]) == 0
    report = tmp_path / "out" / "convergence.json"
    assert report.exists()
    rep = json.loads(report.read_text())
    assert rep["levels"] == [2, 4, 8]
    assert "H1 order" in capsys.readouterr().out


def test_cli_has_no_calibrate_command(capsys):
    """The CLI has two commands; the scenario constants are re-derived by
    the calibration tests, not by a command."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["calibrate", "--scenario", "sphere_patch"])
    assert exc.value.code == 2
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("flag", [["--dump-matrices"], ["--snapshot-stride", "1"]])
def test_cli_converge_rejects_solve_flags(tmp_path, capsys, command, flag):
    """Neither command takes a flag for the stride, which the config key
    `snapshot_stride` sets, nor one for matrix dumps, which no run writes."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(ScenarioConfig(output_dir=str(tmp_path / "out"))))
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--config", str(cfg_path), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "levels, message",
    [("4,x", "invalid literal for int"), ("4,6,8", "nested and increasing")],
)
def test_cli_converge_rejects_bad_levels(tmp_path, capsys, levels, message):
    """A level list that is not all integers, or not nested, is a usage error."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(ScenarioConfig(output_dir=str(tmp_path / "out"))))
    with pytest.raises(SystemExit) as exc:
        cli_main(["converge", "--config", str(cfg_path), "--levels", levels])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --levels" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["converge", "--levels", "2,4,8"]])
@pytest.mark.parametrize(
    "text, message",
    [
        ("foo = 1", "unknown key 'foo'"),
        ("dt = abc", "bad value for 'dt'"),
        ("degree = 1", "bad spline space: degree must be >= 2"),
        (None, "No such file"),
        (
            "scenario = sphere_patch\npatch_polar_extent = 3.5",
            "bad scenario parameters: extent must lie in (0, pi/sqrt(2)), got 3.5",
        ),
        (
            "scenario = sphere_patch\npatch_corner_temper = 0.5",
            "bad scenario parameters: temper must lie in [0, 1/3), got 0.5",
        ),
        ("perturbation_amplitude = nan", "bad value for 'perturbation_amplitude': 'nan'"),
        ("dump_matrices = true", "unknown key 'dump_matrices'"),
    ],
)
def test_cli_rejects_bad_config(tmp_path, capsys, command, text, message):
    """A config file that is missing or malformed, or whose space or
    scenario cannot be built, is a usage error, reported before anything
    is written."""
    cfg_path = tmp_path / "run.cfg"
    if text is not None:
        cfg_path.write_text(f"{text}\noutput_dir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as exc:
        cli_main([command[0], "--config", str(cfg_path), *command[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --config" in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_solve_does_not_hide_output_errors(tmp_path):
    """An output directory that cannot be made is an I/O error, not a usage error."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = ScenarioConfig(elements_per_side=2, dt=0.01, t_final=0.01, output_dir=str(blocker))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(cfg))
    with pytest.raises(FileExistsError):
        cli_main(["solve", "--config", str(cfg_path)])


# the ids the cases had when they also varied the matrix dump, kept for selection by name
@pytest.mark.parametrize(
    "entry", ["run", "convergence_study"], ids=["run-False", "convergence_study-False"]
)
def test_an_output_dir_that_is_a_file_fails_before_set_up(tmp_path, monkeypatch, entry):
    """An output directory that cannot be made stops a run or a study
    before any initial data are computed, with one FileExistsError that
    chains no other error."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = ScenarioConfig(
        elements_per_side=2,
        dt=0.02,
        t_final=0.04,
        output_dir=str(blocker),
    )
    calls = []
    initialize = FlowProblem.initialize

    def recorded(self):
        calls.append(self)
        return initialize(self)

    monkeypatch.setattr(FlowProblem, "initialize", recorded)
    with pytest.raises(FileExistsError) as exc:
        if entry == "run":
            run(cfg)
        else:
            convergence_study(cfg, [2, 4, 8], t_final=cfg.t_final)
    assert exc.value.__context__ is None
    assert calls == []
    assert blocker.read_text() == ""


def test_readme_cli_names_the_flags_the_parser_defines():
    """The README's CLI section names exactly the flags of each subcommand,
    in its "`command` takes ..." clauses, and no other flag anywhere."""
    (sub,) = [a for a in build_parser()._actions if a.choices and "solve" in a.choices]
    defined = {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for name, parser in sub.choices.items()
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = " ".join(readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0].split())
    documented = {
        name: set(re.findall(r"`(--[\w-]+)`", clause))
        for name, clause in re.findall(r"`(\w+)` takes ([^;.]*)", section)
    }
    assert documented == defined
    assert set(re.findall(r"`(--[\w-]+)`", section)) == set().union(*defined.values())
