import dataclasses
import functools
import json
import os
import re
import shutil
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import cli, reporting
from flatvalley.analysis import limit_tolerance
from flatvalley.dynamics import ENERGY_DRIFT_LIMIT, PROBE_FRACTION, STEP_ERROR_FRACTION
from flatvalley.errors import (
    BlowUpError,
    InvalidParameterError,
    ScenarioError,
    UnverifiedLimitError,
)
from flatvalley.reporting import (
    grid_cells,
    read_csv_columns,
    revalidate_from_dir,
    write_trajectory_csv,
)
from flatvalley.scenario import read_scenario


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "potential": {"kind": "ellipsoid"},
    "p": [1.0, 0.0, 0.0],
    "v": [0.0, 1.0, 0.0],
    "horizon": 0.5,
}


def test_parse_scenario_valid(tmp_path):
    scn = fv.parse_scenario(_write(tmp_path, "ok.json", BASE))
    assert scn.potential.dim == 3
    assert scn.eps0 == 0.1 and scn.count == 6
    assert np.allclose(scn.p, [1.0, 0.0, 0.0])


def test_parse_scenario_snaps_p(tmp_path):
    data = dict(BASE, p=[1.000001, 0.0, 0.0])
    scn = fv.parse_scenario(_write(tmp_path, "snap.json", data))
    assert abs(scn.potential.field.value(scn.p)) <= 1e-12


def test_parse_scenario_rejects_far_p(tmp_path):
    data = dict(BASE, p=[1.1, 0.0, 0.0])
    with pytest.raises(ScenarioError):
        fv.parse_scenario(_write(tmp_path, "far.json", data))


def test_parse_scenario_rejects_normal_velocity(tmp_path):
    data = dict(BASE, v=[1.0, 0.0, 0.0])
    with pytest.raises(ScenarioError, match="tangent"):
        fv.parse_scenario(_write(tmp_path, "vbad.json", data))


def test_parse_scenario_projects_slightly_off_velocity(tmp_path):
    data = dict(BASE, v=[1e-4, 1.0, 0.0])
    scn = fv.parse_scenario(_write(tmp_path, "vproj.json", data))
    g = scn.potential.field.gradient(scn.p)
    assert abs(g @ scn.v) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(scn.v) + 1e-15


def test_parse_scenario_unknown_field(tmp_path):
    data = dict(BASE, wobble=3)
    with pytest.raises(ScenarioError, match="wobble"):
        fv.parse_scenario(_write(tmp_path, "unk.json", data))


def test_parse_scenario_syntax_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "potential": {"kind": "circle"},\n  oops\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        fv.parse_scenario(str(path))


def test_parse_scenario_rejects_plain_potential(tmp_path):
    data = {"potential": {"kind": "painleve"}, "p": [0.0], "v": [1.0]}
    with pytest.raises(ScenarioError, match="gallery"):
        fv.parse_scenario(_write(tmp_path, "plain.json", data))


@pytest.mark.parametrize("change, message", [
    ({"p": [float("nan"), 0.0, 0.0]}, "p must be a 3-vector of finite numbers"),
    ({"horizon": float("nan")}, "horizon must be a finite real number, got nan"),
    ({"eps0": float("inf")}, "eps0 must be a finite real number, got inf"),
], ids=["p-nan", "horizon-nan", "eps0-inf"])
def test_the_validator_refuses_non_finite_values(change, message):
    # a record that is no JSON text: json.dumps writes these values as NaN
    # and Infinity tokens, which a scenario file may not hold
    with pytest.raises(ScenarioError, match=re.escape(message)):
        read_scenario(dict(BASE, **change))


@pytest.mark.parametrize("change, message", [
    ({"p": [float("nan"), 0.0, 0.0]}, "holds NaN, which JSON does not allow"),
    ({"horizon": float("nan")}, "holds NaN, which JSON does not allow"),
    ({"eps0": float("inf")}, "holds Infinity, which JSON does not allow"),
    ({"count": "3"}, "count must be a JSON integer"),
    ({"count": True}, "count must be a JSON integer"),
    ({"tol_on_m": 5.0}, "unknown scenario fields: ['tol_on_m']"),
    ({"slack": -1.0}, "unknown scenario fields: ['slack']"),
    ({"out": 5}, "out must be a string, got 5"),
    ({"integrator": "verlet"}, "unknown scenario fields: ['integrator']"),
    ({"name": {"a": 1}}, "name must be a string, got {'a': 1}"),
    ({"name": 5}, "name must be a string, got 5"),
    ({"horizon": 1e-300}, "the squared output spacing 0.000e+00 is below the smallest normal"),
    ({"eps0": 1e300}, "eps0^2 |v|^2 overflows"),
    ({"v": [0.0, 1e154, 1e154]}, "v is too large: its squared norm overflows"),
    ({"p": [1e154, 1e154, 0.0]}, "p is too large: its squared norm overflows"),
    ({"n_out": 401.0}, "n_out must be a JSON integer"),
    ({"step_factor": "x"}, "step_factor must be a finite real number, got 'x'"),
    # |v| underflows to 0, yet v is not zero
    ({"v": [0, 1e-170, 0]}, "v is too small: the confinement budget eps^2 |v|^2 / 2 of the "
                            "smallest eps 3.125e-03 underflows to 0.000e+00"),
    # |v|^2 and the budget are subnormal
    ({"v": [0, 1e-155, 0]}, "v is too small: the confinement budget eps^2 |v|^2 / 2 of the "
                            "smallest eps 3.125e-03 underflows to 4.883e-316"),
], ids=["p-nan", "horizon-nan", "eps0-inf", "count-string", "count-bool", "tol_on_m",
        "slack-negative", "out-number", "integrator", "name-object", "name-number",
        "horizon-tiny", "eps0-huge", "v-square-overflows", "p-square-overflows",
        "n_out-float", "step_factor-string", "v-norm-underflows", "v-budget-underflows"])
def test_main_rejects_bad_scenario_values(tmp_path, capsys, change, message):
    path = _write(tmp_path, "bad.json", dict(BASE, **change))
    code = cli.main(["certify", "--scenario", path, "--out", str(tmp_path / "out"), "--no-svg"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ScenarioError") and len(err.splitlines()) == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change, error", [({"n_out": 401.0}, "ScenarioError"),
                                           ({"count": 6.0}, "ScenarioError")],
                         ids=["n_out", "count"])
def test_an_integer_written_as_a_float_is_refused_as_not_a_json_integer(tmp_path, capsys,
                                                                       change, error):
    path = _write(tmp_path, "float.json", dict(BASE, **change))
    code = cli.main(["certify", "--scenario", path, "--out", str(tmp_path / "out"), "--no-svg"])
    [(name, value)] = change.items()
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {error}: {name} must be a JSON integer, written with no decimal point "
        f"or exponent, got {value!r}\n")


@pytest.mark.parametrize("change", [{"n_out": 401.0}, {"step_factor": "x"}],
                         ids=["n_out", "step_factor"])
def test_integrator_options_built_in_python_keep_their_error_class(tmp_path, change):
    # parse_scenario re-raises the refusal as ScenarioError with its message
    with pytest.raises(InvalidParameterError) as direct:
        fv.IntegratorOptions(**change)
    with pytest.raises(ScenarioError) as parsed:
        fv.parse_scenario(_write(tmp_path, "options.json", dict(BASE, **change)))
    assert str(parsed.value) == str(direct.value)
    assert parsed.value.__cause__ is not None


def test_a_step_that_underflows_names_step_factor(tmp_path, capsys):
    # the squares of the smallest eps and of the output spacing stay normal
    # floats, but member 0's step step_factor * eps0 = 1e-350 is 0
    with open(CIRCLE) as fh:
        path = _write(tmp_path, "underflow.json", dict(
            json.load(fh), eps0=1e-150, step_factor=1e-200, horizon=1e-150, min_eps=1e-300))
    assert cli.main(["certify", "--scenario", path, "--out", str(tmp_path / "out"),
                     "--no-svg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ScenarioError: step_factor 1e-200 is too small for eps0 "
                          "1e-150") and len(err.splitlines()) == 1


@pytest.mark.parametrize("change", [{"count": 10**12}, {"min_eps": 0}, {"min_eps": -1}],
                         ids=["count-huge", "min_eps-zero", "min_eps-negative"])
def test_schedule_is_checked_before_it_is_built(tmp_path, capsys, change):
    path = _write(tmp_path, "schedule.json", dict(BASE, **change))
    tracemalloc.start()
    try:
        code = cli.main(["certify", "--scenario", path, "--out", str(tmp_path / "out"),
                         "--no-svg"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ScenarioError") and len(err.splitlines()) == 1
    assert peak < 2**20  # no eps schedule was allocated


def test_overrides_take_precedence(tmp_path):
    path = _write(tmp_path, "ov.json", BASE)
    scn = fv.parse_scenario(path, {"count": 4, "eps0": 0.2, "horizon": None})
    assert scn.count == 4 and scn.eps0 == 0.2 and scn.horizon == 0.5


def test_pipeline_artifacts_and_exit(circle_run_dir):
    run = circle_run_dir.report
    assert run.verdict == "UNSTABLE"
    assert run.exit_code == 0
    names = {os.path.basename(m) for m in run.manifest}
    for j in range(6):
        assert f"traj_eps{j}.csv" in names
        assert f"coords_eps{j}.csv" in names
    assert "limit.csv" in names and "report.json" in names and "evidence.csv" in names
    for fig in ("trajectories.svg", "convergence.svg", "violation.svg"):
        assert os.path.exists(os.path.join(circle_run_dir.path, "figures", fig))
    stages = {s["name"]: s["status"] for s in run.stages}
    assert all(v == "ok" for v in stages.values())


def test_report_json_content(circle_run_dir):
    with open(os.path.join(circle_run_dir.path, "report.json")) as fh:
        rep = json.load(fh)
    assert rep["certificate"]["verdict"] == "UNSTABLE"
    assert rep["convergence"]["cauchy_ok"] is True
    assert len(rep["family"]["dt"]) == rep["scenario"]["count"] == 6
    assert all(d <= 1e-8 for d in rep["family"]["energy_drifts"])
    # each fact once: the eps schedule, p and v only in the scenario; file
    # revalidation re-derives the certificate, which records no verdict of it
    assert "slack" not in rep["scenario"] and "epsilons" not in rep["family"]
    assert not {"epsilons", "p", "v", "revalidated_in_memory"} & set(rep["certificate"])
    assert not {"epsilons", "source_epsilon", "verified"} & set(rep["convergence"])
    assert "sup_r" not in rep["coordinates"]  # r = f at the nodes: violation_max
    assert all(set(row) == {"j", "displacement"} for row in rep["certificate"]["evidence"])
    assert all("eps" not in claim for claim in rep["family"]["bounds"])


def test_trajectory_csv_roundtrip(circle_run_dir):
    cols = read_csv_columns(os.path.join(circle_run_dir.path, "traj_eps0.csv"))
    assert list(cols) == ["tau", "x0", "x1", "v0", "v1"]
    assert len(cols["tau"]) == 401
    # 17 significant digits round-trip float64 exactly
    assert cols["tau"][200] == 0.0
    assert cols["x0"][200] == 1.0
    assert cols["v1"][200] == 1.0
    # a coords file holds only y, one row per member row
    coords = read_csv_columns(os.path.join(circle_run_dir.path, "coords_eps0.csv"))
    assert list(coords) == ["y1"] and len(coords["y1"]) == 401


def test_file_revalidation(circle_run_dir):
    result = revalidate_from_dir(circle_run_dir.path)
    assert result["ok"], result


def test_file_revalidation_detects_tampering(circle_run_dir, tmp_path):
    import shutil

    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    with open(clone / "report.json") as fh:
        rep = json.load(fh)
    rep["certificate"]["escape_radius"] *= 1.05
    with open(clone / "report.json", "w") as fh:
        json.dump(rep, fh)
    assert not revalidate_from_dir(str(clone))["ok"]


def test_pipeline_determinism(tiny_scenario_file, tmp_path):
    scn = fv.parse_scenario(tiny_scenario_file)
    a, b = tmp_path / "a", tmp_path / "b"
    fv.run_pipeline(scn, str(a), svg=True)
    fv.run_pipeline(scn, str(b), svg=True)
    for root, _, files in os.walk(a):
        for name in files:
            pa = os.path.join(root, name)
            pb = pa.replace(str(a), str(b), 1)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between runs"


def test_pipeline_indeterminate_exit(tiny_scenario_file, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise UnverifiedLimitError("forced for the exit-code contract test")

    monkeypatch.setattr(cli, "certify_instability", refuse)
    scn = fv.parse_scenario(tiny_scenario_file)
    report = fv.run_pipeline(scn, str(tmp_path / "ind"), svg=False)
    assert report.verdict == "INDETERMINATE"
    assert report.exit_code == 2


def test_main_certify_exit_code(tiny_scenario_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    code = cli.main(["certify", "--scenario", tiny_scenario_file, "--out", out,
                     "--no-svg"])
    assert code == 0
    assert "UNSTABLE" in capsys.readouterr().out


def test_main_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["certify", "--scenario", str(bad)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["certify", "--scenario", "s.json", "--count", "abc"],
     "argument --count: invalid int value: 'abc'"),
    (["certify", "--scenario", "s.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["certify"], "the following arguments are required: --scenario"),
    ([], "the following arguments are required: command"),
], ids=["count-abc", "unknown-flag", "no-scenario", "no-subcommand"])
def test_a_malformed_command_line_is_bad_input(capsys, argv, message):
    # argparse would print its usage block and exit 2, the INDETERMINATE code
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidParameterError: {message}\n"
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["certify", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: flatvalley certify")


def test_main_simulate_family_limit(tiny_scenario_file, tmp_path, capsys):
    # a single rescaled run is a family of one member
    out = str(tmp_path / "sim")
    assert cli.main(["family", "--count", "1", "--scenario", tiny_scenario_file,
                     "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "traj_eps0.csv"))
    assert cli.main(["family", "--scenario", tiny_scenario_file, "--out", out]) == 0
    assert cli.main(["limit", "--scenario", tiny_scenario_file, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "limit.csv"))
    capsys.readouterr()


def test_main_gallery(capsys):
    code = cli.main(["gallery", "--name", "painleve", "--trajectories", "3",
                     "--horizon", "30"])
    assert code == 0
    assert "trapped=True" in capsys.readouterr().out


def test_main_check(tiny_scenario_file, capsys):
    assert cli.main(["check", "--scenario", tiny_scenario_file]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


@pytest.mark.parametrize("name", ["circle", "gutter", "ellipsoid"])
def test_main_check_passes_on_the_shipped_scenarios(capsys, name):
    # the round trips start up to |r| = 0.14 (circle) or 0.53 off M and flow
    # for up to |t| = 0.3, at flow_steps_for's 1 substep per FLOW_COARSE_STEP
    # of |r| + 1e-3
    path = os.path.join(os.path.dirname(CIRCLE), f"{name}.json")
    assert cli.main(["check", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS gradient-vs-central-differences", "PASS potential-nonnegative",
        "PASS flow-identity", "PASS potential-separation", "PASS tube-roundtrip",
        "PASS regular-value"]


def test_certify_reports_family_failure(tiny_scenario_file, tmp_path, monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise BlowUpError("forced for the error-report test")

    monkeypatch.setattr(cli, "run_family", blow_up)
    out = tmp_path / "failed"
    code = cli.main(["certify", "--scenario", tiny_scenario_file, "--out", str(out),
                     "--no-svg"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: BlowUpError")
    rep = json.loads((out / "report.json").read_text())
    assert rep["errors"][0]["stage"] == "family"


def test_report_json_is_strict_json(tmp_path):
    # a straight valley has no tangential acceleration, so its ratio is vacuous
    scn = fv.Scenario(fv.gutter(), [0.0, 0.0], [0.0, 1.0], 1.0, count=3,
                      options=fv.IntegratorOptions(n_out=101))
    fv.run_pipeline(scn, str(tmp_path), svg=False)

    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")

    with open(tmp_path / "report.json") as fh:
        rep = json.load(fh, parse_constant=refuse)
    assert rep["coordinates"]["acceleration_ratio"] is None
    # the coordinates block is the stage's record, field for field
    assert set(rep["coordinates"]) == {f.name for f in dataclasses.fields(fv.CoordinateReport)}


CIRCLE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scenarios", "circle.json")


def _circle_file(tmp_path, **changes):
    with open(CIRCLE) as fh:
        return _write(tmp_path, "circle.json", {**json.load(fh), **changes})


GUTTER = os.path.join(os.path.dirname(CIRCLE), "gutter.json")


def _ceiling_residual(scn, j):
    """``residual_convergence`` on member j's dense run at its ceiling, at
    the 20 interior samples ``flatvalley residual`` reads by default."""
    ceiling = fv.dynamics.member_substeps(scn.horizon, scn.epsilons, scn.options,
                                          exponent=scn.potential.profile.exponent)[0][j]
    spacing = scn.horizon / ((scn.options.n_out - 1) // 2)
    traj = fv.integrate_rescaled(scn.potential, scn.p, scn.v, scn.epsilons[j], scn.horizon,
                                 dataclasses.replace(scn.options, step_factor=spacing / ceiling
                                                     / scn.epsilons[j]))
    taus = np.linspace(-0.85 * scn.horizon, 0.85 * scn.horizon, 20)
    return fv.residual_convergence(fv.chart_for_scenario(scn), traj, taus)


def test_residual_prints_the_convergence_of_the_members_ceiling_run(capsys):
    assert cli.main(["residual", "--scenario", CIRCLE, "--member", "1"]) == 0
    res = _ceiling_residual(fv.parse_scenario(CIRCLE), 1)
    assert capsys.readouterr().out.splitlines() == [
        "member j=1 (eps=0.05), 20 interior samples",
        f"  max residual        = {res['coarse_max']:.3e}",
        f"  max at halved steps = {res['fine_max']:.3e}",
        f"  shrink factor       = {res['shrink_factor']:.2f}",
    ]
    assert 0 < res["coarse_max"] <= 1e-3 and res["shrink_factor"] >= 3.0


def test_residual_on_the_gutter_has_no_shrink_factor(capsys):
    # the gutter's runs are straight lines: every stencil reads exactly 0
    res = _ceiling_residual(fv.parse_scenario(GUTTER), 1)
    assert res["coarse_max"] == res["fine_max"] == 0.0 and res["shrink_factor"] is None
    assert cli.main(["residual", "--scenario", GUTTER]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  shrink factor       = undefined"


def test_the_residual_never_needs_scipy(monkeypatch, capsys, circle_bundle):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.interpolate", None)
    assert _ceiling_residual(circle_bundle.scenario, 1)["shrink_factor"] >= 3.0
    assert cli.main(["residual", "--scenario", CIRCLE, "--member", "1"]) == 0
    assert capsys.readouterr().err == ""


def _table_passes(out):
    """The pass column of the family table, by member."""
    rows = out.split("pass\n", 1)[1].split("\n")
    return [row.split()[-1] for row in rows if row.split()[:1] and row.split()[0].isdigit()]


@pytest.mark.parametrize("step_factor", ["3.0", "0.3"])
def test_energy_drift_above_its_limit_is_indeterminate(tmp_path, capsys, step_factor):
    # the shipped circle on a coarse grid of 201 nodes: at either factor
    # member 0 takes one step per output interval, passes its confinement
    # audit and drifts by 1.9e-8; the family stage stops on the first member
    # over the limit
    out = tmp_path / "out"
    assert cli.main(["certify", "--scenario", _circle_file(tmp_path, n_out=201),
                     "--step-factor", step_factor, "--out", str(out), "--no-svg"]) == 2
    printed = capsys.readouterr().out
    assert _stages_printed(printed) == ["family", "emit"]
    rep = json.loads((out / "report.json").read_text())
    drifts = rep["family"]["energy_drifts"]
    assert all(b["speed_ok"] and b["sublevel_ok"] and b["ball_ok"]
               for b in rep["family"]["bounds"])
    assert rep["family"]["substeps"][0] == 1 and ENERGY_DRIFT_LIMIT < drifts[0]
    assert rep["certificate"] == {
        "verdict": "INDETERMINATE",
        "reason": f"family member j=0 (eps=0.1) failed its energy audit: drift "
                  f"{drifts[0]:.3e} > ENERGY_DRIFT_LIMIT = 1e-08"}
    assert _table_passes(printed)[0] == "False"


def test_step_error_above_its_limit_is_indeterminate(tmp_path, capsys):
    # the shipped circle to horizon 6 at step factor 0.08: energy stays
    # conserved to 6.4e-9, but the phase error grows with the horizon, and
    # member 4's step error passes STEP_ERROR_FRACTION of the limit tolerance
    out = tmp_path / "out"
    assert cli.main(["family", "--scenario", CIRCLE, "--horizon", "6", "--step-factor", "0.08",
                     "--out", str(out), "--no-svg"]) == 2
    printed = capsys.readouterr().out
    rep = json.loads((out / "report.json").read_text())
    fam, scn = rep["family"], fv.parse_scenario(CIRCLE, {"horizon": 6.0})
    limit = STEP_ERROR_FRACTION * limit_tolerance(scn.potential, scn.p, scn.v, scn.epsilons)
    errors = fam["step_errors"]
    assert max(fam["energy_drifts"]) <= ENERGY_DRIFT_LIMIT
    assert max(errors[:4]) <= limit < errors[4]
    assert rep["certificate"] == {
        "verdict": "INDETERMINATE",
        "reason": f"family member j=4 (eps=0.00625) failed its step-error audit: step error "
                  f"{errors[4]:.3e} > STEP_ERROR_FRACTION * tol_limit = {limit:.3e}"}
    # the table's pass column is the gate's verdict per member
    assert _table_passes(printed) == ["True"] * 4 + ["False", "True"]


def test_step_error_of_a_blown_up_companion_is_infinite(tmp_path, monkeypatch):
    # a companion that leaves the finite box has no step error to measure:
    # it counts as infinite, and the gate stops the run
    real = fv.dynamics.integrate

    def integrate(accel, x0, v0, dt, n_steps, *, steps, scale, stride, **kwargs):
        Xs, Vs, failures = real(accel, x0, v0, dt, n_steps, steps=steps, scale=scale,
                                stride=stride, **kwargs)
        companion = len(steps) - 1  # the last member's
        failures[companion] = BlowUpError("state left the finite box", last_time=0.0,
                                          last_state=(Xs[companion][0], Vs[companion][0]))
        return Xs, Vs, failures

    monkeypatch.setattr(fv.dynamics, "integrate", integrate)
    scn = fv.parse_scenario(CIRCLE, {"count": 3})
    report = fv.run_pipeline(scn, str(tmp_path), svg=False, stages=("family",))
    assert report.exit_code == 2
    assert list(report.results["family"].step_errors[:2] < np.inf) == [True, True]
    assert report.results["family"].step_errors[2] == np.inf
    assert report.reason.startswith("family member j=2 (eps=0.025) failed its step-error "
                                    "audit: step error inf > ")
    # the physical run's blow-up says where and when it left the finite box
    assert report.reason.endswith(": physical run j=2 (eps=0.025) blew up: "
                                  "state left the finite box")
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["family"]["step_errors"][2] is None


def test_coordinates_report_has_one_shape_near_the_chart_edge(tmp_path, circle_run_dir):
    # at horizon 1.2 the circle's traces reach |y| = 0.93, near |y| = 1 where
    # the circle stops being a graph over its tangent line: the coordinates
    # report still holds measured values only, under the shipped run's keys
    out = tmp_path / "out"
    assert cli.main(["certify", "--scenario", CIRCLE, "--horizon", "1.2", "--out", str(out),
                     "--no-svg"]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")

    with open(out / "report.json") as fh:
        rep = json.load(fh, parse_constant=refuse)
    coords = rep["coordinates"]
    assert None not in coords.values() and "metric_error" not in coords
    with open(os.path.join(circle_run_dir.path, "report.json")) as fh:
        assert sorted(coords) == sorted(json.load(fh)["coordinates"])
    assert rep["certificate"]["verdict"] == "UNSTABLE"
    assert revalidate_from_dir(str(out))["ok"]


def test_folded_chart_coordinates_stop_the_coordinates_stage(tmp_path, capsys):
    # past tau = pi/2 the circle folds over its tangent line at p: the foot's
    # chart coordinate y1 turns back (to 0.1485 at tau = 3), and the chart
    # maps it to the point on the near side, about 2 from the foot
    out = tmp_path / "out"
    assert cli.main(["certify", "--scenario", CIRCLE, "--horizon", "3.0", "--out", str(out),
                     "--no-svg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ChartDomainError: tube violation at member j=0, tau=-3: "
                          "chart coordinates fold") and len(err.splitlines()) == 1
    rep = json.loads((out / "report.json").read_text())
    assert [e["stage"] for e in rep["errors"]] == ["coordinates"]
    assert not list(out.glob("coords_eps*.csv"))


def test_small_chart_certify_passes_coordinates_and_ends_at_the_cauchy_diagnostic(
        tmp_path, capsys):
    # chart radius 0.13125: the traces stay inside it, so the coordinates
    # stage passes, and the slow ellipsoid then fails its Cauchy diagnostic
    path = _write(tmp_path, "slow.json",
                  dict(BASE, v=[0.0, 0.25, 0.0], eps0=0.05, count=3, n_out=101))
    out = tmp_path / "out"
    assert cli.main(["certify", "--scenario", path, "--out", str(out), "--no-svg"]) == 2
    assert _stages_printed(capsys.readouterr().out) == ["family", "coordinates", "limit",
                                                        "emit"]
    rep = json.loads((out / "report.json").read_text())
    assert "errors" not in rep and rep["certificate"]["verdict"] == "INDETERMINATE"
    assert rep["certificate"]["reason"] == str(UnverifiedLimitError())


def _stages_printed(out):
    return [line.split()[1] for line in out.splitlines() if line.startswith("stage ")]


def test_confinement_failure_stops_family_and_certify(tiny_scenario_file, tmp_path,
                                                      monkeypatch, capsys):
    run_family = cli.run_family

    def leaky(scn):
        fam = run_family(scn)
        fam.bounds[1].ball_ok = False
        return fam

    monkeypatch.setattr(cli, "run_family", leaky)
    for command in ("family", "certify"):
        out = tmp_path / command
        assert cli.main([command, "--scenario", tiny_scenario_file, "--out", str(out),
                         "--no-svg"]) == 2
        assert _stages_printed(capsys.readouterr().out) == ["family", "emit"]
        rep = json.loads((out / "report.json").read_text())
        assert rep["certificate"]["verdict"] == "INDETERMINATE"
        assert "j=1" in rep["certificate"]["reason"]
        assert rep["family"]["bounds"][1]["ball_ok"] is False
        assert (out / "traj_eps2.csv").exists()


def test_limit_runs_no_coordinates_stage(tmp_path, capsys):
    # the small-chart ellipsoid fails its Cauchy diagnostic
    path = _write(tmp_path, "slow.json",
                  dict(BASE, v=[0.0, 0.25, 0.0], eps0=0.05, count=3, n_out=101))
    out = tmp_path / "out"
    assert cli.main(["limit", "--scenario", path, "--out", str(out), "--no-svg"]) == 2
    printed = capsys.readouterr().out
    assert _stages_printed(printed) == ["family", "limit", "emit"]
    assert "cauchy_ok = False" in printed and "|xdot(0) - v|" in printed
    rep = json.loads((out / "report.json").read_text())
    assert rep["convergence"]["cauchy_ok"] is False and "coordinates" not in rep
    assert rep["certificate"]["reason"] == str(UnverifiedLimitError())
    assert (out / "limit.csv").exists()


def test_simulate_is_a_one_member_family(tiny_scenario_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert cli.main(["family", "--count", "1", "--eps0", "0.03", "--scenario",
                     tiny_scenario_file, "--out", str(out), "--no-svg"]) == 0
    assert _stages_printed(capsys.readouterr().out) == ["family", "emit"]
    scn = fv.parse_scenario(tiny_scenario_file)
    rep = json.loads((out / "report.json").read_text())
    # the single run at the step its gates chose, the dt report.json records
    opts = dataclasses.replace(scn.options, step_factor=rep["family"]["dt"][0] / 0.03)
    traj = fv.integrate_rescaled(scn.potential, scn.p, scn.v, 0.03, scn.horizon, opts)
    assert traj.dt == rep["family"]["dt"][0]
    direct = tmp_path / "direct.csv"
    write_trajectory_csv(str(direct), traj, grid_cells(traj.tau))
    assert (out / "traj_eps0.csv").read_bytes() == direct.read_bytes()
    assert rep["scenario"]["count"] == 1
    # the min_eps cap applies to a one-member family too
    assert cli.main(["family", "--count", "1", "--eps0", "1e-5", "--scenario",
                     tiny_scenario_file, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ScenarioError")


def test_output_directory_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tiny = dict(BASE, potential={"kind": "circle"}, p=[1.0, 0.0], v=[0.0, 1.0],
                count=1, n_out=11)
    named = _write(tmp_path, "named.json", dict(tiny, out="from_file"))
    assert cli.main(["family", "--scenario", named, "--out", "from_flag", "--no-svg"]) == 0
    assert cli.main(["family", "--scenario", named, "--no-svg"]) == 0
    plain = _write(tmp_path, "plain.json", tiny)
    assert cli.main(["family", "--scenario", plain, "--no-svg"]) == 0
    for out in ("from_flag", "from_file", "out_plain"):
        assert (tmp_path / out / "traj_eps0.csv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv, reason", [
    (["family", "--horizon", "1e308"], "MAX_STEPS"),
    (["gallery", "--horizon", "1e308"], "MAX_STEPS"),
    (["gallery", "--horizon", "nan", "--trajectories", "1"], "must be finite, got nan"),
    (["gallery", "--horizon", "inf", "--trajectories", "1"], "must be finite, got inf"),
], ids=["family", "gallery", "gallery-nan", "gallery-inf"])
def test_huge_horizon_is_one_error_line(tiny_scenario_file, tmp_path, capsys, argv, reason):
    if argv[0] == "family":
        argv = argv + ["--scenario", tiny_scenario_file, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidParameterError") and reason in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("exponent, error, reason", [
    (1e300, "InvalidParameterError", "from 2 to 64"),
    (float("inf"), "ScenarioError", "holds Infinity"),
], ids=["1e300", "inf"])
def test_huge_profile_exponent_is_one_error_line(tmp_path, capsys, exponent, error, reason):
    # json.dumps writes inf as Infinity, which the scenario reader refuses as
    # no JSON number
    path = _write(tmp_path, "steep.json",
                  dict(BASE, potential={"kind": "ellipsoid", "exponent": exponent}))
    assert cli.main(["family", "--scenario", path, "--out", str(tmp_path / "out"),
                     "--no-svg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and reason in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_one_error_line(tiny_scenario_file, tmp_path, capsys, jobs):
    for command in ("family", "check", "residual"):
        argv = [command, "--scenario", tiny_scenario_file, "--jobs", jobs]
        if command == "family":
            argv += ["--out", str(tmp_path / "out"), "--no-svg"]
        assert cli.main(argv) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError") and f"got {jobs}" in err
        assert len(err.splitlines()) == 1


def _a_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("")
    return path


def _report_json_is_a_directory(tmp_path):
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    return tmp_path / "out"


@pytest.mark.parametrize("command, out, reason", [
    ("certify", _a_file, "File exists"),
    ("certify", lambda tmp_path: _a_file(tmp_path) / "sub", "Not a directory"),
    ("certify", _report_json_is_a_directory,
     "'report.json' in it is a directory, where the run writes a file"),
    ("family", _report_json_is_a_directory, "'report.json' in it is a directory"),
    ("gallery", _a_file, "File exists"),
], ids=["certify-file", "certify-under-a-file", "certify-report-json-dir",
        "family-report-json-dir", "gallery-file"])
def test_unusable_out_is_one_error_line(tiny_scenario_file, tmp_path, capsys, monkeypatch,
                                        command, out, reason):
    # refused before the first stage or trapped-motion run
    monkeypatch.setattr(cli, "run_family", lambda scn: pytest.fail("the family stage ran"))
    monkeypatch.setattr(cli, "locate_barrier", lambda *a, **k: pytest.fail("gallery ran"))
    out = out(tmp_path)
    argv = [command, "--out", str(out)]
    if command != "gallery":
        argv += ["--scenario", tiny_scenario_file]
    assert cli.main(argv) == 1
    printed, err = capsys.readouterr()
    assert err.startswith(f"error: InvalidParameterError: output directory {str(out)!r} is "
                          "unusable: ") and reason in err
    assert len(err.splitlines()) == 1 and printed == ""


@pytest.mark.parametrize("command", ["check", "residual"])
@pytest.mark.parametrize("flag", ["--out", "--svg", "--no-svg"])
def test_commands_that_write_nothing_refuse_the_output_flags(tiny_scenario_file, tmp_path,
                                                              capsys, command, flag):
    # check and residual only print, so an output flag is a usage error
    argv = [command, "--scenario", tiny_scenario_file, flag]
    if flag == "--out":
        argv.append(str(tmp_path / "out"))
    assert cli.main(argv) == 1
    printed, err = capsys.readouterr()
    assert err.startswith(f"error: InvalidParameterError: unrecognized arguments: {flag}")
    assert len(err.splitlines()) == 1 and printed == ""
    assert os.listdir(tmp_path) == ["tiny.json"]


def test_file_revalidation_rederives_energy_drift(circle_run_dir, tmp_path):
    import shutil

    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["family"]["energy_drifts"] = [0.0] * len(rep["family"]["energy_drifts"])
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert not result["ok"] and not result["checks"]["energy_drift"]
    assert revalidate_from_dir(circle_run_dir.path)["checks"]["energy_drift"]


@pytest.mark.parametrize("run", ["circle", "gutter", "ellipsoid"])
def test_file_revalidation_bounds_the_claimed_displacement_from_above(
        circle_run_dir, gutter_run_dir, ellipsoid_run_dir, tmp_path, run):
    # the nodes bound max |x - p| from below; worst_ball_ratio T |v| bounds
    # it from above
    run_dir = {"circle": circle_run_dir, "gutter": gutter_run_dir,
               "ellipsoid": ellipsoid_run_dir}[run]
    clone = tmp_path / "tampered"
    shutil.copytree(run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["family"]["bounds"][0]["max_displacement"] = 1e308
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert [check for check, ok in result["checks"].items() if not ok] == ["bounds"]


def test_file_revalidation_of_a_huge_coefficient_is_a_reason(ellipsoid_run_dir, tmp_path):
    # twice 1e308 overflows, so the scenario block builds no potential (a
    # numpy RuntimeWarning fails the suite)
    clone = tmp_path / "tampered"
    shutil.copytree(ellipsoid_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["scenario"]["potential"]["coeffs"][0] = 1e308
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False and "coeffs" in result["reason"]


@pytest.mark.parametrize("coeffs, message", [
    ("[1e308, 2, 3]", "coeffs must be finite and at most"),
    ("[1, 2, 1e308]", "coeffs must be finite and at most"),
    ("[Infinity, 2, 3]", "holds Infinity, which JSON does not allow"),
    ("[NaN, 2, 3]", "holds NaN, which JSON does not allow"),
], ids=["first-huge", "last-huge", "infinity", "nan"])
def test_a_non_finite_or_huge_coefficient_is_one_error_line(tmp_path, capsys, coeffs,
                                                             message):
    path = tmp_path / "huge.json"
    path.write_text('{"potential": {"kind": "ellipsoid", "coeffs": %s}, '
                    '"p": [1.0, 0.0, 0.0], "v": [0.0, 1.0, 0.0]}' % coeffs)
    assert cli.main(["check", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert message in captured.err and captured.out == ""


def test_certify_builds_the_certificate_once(tiny_scenario_file, tmp_path, monkeypatch):
    calls = []
    build = fv.analysis.instability_certificate
    monkeypatch.setattr(fv.analysis, "instability_certificate",
                        lambda *args: calls.append(1) or build(*args))
    assert cli.main(["certify", "--scenario", tiny_scenario_file, "--out",
                     str(tmp_path / "out"), "--no-svg"]) == 0
    assert len(calls) == 1


def test_csv_columns_read_from_one_handle(circle_run_dir, gutter_run_dir, ellipsoid_run_dir):
    # the header and the table come from one open file, as the cells print
    for run_dir in (circle_run_dir, gutter_run_dir, ellipsoid_run_dir):
        for name in sorted(f for f in os.listdir(run_dir.path) if f.endswith(".csv")):
            path = os.path.join(run_dir.path, name)
            with open(path) as fh:
                header, *rows = fh.read().splitlines()
            cols = read_csv_columns(path)
            assert list(cols) == header.split(",")
            for i, column in enumerate(cols.values()):
                assert column.tolist() == [float(row.split(",")[i]) for row in rows]


def _set_claim(key, value):
    def edit(rep):
        rep["certificate"][key] = value
        return rep
    return edit


def _drop(block, key):
    def edit(rep):
        del rep[block][key]
        return rep
    return edit


@pytest.mark.parametrize("edit, failing", [
    (_set_claim("j0", "1"), ["j0"]),
    (_drop("scenario", "p"), None),
    (_set_claim("threshold", None), ["threshold"]),
    # a dropped key would read as its default: the block is then no scenario
    # payload of what it validates to
    (_drop("scenario", "eps0"), ["scenario"]),
    # json reads Infinity: eps_1 = inf divides a step by zero
    (lambda rep: rep["scenario"].update(ratio=float("inf")) or rep, None),
    (lambda rep: [rep], None),
    (None, None),
    ("evidence.csv", None),
], ids=["j0-string", "p-missing", "threshold-null", "epsilons-missing", "ratio-infinite",
        "top-level-list", "csv-missing", "evidence-missing"])
def test_file_revalidation_rejects_malformed_runs(circle_run_dir, tmp_path, edit, failing):
    # a mistyped certificate claim differs from the rebuilt field, so it fails
    # the check named after it; what no check can read gives a reason
    import shutil

    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    if edit is None or isinstance(edit, str):
        os.remove(clone / (edit or "traj_eps2.csv"))
    else:
        rep = json.loads((clone / "report.json").read_text())
        (clone / "report.json").write_text(json.dumps(edit(rep)))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    if failing is None:
        assert result["reason"]
    else:
        assert [check for check, ok in result["checks"].items() if not ok] == failing


@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_file_revalidation_refuses_non_finite_json_tokens(circle_run_dir, tmp_path, token):
    # json reads Infinity and NaN, which strict JSON has no tokens for: an
    # infinite max_displacement, which no node bounds from above, would
    # revalidate if it were read as a number
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["family"]["bounds"][0]["max_displacement"] = float(token)
    (clone / "report.json").write_text(json.dumps(rep))
    assert token in (clone / "report.json").read_text()
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False and token in result["reason"]


def test_file_revalidation_of_a_huge_probe_step_error_is_a_verdict(circle_run_dir, tmp_path):
    # member 1's step error over its target overflows to inf, which plans
    # the member at its ceiling of 8, not at the 6 substeps the file records;
    # the overflow itself is no warning
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["family"]["probe"]["step_errors"][1] = 1e308
    (clone / "report.json").write_text(json.dumps(rep))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == ["step_plan"]


def _tamper_cell(clone, name, row, column, change):
    """Replace the cell of ``name``'s data row ``row`` (of every row when
    None) in ``column`` by ``change`` of its value, written as a float
    literal."""
    lines = (clone / name).read_text().splitlines()
    i = lines[0].split(",").index(column)
    for r in range(len(lines) - 1) if row is None else [row]:
        cells = lines[1 + r].split(",")
        cells[i] = repr(change(float(cells[i])))
        lines[1 + r] = ",".join(cells)
    (clone / name).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, column, failing", [
    ("limit.csv", "x0", ["limit", "finite"]),
    ("traj_eps0.csv", "v0", ["energy_drift", "finite"]),
    ("evidence.csv", "t", ["evidence", "finite"]),
], ids=["limit.csv-x0", "traj_eps0.csv-v0", "evidence.csv-t"])
def test_file_revalidation_rejects_non_finite_cells(circle_run_dir, tmp_path, name, column,
                                                    failing):
    # the first row of limit.csv and traj_eps0.csv lies at tau = -T < 0: only
    # the limit check reads that limit.csv cell, and the member's NaN speed
    # makes its audited H, and so its drift, NaN; evidence.csv's t is run 0's
    # tau*/eps_0
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    _tamper_cell(clone, name, 0, column, lambda value: float("nan"))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == failing


@pytest.mark.parametrize("name", ["circle", "gutter", "ellipsoid"])
def test_file_revalidation_rederives_the_coordinates_block(tmp_path, name):
    scn = fv.parse_scenario(os.path.join(os.path.dirname(CIRCLE), f"{name}.json"))
    out = str(tmp_path / "run")
    assert fv.run_pipeline(scn, out, svg=False).exit_code == 0
    result = revalidate_from_dir(out)
    assert result["ok"] and result["checks"]["coordinates"], result


def _tamper_sup_r(clone):
    # member 2's sup |r| = max |f| claim grows a hundredfold, past member 1's
    rep = json.loads((clone / "report.json").read_text())
    rep["convergence"]["violation_max"][2] *= 100
    (clone / "report.json").write_text(json.dumps(rep))


def _tamper_coords_cell(clone):
    # member 1's y at row 100, doubled: no longer the y read from its x
    _tamper_cell(clone, "coords_eps1.csv", 100, "y1", lambda y: 2.0 * y)


@pytest.mark.parametrize("tamper, failing", [(_tamper_sup_r, ["convergence"]),
                                             (_tamper_coords_cell, ["coordinates"])],
                         ids=["sup_r", "coords-cell"])
def test_file_revalidation_rejects_a_tampered_coordinates_claim(circle_run_dir, tmp_path,
                                                                tamper, failing):
    # report.json states sup |r| once, as the convergence block's violation_max
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    tamper(clone)
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == failing


@pytest.mark.parametrize("tamper", ["v1", "max_speed-low", "max_speed-high", "speed_ok"])
def test_file_revalidation_rederives_the_confinement_claims(circle_run_dir, tmp_path, tamper):
    # the circle's members claim speeds within |v| (1 + slack) = 1 + 1e-6; a
    # failed verdict of member 0, which only the probe ran, also contradicts
    # its probe's confinement verdict; a node's speed is also in its H
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    if tamper == "v1":  # a node faster than the claimed maximum
        _tamper_cell(clone, "traj_eps0.csv", 9, "v1", lambda v: 10.0)
    else:
        report = json.loads((clone / "report.json").read_text())
        claim = report["family"]["bounds"][0]
        if tamper == "max_speed-low":  # below the node maximum
            claim["max_speed"] *= 0.5
        elif tamper == "max_speed-high":  # past its bound, yet claimed speed_ok
            claim["max_speed"] = 2.0
        else:  # a failed verdict claimed beside a certificate
            claim["speed_ok"] = False
        (clone / "report.json").write_text(json.dumps(report))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    failing = {"speed_ok": ["step_plan", "bounds"],
               "v1": ["bounds", "energy_drift"]}.get(tamper, ["bounds"])
    assert [check for check, ok in result["checks"].items() if not ok] == failing


@pytest.mark.parametrize("name, row, column, change, failing", [
    ("evidence.csv", 3, "eps", lambda eps: 1.5 * eps, ["evidence"]),
    ("evidence.csv", 3, "t", lambda t: 1.5 * t, ["evidence"]),
    ("evidence.csv", 3, "t", lambda t: t * (1.0 + 1e-15), ["evidence"]),
    ("traj_eps1.csv", 29, "x0", lambda x: x * (1.0 + 1e-9), ["energy_drift", "coordinates"]),
    ("traj_eps3.csv", 300, "x0", lambda x: x * (1.0 + 1e-9), ["coordinates"]),
    ("traj_eps2.csv", 200, "x0", lambda x: x + 1e-12, ["launch"]),
    ("limit.csv", 50, "x1", lambda x: x * (1.0 + 1e-9), ["limit"]),
    ("traj_eps1.csv", 300, "v1", lambda v: v * (1.0 + 1e-9), ["energy_drift"]),
], ids=["evidence-eps", "evidence-t", "evidence-t-ulp", "member-r", "member-y",
        "member-launch", "limit-cell", "member-v"])
def test_file_revalidation_ties_every_file_to_the_scenario(circle_run_dir, tmp_path, name,
                                                           row, column, change, failing):
    # evidence.csv's eps is the schedule and t is tau*/eps as the run computed
    # it, to the last bit; each member's r = f is read from its own x, so a
    # node beside member 1's largest |r'| (row 28) moves its max_rdot, and
    # its potential moves its energy, while member 3's node 300, near a floor
    # crossing where the force is near 0, moves only the y read from it
    # (coords_eps3.csv); every member leaves (p, v) at tau = 0
    # (row 200); limit.csv is the feet of the finest member (row 50 is far
    # from the escape node, the last); a node's speed is in its audited H
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    _tamper_cell(clone, name, row, column, change)
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == failing


def _edit_columns(clone, name, edit):
    """Rewrite ``name`` by ``edit`` of its columns, each a list of its
    header and then its cells."""
    rows = [line.split(",") for line in (clone / name).read_text().splitlines()]
    columns = edit([list(column) for column in zip(*rows)])
    (clone / name).write_text("".join(",".join(row) + "\n" for row in zip(*columns)))


def _parent_format(clone):
    # the files as written before each value was written once: each member
    # with an H column after its states, each coords file with its member's
    # tau and its r before its y (the header alone fails, whatever the cells)
    for j in range(6):
        tau = [row.split(",")[0] for row in (clone / f"traj_eps{j}.csv").read_text().splitlines()]
        _edit_columns(clone, f"traj_eps{j}.csv", lambda cols: cols + [["H"] + cols[0][1:]])
        _edit_columns(clone, f"coords_eps{j}.csv",
                      lambda cols, tau=tau: [tau, ["r"] + tau[1:]] + cols)


@pytest.mark.parametrize("tamper", [
    _parent_format,
    lambda clone: _edit_columns(clone, "traj_eps2.csv", lambda cols: cols + [["H"] + cols[0][1:]]),
    lambda clone: _edit_columns(clone, "coords_eps2.csv",
                                lambda cols: [["tau"] + cols[0][1:]] + cols),
    lambda clone: _edit_columns(clone, "coords_eps2.csv",
                                lambda cols: cols + [["claim"] + ["12345"] * (len(cols[0]) - 1)]),
    lambda clone: _edit_columns(clone, "traj_eps0.csv", lambda cols: cols[:-1]),
    lambda clone: _edit_columns(clone, "traj_eps0.csv",
                                lambda cols: [cols[0], cols[2], cols[1], *cols[3:]]),
], ids=["parent-format", "member-H", "coords-tau", "appended", "dropped", "swapped"])
def test_file_revalidation_requires_each_writers_header(circle_run_dir, tmp_path, tamper):
    # each CSV's header must be the one its writer writes: a column it does
    # not write, one it does missing, or two swapped, header and cells
    # alike, fail the columns check, and the file is read no further
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    tamper(clone)
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False and result["checks"] == {"columns": False}
    assert result["reason"].startswith("not the header its writer writes: ")


def test_a_column_without_a_header_name_is_malformed(circle_run_dir, tmp_path):
    # a cell past the header's names, on every row, is no column of the file
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    header, *rows = (clone / "coords_eps2.csv").read_text().splitlines()
    (clone / "coords_eps2.csv").write_text("".join(f"{row}\n" for row in
                                                   [header] + [f"{r},12345" for r in rows]))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False and "checks" not in result
    assert "coords_eps2.csv has 2 columns under a header of 1" in result["reason"]


def test_file_revalidation_puts_each_coords_row_on_its_member_row(circle_run_dir, tmp_path):
    # a coords file holds no tau: its rows are its member's, one per node,
    # and its y is no longer the y re-derived from its member's x
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    lines = (clone / "coords_eps1.csv").read_text().splitlines()
    (clone / "coords_eps1.csv").write_text("\n".join(lines[:-1]) + "\n")
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == ["launch",
                                                                          "coordinates"]


def _leaves(node, path=()):
    """(path, value) of every number and boolean under ``node``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    elif isinstance(node, (bool, int, float)):
        yield path, node


def _tampered(value):
    """A boolean flipped, an integer plus 1, a float times 1 + 1e-6 (a zero
    set to 1e-6, which scaling would not move)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value * (1.0 + 1e-6) if value else 1e-6


#: the report leaves that revalidate after their tamper, each pattern with
#: why no file can tell
TAMPER_SURVIVORS = {
    r"family\.bounds\.\d\.(max_speed|max_potential|max_displacement|worst_ball_ratio)":
        "a maximum over every internal step, which the output nodes bound from below "
        "(max_displacement also from above, by worst_ball_ratio T |v|, 4-13% higher here)",
    r"scenario\.step_factor": "the step plan reads it through ceil, which 1e-6 does not move",
    r"scenario\.min_eps": "a cap on the schedule, not a fact of the run: any cap at or below "
                          "the smallest eps admits the same files",
}
#: the ellipsoid's further survivors
ELLIPSOID_SURVIVORS = {
    r"scenario\.potential\.coeffs\.2":
        "its runs keep x2 = 0, where the third coefficient multiplies nothing",
}


def _survivors(run_dir, clone):
    """The number of leaves of ``run_dir``'s report.json, and those that
    still revalidate when tampered alone in a copy at ``clone``."""
    shutil.copytree(run_dir, clone)
    text = (clone / "report.json").read_text()
    survivors, count = [], 0
    for path, value in _leaves(json.loads(text)):
        report = json.loads(text)
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _tampered(value)
        (clone / "report.json").write_text(json.dumps(report))
        count += 1
        if revalidate_from_dir(str(clone))["ok"]:
            survivors.append(".".join(map(str, path)))
    return count, survivors


def test_every_report_leaf_is_rederived_from_the_files(circle_run_dir, ellipsoid_run_dir,
                                                       tmp_path, monkeypatch):
    # each leaf tampered alone must fail file revalidation, or be allowed;
    # only report.json changes, so each CSV is parsed once
    monkeypatch.setattr(reporting, "read_csv_columns",
                        functools.lru_cache(maxsize=None)(reporting.read_csv_columns))
    for name, run_dir, leaves, allowances in [
            ("circle", circle_run_dir, 183, TAMPER_SURVIVORS),
            ("ellipsoid", ellipsoid_run_dir, 188, {**TAMPER_SURVIVORS, **ELLIPSOID_SURVIVORS})]:
        count, survivors = _survivors(run_dir.path, tmp_path / name)
        allowed = {pattern: [leaf for leaf in survivors if re.fullmatch(pattern, leaf)]
                   for pattern in allowances}
        assert count == leaves, name
        assert sorted(sum(allowed.values(), [])) == sorted(survivors), name
        # and no allowance is stale
        assert all(allowed.values()), (name, allowed)


def test_every_csv_cell_is_rederived_from_the_files(circle_run_dir, tmp_path):
    # one interior cell of every column of every circle CSV, scaled by
    # 1 + 1e-9 alone, must fail file revalidation: y is re-derived from its
    # member's x bit for bit, so x is tied at every node
    clone = tmp_path / "circle"
    shutil.copytree(circle_run_dir.path, clone)
    survivors, columns = [], 0
    for name in sorted(f for f in os.listdir(clone) if f.endswith(".csv")):
        text = (clone / name).read_text()
        header, rows = text.splitlines()[0].split(","), text.count("\n") - 1
        row = (3 * rows) // 4  # off tau = 0, where 0 scales to itself
        for column in header:
            _tamper_cell(clone, name, row, column, lambda value: value * (1.0 + 1e-9))
            assert (clone / name).read_text() != text, (name, column)
            columns += 1
            if revalidate_from_dir(str(clone))["ok"]:
                survivors.append(f"{name}:{column}")
            (clone / name).write_text(text)
    assert columns == 6 * 5 + 6 * 1 + 3 + 5
    assert survivors == []


def test_file_revalidation_ties_each_probe_only_verdict_to_its_bounds(circle_run_dir,
                                                                       tmp_path):
    # member 0 probes at its ceiling, so only the probe ran it and its plan is
    # the ceiling whatever its verdict: that verdict must be its bounds' own
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    assert rep["family"]["substeps"][0] == rep["family"]["ceilings"][0]
    rep["family"]["probe"]["confined"][0] = False
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert result["ok"] is False
    assert [check for check, ok in result["checks"].items() if not ok] == ["step_plan"]


@pytest.mark.parametrize("command", ["limit", "certify"])
def test_too_few_output_nodes_for_the_limit_is_one_error_line(tmp_path, capsys, command):
    # n_out = 3 is a valid family grid, but the xdot(0) stencil reads 5 nodes
    with open(CIRCLE) as fh:
        path = _write(tmp_path, "coarse.json", dict(json.load(fh), n_out=3))
    assert cli.main([command, "--scenario", path, "--out", str(tmp_path / "out"),
                     "--no-svg"]) == 1
    printed, err = capsys.readouterr()
    assert err.startswith("error: InvalidParameterError") and "at least 5 output nodes" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    # refused before any stage ran
    assert _stages_printed(printed) == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["limit", "certify"])
def test_too_few_members_for_the_limit_are_refused_before_any_stage(
        tmp_path, capsys, monkeypatch, command):
    # the limit stage's own check, run before the family stage: no member
    # is integrated and no file is written
    monkeypatch.setattr(cli, "run_family", lambda scn: pytest.fail("the family stage ran"))
    with open(CIRCLE) as fh:
        path = _write(tmp_path, "short.json", dict(json.load(fh), count=2))
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", path, "--out", str(out), "--no-svg"]) == 1
    printed, err = capsys.readouterr()
    assert err == "error: InvalidParameterError: limit extraction needs at least 3 family members\n"
    assert _stages_printed(printed) == [] and not out.exists()


@pytest.mark.parametrize("argv", [
    ["residual", "--member", "10"],
    ["residual", "--member", "-1"],
    ["residual", "--samples", "0"],
    ["gallery", "--trajectories", "0"],
    # past MAX_TRAJECTORIES and MAX_SAMPLES: refused before any array of
    # that size (7.28 TiB) is asked for
    ["gallery", "--trajectories", "1000000000000"],
    ["residual", "--samples", "1000000000000"],
    ["gallery", "--energy-fraction", "0"],
    ["gallery", "--energy-fraction", "1"],
    ["gallery", "--energy-fraction", "nan"],
    ["gallery", "--horizon", "0"],
    ["gallery", "--horizon", "-1"],
    ["gallery", "--horizon", "inf"],
    ["gallery", "--horizon", "nan"],
], ids=["member-past-count", "member-negative", "samples-zero", "trajectories-zero",
        "trajectories-huge", "samples-huge", "energy-fraction-zero", "energy-fraction-one",
        "energy-fraction-nan", "horizon-zero", "horizon-negative", "horizon-inf",
        "horizon-nan"])
def test_out_of_range_counts_are_one_error_line(tiny_scenario_file, capsys, monkeypatch,
                                                argv):
    # each refusal names its flag; gallery refuses before the barrier scan
    # (the bump at 40,001 points) runs
    monkeypatch.setattr(cli, "locate_barrier", lambda potential: pytest.fail("the scan ran"))
    if argv[0] == "residual":
        argv = argv + ["--scenario", tiny_scenario_file]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: InvalidParameterError: {argv[1]} ")
    assert len(captured.err.splitlines()) == 1
    assert "trapped" not in captured.out


def test_scenario_file_defaults_are_the_scenario_defaults(tmp_path):
    path = _write(tmp_path, "least.json", {"potential": {"kind": "circle"},
                                           "p": [1.0, 0.0], "v": [0.0, 1.0]})
    scn = fv.parse_scenario(path)
    ref = fv.Scenario(fv.circle(), [1.0, 0.0], [0.0, 1.0])
    for name in ("horizon", "eps0", "ratio", "count", "options", "min_eps", "out"):
        assert getattr(scn, name) == getattr(ref, name), name
    assert np.array_equal(scn.p, ref.p) and np.array_equal(scn.v, ref.v)


def test_launch_point_within_floor_tolerance_certifies(tmp_path):
    # |f(p)| = 5e-10 is on the floor for the scenario (TOL_ON_M = 1e-9), so
    # the chart, which reads the same tolerance, must accept it too
    scn = fv.Scenario(fv.circle(), [np.sqrt(1.0 + 5e-10), 0.0], [0.0, 1.0], 1.0, count=3,
                      options=fv.IntegratorOptions(n_out=101))
    report = fv.run_pipeline(scn, str(tmp_path), svg=False)
    assert report.exit_code == 0 and report.verdict == "UNSTABLE", report.reason


def test_evidence_csv_holds_the_physical_end_states(circle_run_dir):
    cols = read_csv_columns(os.path.join(circle_run_dir.path, "evidence.csv"))
    assert list(cols) == ["j", "eps", "t", "x0", "x1"]
    with open(os.path.join(circle_run_dir.path, "report.json")) as fh:
        rep = json.load(fh)
    cert, p = rep["certificate"], rep["scenario"]["p"]
    assert cols["j"].tolist() == list(range(6))
    assert cols["eps"].tolist() == circle_run_dir.report.results["family"].epsilons.tolist()
    assert np.allclose(cols["t"] * cols["eps"], cert["tau_star"], rtol=1e-12, atol=0)
    for row in cert["evidence"]:
        j = row["j"]
        moved = float(np.hypot(cols["x0"][j] - p[0], cols["x1"][j] - p[1]))
        assert moved == pytest.approx(row["displacement"], rel=1e-15)


def _tamper_evidence_coordinate(clone, rep):
    _tamper_cell(clone, "evidence.csv", 5, "x0", lambda x: x * (1.0 + 1e-9))


def _tamper_displacement(clone, rep):
    rep["certificate"]["evidence"][-1]["displacement"] *= 1.0 + 1e-9
    (clone / "report.json").write_text(json.dumps(rep))


@pytest.mark.parametrize("tamper", [_tamper_evidence_coordinate, _tamper_displacement],
                         ids=["evidence-coordinate", "displacement"])
def test_file_revalidation_rederives_evidence(circle_run_dir, tmp_path, tamper):
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    tamper(clone, json.loads((clone / "report.json").read_text()))
    result = revalidate_from_dir(str(clone))
    assert not result["ok"] and not result["checks"]["evidence"]
    assert [name for name, ok in result["checks"].items() if not ok] == ["evidence"]


def _scale_r(member, factor):
    """Wrap a coordinate report so it sees member's r scaled by factor."""
    def wrap(report):
        return lambda traces, *args: report(
            [dataclasses.replace(t, r=t.r * factor) if j == member else t
             for j, t in enumerate(traces)], *args)
    return wrap


def _scale_yddot(factors):
    """Wrap a coordinate report so it sees member j's y'' scaled by factors[j]."""
    def wrap(report):
        return lambda traces, *args: report(
            [dataclasses.replace(t, yddot=t.yddot * factors.get(j, 1.0))
             for j, t in enumerate(traces)], *args)
    return wrap


COORDINATE_GATES = ("r_bounds_ok", "shrinking", "acceleration_uniform_ok")
#: the opening words of each gate's INDETERMINATE reason
GATE_REASONS = {"r_bounds_ok": "leaves the conservation tube", "shrinking": "does not shrink",
                "acceleration_uniform_ok": "breaks acceleration uniformity"}


@pytest.mark.parametrize("flags, member, patches", [
    (["r_bounds_ok"], 0, [_scale_r(0, 1e3)]),       # far outside the conservation tube
    (["shrinking"], 2, [_scale_r(1, 0.1)]),         # member 2 now wider than member 1
    (["acceleration_uniform_ok"], 1, [_scale_yddot({1: 10.0, 2: 20.0})]),  # first, not worst
    # two bounds fail: the tube is checked first, whatever member breaks the other
    (["r_bounds_ok", "acceleration_uniform_ok"], 0, [_scale_r(0, 1e3), _scale_yddot({1: 10.0})]),
], ids=[*COORDINATE_GATES, "tube-before-acceleration"])
def test_coordinate_proof_bound_failure_is_indeterminate(tiny_scenario_file, tmp_path,
                                                         monkeypatch, capsys, flags, member,
                                                         patches):
    report = cli.coordinate_report
    for wrap in patches:
        report = wrap(report)
    monkeypatch.setattr(cli, "coordinate_report", report)
    out = tmp_path / "out"
    assert cli.main(["certify", "--scenario", tiny_scenario_file, "--out", str(out),
                     "--no-svg"]) == 2
    assert _stages_printed(capsys.readouterr().out) == ["family", "coordinates", "emit"]
    rep = json.loads((out / "report.json").read_text())
    assert [name for name in COORDINATE_GATES if not rep["coordinates"][name]] == flags
    assert rep["certificate"]["verdict"] == "INDETERMINATE"
    eps = 0.1 * 0.5 ** member
    assert rep["certificate"]["reason"].startswith(
        f"member j={member} (eps={eps:g}) {GATE_REASONS[flags[0]]}: ")
    assert "coords_eps2.csv" in rep["manifest"] and "limit.csv" not in rep["manifest"]




@pytest.mark.parametrize("fractions", [{2: 0.5, 1: 0.3}, {1: 0.95}],
                         ids=["before-tau-star", "after-tau-star"])
def test_physical_row_blow_up_stops_the_family_stage(tmp_path, capsys, blow_up_physical_rows,
                                                      fractions):
    # a circle run past its farthest point, tau* = 3.12 < T = 4: a physical
    # run that fails before tau*/eps_j or after it has no step error either
    # way, so the family stage stops on the lowest such member
    path = _write(tmp_path, "long.json", {
        "potential": {"kind": "circle"}, "p": [1.0, 0.0], "v": [0.0, 1.0],
        "horizon": 4.0, "count": 3, "n_out": 101})
    blow_up_physical_rows(fractions)
    out = tmp_path / "certify"
    assert cli.main(["certify", "--scenario", path, "--out", str(out), "--no-svg"]) == 2
    printed = capsys.readouterr().out
    assert _stages_printed(printed) == ["family", "emit"]
    assert "verdict: INDETERMINATE (family member j=1 (eps=0.05) failed its step-error " \
           "audit: step error inf > " in printed
    rep = json.loads((out / "report.json").read_text())
    assert rep["certificate"]["verdict"] == "INDETERMINATE"
    assert [e is None for e in rep["family"]["step_errors"]] == [False, True, 2 in fractions]
    assert "evidence.csv" not in rep["manifest"]


def _set(path, value):
    """A change of report.json's ``family`` that sets the entry at ``path``."""
    def change(fam):
        *keys, last = path
        for key in keys:
            fam = fam[key]
        fam[last] = value(fam[last])
    return change


@pytest.mark.parametrize("changes", [
    [_set(("probe", "step_errors", 1), lambda e: e * (1.0 + 1e-15))],
    [_set(("probe", "energy_drifts", 0), lambda d: 0.5 * d)],
    [_set(("probe", "substeps", 5), lambda m: m + 1)],
    [_set(("probe", "confined", 3), lambda ok: False)],
    [_set(("ceilings", 2), lambda m: m + 1)],
    [_set(("lockstep_iterations",), lambda n: n - 200)],
    # member 2, which kept its probe of 6 substeps, passed as a fallback to
    # its ceiling: no call ran it there
    [_set(("substeps", 2), lambda m: 10), _set(("dt", 2), lambda dt: 1.0 / 200 / 10)],
], ids=["probe-step-error", "probe-drift", "probe-substeps", "probe-confined", "ceiling",
        "iterations", "fallback"])
def test_file_revalidation_rederives_the_step_plan(circle_run_dir, tmp_path, changes):
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    for change in changes:
        change(rep["family"])
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert not result["ok"] and not result["checks"]["step_plan"]


def test_certify_prints_each_members_substeps_and_the_lockstep_work(tmp_path, capsys):
    assert cli.main(["certify", "--scenario", CIRCLE, "--out", str(tmp_path),
                     "--no-svg"]) == 0
    printed = capsys.readouterr().out
    rows = printed.split("pass\n", 1)[1].split("\n")[:6]
    # the chosen and ceiling substeps sit before the pass column
    assert [row.split()[-3:-1] for row in rows] == [
        ["5", "5"], ["6", "8"], ["6", "10"], ["6", "15"], ["6", "20"], ["6", "29"]]
    assert "lockstep iterations = 1200 (probe call included)" in printed


def test_rates_at_the_rounding_floor_are_null(tmp_path):
    # the gutter's members differ only by rounding (one distance is 0 at
    # factor 0.05): no rate is read off them, and the report stays strict JSON
    out = tmp_path / "gutter"
    assert cli.main(["certify", "--scenario", os.path.join(os.path.dirname(CIRCLE), "gutter.json"),
                     "--step-factor", "0.05", "--out", str(out), "--no-svg"]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")

    with open(out / "report.json") as fh:
        rep = json.load(fh, parse_constant=refuse)
    assert 0.0 in rep["convergence"]["distances"]
    assert rep["convergence"]["rate_estimates"] == [None] * 4


# sha256 of traj_eps0.csv from `family` on each shipped scenario, recorded
# before members stepped at their own factors (member 0 kept its step
# then), re-recorded when member 0's substeps came from its gates: 2 on
# the circle and 1 on the ellipsoid and gutter, from 5, 3 and 5, and again
# when every member probed at the probe call's longest row: 5, 3 and 3,
# and for the gutter and the ellipsoid when the backward half stepped at
# -dt from (p, v): its zero velocity cells print 0 instead of -0, and for
# all three when the member files lost their H column (every other cell
# kept its bytes)
MEMBER_0_DIGESTS = {
    "circle": "329704ce3ac2fe25c6301216cd300509aa5d5607e5fbbf3695aeeae3144f22c6",
    "gutter": "ddb58c8a5c4c30ad7063852f4cef807bb893f3e594ccc2d680e31406fec8a21d",
    "ellipsoid": "4df7311fdb19df74b6f0a9a837f37b6c8503c6d72b154e0463369b9910d8c212",
}


@pytest.mark.parametrize("name", sorted(MEMBER_0_DIGESTS))
def test_member_0_file_is_unchanged(tmp_path, name):
    import hashlib

    scn = fv.parse_scenario(os.path.join(os.path.dirname(CIRCLE), f"{name}.json"))
    fv.run_pipeline(scn, str(tmp_path), svg=False, stages=("family",))
    digest = hashlib.sha256((tmp_path / "traj_eps0.csv").read_bytes()).hexdigest()
    assert digest == MEMBER_0_DIGESTS[name]


# sha256 of report.json from run_pipeline(..., svg=False) over all four
# stages on each shipped scenario, re-recorded when each member's physical
# run replaced its twin as the evidence, when the coordinates stage's
# metric probe was removed, when each member's substeps came from its
# gates, for the ellipsoid and gutter when the probe followed the profile
# exponent, when every member probed at the probe call's longest row, and
# for the ellipsoid and gutter (only their recorded ceilings) when the
# ceilings followed the probe's rho^(2/k) law, and for the ellipsoid
# (only its coordinates' acceleration fields) when position reads flowed
# at FLOW_COARSE_STEP, and for the circle and the ellipsoid (rounding-level
# coordinates, limit and certificate fields) when position reads dropped
# their floor of 8 substeps, and for all three when report.json came to state
# each fact once (the eps schedule, p and v only in the scenario; every
# other key and value kept its bytes), and again when coordinates.sup_r left
# it (convergence.violation_max states the same numbers), and for all three
# when the scenario block became a scenario file (the potential's parameters
# flattened, min_eps added, the integrator moved into family; every number
# kept its bytes): a change that claims to keep the verdicts and the numbers
# keeps these bytes
REPORT_DIGESTS = {
    "circle": "5060a4aa92d9421e61d05532aaeb909682bd1ad1e9d35d4d2ffaf830b55fa75b",
    "gutter": "11909c6aeab292ed7b3a1acfcad61515ecc25c6ca12730949df936d35aeef9d5",
    "ellipsoid": "5e38c76ce32d2291f50972b2754b348a5504cb38c9770367916d5f93895f67a5",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_json_is_unchanged(tmp_path, name):
    import hashlib

    scn = fv.parse_scenario(os.path.join(os.path.dirname(CIRCLE), f"{name}.json"))
    assert fv.run_pipeline(scn, str(tmp_path), svg=False).exit_code == 0
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == REPORT_DIGESTS[name]
    # the scenario block, written to a file and certified again, reproduces the report
    path = _write(tmp_path, f"{name}.json", json.loads(report)["scenario"])
    again = fv.run_pipeline(fv.parse_scenario(path), str(tmp_path / "again"), svg=False)
    assert again.exit_code == 0
    assert (tmp_path / "again" / "report.json").read_bytes() == report


def test_report_records_each_members_step(circle_run_dir):
    fam = circle_run_dir.report.results["family"]
    with open(os.path.join(circle_run_dir.path, "report.json")) as fh:
        rep = json.load(fh)["family"]
    assert rep["substeps"] == fam.substeps == [5, 6, 6, 6, 6, 6]
    assert rep["ceilings"] == [5, 8, 10, 15, 20, 29]
    assert rep["probe"]["substeps"] == [5, 6, 6, 6, 6, 6]
    assert rep["probe"]["step_errors"] == fam.plan.probe_step_errors
    assert rep["probe"]["energy_drifts"] == fam.plan.probe_drifts
    assert rep["probe"]["confined"] == [True] * 6
    assert rep["lockstep_iterations"] == 1200
    assert rep["dt"] == [m.dt for m in fam.members]
    assert rep["step_errors"] == list(fam.step_errors)
    # every member's step error and drift sit within the fraction of their
    # gates that the probe accepts
    limit = STEP_ERROR_FRACTION * limit_tolerance(fam.potential, fam.p, fam.v, fam.epsilons)
    assert 0.0 < max(rep["step_errors"]) <= PROBE_FRACTION * limit
    assert max(rep["energy_drifts"]) <= PROBE_FRACTION * ENERGY_DRIFT_LIMIT


@pytest.mark.parametrize("key, j, change", [
    ("substeps", 5, lambda m: m + 1),
    ("dt", 3, lambda dt: dt * (1.0 + 1e-15)),
    ("substeps", 0, lambda m: None),
], ids=["substeps", "dt", "substeps-null"])
def test_file_revalidation_rederives_each_members_step(circle_run_dir, tmp_path, key, j,
                                                      change):
    clone = tmp_path / "tampered"
    shutil.copytree(circle_run_dir.path, clone)
    rep = json.loads((clone / "report.json").read_text())
    rep["family"][key][j] = change(rep["family"][key][j])
    (clone / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(clone))
    assert not result["ok"] and not result["checks"]["step_plan"]
    assert all(ok for name, ok in result["checks"].items() if name != "step_plan")
    assert revalidate_from_dir(circle_run_dir.path)["checks"]["step_plan"]


def test_file_revalidation_rederives_the_probe_from_the_profile_exponent(ellipsoid_run_dir,
                                                                         tmp_path):
    # the ellipsoid's field has profile exponent 4, so its rho law asks
    # [1, 2, 2, 2, 2, 3], not the circle's [1, 2, 2, 3, 4, 6], and its
    # members probe at that call's longest row of 3, not at the circle's 6:
    # the files revalidate, and a file that records member 5's probe at 6
    # fails the step plan alone
    out = tmp_path / "run"
    shutil.copytree(ellipsoid_run_dir.path, out)
    assert revalidate_from_dir(str(out))["ok"]
    rep = json.loads((out / "report.json").read_text())
    assert rep["family"]["probe"]["substeps"] == [3, 3, 3, 3, 3, 3]
    rep["family"]["probe"]["substeps"][5] = 6
    (out / "report.json").write_text(json.dumps(rep))
    result = revalidate_from_dir(str(out))
    assert not result["ok"] and not result["checks"]["step_plan"]
    assert all(ok for name, ok in result["checks"].items() if name != "step_plan")


@pytest.mark.parametrize("kind", ["gutter", "circle"])
def test_a_limit_that_never_leaves_p_is_indeterminate(tmp_path, capsys, kind):
    # every distance from p, at most |v| T = 1e-170, underflows to 0 when
    # squared, so R = 0 and tau* = 0: the noise-ball verdict comes before
    # the evidence runs are cut at tau*, which a tau* of 0 would fail with
    # an InvalidParameterError (exit 1).  |v| is large enough that the
    # confinement budget eps^2 |v|^2 / 2 stays a normal float
    p = {"gutter": [0, 0], "circle": [1, 0]}[kind]
    path = _write(tmp_path, "flat.json", {
        "potential": {"kind": kind}, "p": p, "v": [0, 1e-150], "horizon": 1e-20,
        "count": 3, "n_out": 41, "min_eps": 1e-300})
    out = str(tmp_path / "out")
    assert cli.main(["certify", "--scenario", path, "--out", out, "--no-svg"]) == 2
    assert "limit curve never leaves the noise ball: R = 0.000e+00" in capsys.readouterr().out
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    assert rep["certificate"]["verdict"] == "INDETERMINATE"
    assert rep["certificate"]["reason"].startswith("limit curve never leaves the noise ball")
    assert "evidence.csv" not in rep["manifest"]  # no run was cut


@pytest.mark.parametrize("name", ["ellipsoid", "gutter"])
def test_a_flat_valley_at_ratio_a_quarter_certifies(tmp_path, capsys, name):
    # k = 4, count 10, ratio 0.25 (eps down to 3.8e-7), n_out 41: the k = 2
    # ceilings, up to 32,768 times member 0's substeps, needed more than
    # MAX_STEPS; the rho^(2/k) law's reach 64 times, and the family's
    # chosen steps certify
    with open(os.path.join(os.path.dirname(CIRCLE), f"{name}.json")) as fh:
        scenario = {**json.load(fh), "count": 10, "ratio": 0.25, "n_out": 41,
                    "min_eps": 1e-300}
    scenario.pop("out")
    out = str(tmp_path / "out")
    assert cli.main(["certify", "--scenario", _write(tmp_path, f"{name}.json", scenario),
                     "--out", out, "--no-svg"]) == 0
    assert "verdict: UNSTABLE" in capsys.readouterr().out
    assert revalidate_from_dir(out)["ok"]
