import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import dynamics
from flatvalley.errors import BlowUpError
from flatvalley.geometry import foot_many, raise_first


def _pipeline_bundle(scn):
    """Run every analysis stage once; tests pick the pieces they assert on."""
    fam = fv.run_family(scn)
    chart = fv.chart_for_scenario(scn)
    traces = fv.coordinate_traces(chart, fam)
    coordinates, _ = fv.coordinate_report(traces, scn.potential, scn.v)
    limit, convergence = fv.extract_limit(fam)
    _, _, tau_star = fv.escape_point(limit.tau, limit.x, scn.p)
    runs = fv.physical_evidence_runs(fam, tau_star)
    cert = fv.certify_instability(fam, limit, runs)
    return SimpleNamespace(
        scenario=scn, family=fam, chart=chart, traces=traces,
        coordinates=coordinates, limit=limit,
        convergence=convergence, tau_star=tau_star, physical_runs=runs,
        certificate=cert)


@pytest.fixture(scope="session")
def circle_bundle():
    scn = fv.Scenario(fv.circle(), [1.0, 0.0], [0.0, 1.0], 1.0, name="circle")
    return _pipeline_bundle(scn)


@pytest.fixture(scope="session")
def gutter_bundle():
    scn = fv.Scenario(fv.gutter(), [0.0, 0.0], [0.0, 1.0], 1.0, name="gutter")
    return _pipeline_bundle(scn)


@pytest.fixture(scope="session")
def ellipsoid_bundle():
    scn = fv.Scenario(fv.ellipsoid(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5,
                      name="ellipsoid")
    return _pipeline_bundle(scn)


@pytest.fixture(scope="session")
def ellipsoid_reference():
    """Brute-force small-eps rescaled run projected to the floor."""
    E = fv.ellipsoid()
    traj = fv.integrate_rescaled(E, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3, 0.5)
    x_proj, failures = foot_many(E.field, traj.x)
    raise_first(failures)
    return SimpleNamespace(trajectory=traj, x=x_proj, tau=traj.tau)


@pytest.fixture(scope="session")
def circle_run_dir(tmp_path_factory):
    """Full pipeline with artifact emission, shared by CLI and certificate tests."""
    out = tmp_path_factory.mktemp("circle_pipeline")
    scn = fv.Scenario(fv.circle(), [1.0, 0.0], [0.0, 1.0], 1.0, name="circle")
    report = fv.run_pipeline(scn, str(out), svg=True)
    assert report.exit_code == 0, report.reason
    return SimpleNamespace(path=str(out), report=report)


@pytest.fixture(scope="session")
def ellipsoid_run_dir(tmp_path_factory):
    """The shipped ellipsoid scenario's full pipeline, figures left out."""
    out = tmp_path_factory.mktemp("ellipsoid_pipeline")
    scn = fv.parse_scenario(str(pathlib.Path(__file__).parent.parent / "scenarios" /
                                "ellipsoid.json"))
    report = fv.run_pipeline(scn, str(out), svg=False)
    assert report.exit_code == 0, report.reason
    return SimpleNamespace(path=str(out), report=report)


@pytest.fixture(scope="session")
def gutter_run_dir(tmp_path_factory):
    """The shipped gutter scenario's full pipeline, figures left out."""
    out = tmp_path_factory.mktemp("gutter_pipeline")
    scn = fv.parse_scenario(str(pathlib.Path(__file__).parent.parent / "scenarios" /
                                "gutter.json"))
    report = fv.run_pipeline(scn, str(out), svg=False)
    assert report.exit_code == 0, report.reason
    return SimpleNamespace(path=str(out), report=report)


@pytest.fixture()
def tiny_scenario_file(tmp_path):
    """A fast 3-member circle scenario for CLI plumbing tests."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "potential": {"kind": "circle", "exponent": 2},
        "p": [1.0, 0.0],
        "v": [0.0, 1.0],
        "horizon": 0.5,
        "eps0": 0.1,
        "ratio": 0.5,
        "count": 3,
        "n_out": 101,
    }))
    return str(path)


@pytest.fixture()
def blow_up_physical_rows(monkeypatch):
    """Make a family's physical runs blow up: ``blow_up_physical_rows({j:
    fraction})`` has every family lockstep call that runs member j report
    its physical run as leaving the finite box at that fraction of its
    steps, keeping its nodes before, as ``integrate`` reports a row that
    blew up.  A call may run only some of the members (the re-runs of
    ``family_for_gates``): member j's physical run is the one launched at
    eps_j |v|, eps_j = 0.1 * 0.5^j, the schedule of every family this
    fixture serves.  A physical run moves eps_j times slower than its
    member along the same path, so it never blows up while its member runs
    on: the failure has to be injected."""
    real = dynamics.integrate

    def install(fractions):
        def integrate(accel, x0, v0, dt, n_steps, *, steps, scale, stride, **kwargs):
            # both halves of every member, then the physical runs; row 0
            # is a forward half, launched at v
            count = len(steps) // 3
            speed = np.linalg.norm(v0[0])
            eps = [np.linalg.norm(v0[r]) / speed for r in range(2 * count, 3 * count)]
            member = [round(np.log(e / 0.1) / np.log(0.5)) for e in eps]
            failing = {2 * count + i: fractions[j] for i, j in enumerate(member)
                       if j in fractions}
            # a failing row keeps every state here, to be cut at its failure
            # and thinned to its nodes below, as integrate keeps a row's nodes
            Xs, Vs, failures = real(accel, x0, v0, dt, n_steps, steps=steps, scale=scale,
                                    stride=[1 if r in failing else s
                                            for r, s in enumerate(stride)], **kwargs)
            for r, fraction in failing.items():
                h, bad = dt[r], int(fraction * steps[r])
                if len(Xs[r]) <= bad:  # the row blew up on its own before (a coarse probe)
                    Xs[r], Vs[r] = Xs[r][::stride[r]], Vs[r][::stride[r]]
                    continue
                failures[r] = BlowUpError(
                    f"state left the finite box at step {bad} (t = {bad * h:.6g})",
                    last_time=(bad - 1) * h,
                    last_state=(Xs[r][bad - 1].copy(), Vs[r][bad - 1].copy()))
                Xs[r], Vs[r] = Xs[r][:bad:stride[r]], Vs[r][:bad:stride[r]]
            return Xs, Vs, failures

        monkeypatch.setattr(dynamics, "integrate", integrate)

    return install
