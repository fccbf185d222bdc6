import dataclasses
import json

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import cli, contrast, dynamics
from flatvalley.contrast import (BARRIER_XTOL, COMPANION_SPEED, PROBE_FRACTION,
                                 TRAP_DRIFT_FRACTION, TRAP_OPTIONS)
from flatvalley.errors import InvalidParameterError


@pytest.fixture(scope="module")
def barrier():
    return fv.locate_barrier(fv.painleve())


def test_barrier_location_and_height(barrier):
    # independent refinement puts the inner peak at 1/(2.25 pi) with height
    # exp(-2.25 pi) sin(pi/4); the scan must reproduce both
    x_expect = 1.0 / (2.25 * np.pi)
    h_expect = np.exp(-2.25 * np.pi) * np.sin(np.pi / 4.0)
    assert barrier.x_right == pytest.approx(x_expect, abs=1e-6)
    assert barrier.x_left == pytest.approx(-x_expect, abs=1e-6)
    assert barrier.height == pytest.approx(h_expect, rel=1e-9)


def test_barrier_refinement_stops_at_float_resolution():
    # the golden-section search stops once its bracket is BARRIER_XTOL wide
    # (the peaks sit at |x| < 1): the bracket still holds the true peak, and
    # each side takes about 20 evaluations instead of the 83 of a fixed 80
    # steps, which refined a 2.5e-5 bracket to about 1e-21
    P = fv.painleve()
    calls = []
    counted = dataclasses.replace(P, u=lambda x: calls.append(x) or P.u(x))
    barrier = fv.locate_barrier(counted)
    x_peak = 1.0 / (2.25 * np.pi)
    assert abs(barrier.x_right - x_peak) <= 0.5 * BARRIER_XTOL
    assert abs(barrier.x_left + x_peak) <= 0.5 * BARRIER_XTOL
    assert len(calls) <= 2 * 20


def test_sub_barrier_motions_stay_trapped(barrier):
    P = fv.painleve()
    rep = fv.trapped_motion_check(P, barrier, n_traj=4, t_end=200.0)
    assert rep.all_trapped
    assert rep.call_steps == [1000]  # every run keeps its probe
    for r in rep.records:
        assert (r.dt, r.steps) == (0.2, 1000)
        assert r.energy < barrier.height
        assert r.max_excursion < barrier.x_right
        assert r.energy_drift <= TRAP_DRIFT_FRACTION * rep.gap(r)
        assert r.companion_excursion == 0.0  # no other coordinate in 1-d


def test_projection_trapping_for_2d_contrast(barrier):
    L = fv.laloy()
    rep = fv.trapped_motion_check(L, barrier, n_traj=4, t_end=12.0)
    assert rep.all_trapped
    # the second coordinate is NOT trapped: it must have moved visibly more
    # than the first stays within
    assert max(r.companion_excursion for r in rep.records) > barrier.x_right


@pytest.mark.parametrize("fraction, calls", [(0.3, [500]), (0.9, [500, 590])],
                         ids=["keeps-probe", "re-runs"])
def test_each_run_reads_at_most_its_probe_target(barrier, fraction, calls):
    # painleve at t = 100: a probe at dt = 0.2 under its target keeps it,
    # and one past it re-runs at ceil(m r^(1/4)) substeps, which brings
    # every re-run's drift to at most PROBE_FRACTION of its budget
    rep = fv.trapped_motion_check(fv.painleve(), barrier, n_traj=10, t_end=100.0,
                                  energy_fraction=fraction)
    assert rep.all_trapped
    assert rep.call_steps == calls
    for r in rep.records:
        assert r.steps == calls[-1]
        assert r.energy_drift <= PROBE_FRACTION * TRAP_DRIFT_FRACTION * rep.gap(r)


def _dense_drift(P, run, energy):
    # the first-coordinate energy of every internal state of a dense run
    axis = np.zeros_like(run.x_int)
    axis[:, 0] = run.x_int[:, 0]
    v1 = run.v_int[:, 0]
    return float(np.max(np.abs(0.5 * v1 * v1 + P.value_many(axis) - energy)))


@pytest.mark.parametrize("P, t_end, fraction, calls",
                         [(fv.painleve(), 100.0, 0.5, [500]),
                          (fv.laloy(), 12.0, 0.5, [60]),
                          (fv.painleve(), 100.0, 0.999, [500, 1956])],
                         ids=["painleve", "laloy", "painleve-rerun"])
def test_streamed_drift_is_the_dense_drift(monkeypatch, barrier, P, t_end, fraction, calls):
    # the check folds each run's energy drift chunk by chunk as the lockstep
    # call makes the states; the dense run of the same start at the record's
    # own step gives the same bits read as one block.  A lockstep run keeps
    # only its 3 nodes, so the drift gate alone sets the step: every probe
    # steps at dt = 0.2, laloy at t = 12 in 60 steps.  At fraction 0.999 the
    # probe reads drift/gap 2.3e-2, 234 times its target, so every run
    # re-runs at ceil(250 x 234^(1/4)) = 978 substeps of each of the two
    # output intervals and is read from the re-run
    kept = []
    many = contrast.newton_many

    def kept_runs(*args, **kwargs):
        runs = many(*args, **kwargs)
        kept.extend(runs)
        return runs

    monkeypatch.setattr(contrast, "newton_many", kept_runs)
    rep = fv.trapped_motion_check(P, barrier, n_traj=3, t_end=t_end, energy_fraction=fraction)
    assert rep.call_steps == calls
    assert t_end / calls[0] == TRAP_OPTIONS.step_factor
    assert len(kept) == 3 * len(calls)
    assert all(len(run.tau) == len(run.x_int) == 3 for run in kept)
    rest = P.dim - 1
    for r in rep.records:
        assert (r.dt, r.steps) == (t_end / calls[-1], calls[-1])
        run = fv.integrate_newton(P, fv.PhaseState([r.x0] + [0.0] * rest,
                                                   [r.v0] + [COMPANION_SPEED] * rest),
                                  t_end, fv.IntegratorOptions(n_out=TRAP_OPTIONS.n_out,
                                                              step_factor=r.dt))
        assert len(run.x_int) == r.steps + 1
        assert r.energy_drift == _dense_drift(P, run, r.energy)
        assert r.max_excursion == float(np.max(np.abs(run.x_int[:, 0])))
    # the gallery's default horizon probes at ten times the steps of t = 100
    assert dynamics._snap_step(500.0, TRAP_OPTIONS.step_factor, 2) == (2500, 0.2, 5000)


def _report(tmp_path):
    with open(tmp_path / "gallery_report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_a_near_barrier_run_is_stepped_to_its_budget(tmp_path, capsys):
    # at 0.99999 of the barrier the budget is 6.0e-12: at dt = 0.05 every run
    # drifted by 3.0e-11 to 5.3e-11 and was called not trapped; the probe at
    # dt = 0.2 reads about 2.3e4 times its target, so all ten re-run at
    # ceil(m r^(1/4)) = 3,092 substeps of each of the two output intervals
    # and conserve their energy inside the probe target, 1e-4 of the gap
    code = cli.main(["gallery", "--name", "painleve", "--horizon", "100",
                     "--energy-fraction", "0.99999", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = _report(tmp_path)
    height = report["barrier"]["height"]
    assert report["all_trapped"] is True
    for r in report["records"]:
        assert (r["dt"], r["steps"]) == (50.0 / 3092, 6184)
        assert r["energy_drift"] / (height - r["energy"]) <= 9.7e-5
    assert "lockstep steps = 500 + 6184 (probe call first)" in out


def test_a_run_whose_drift_eats_its_gap_is_not_trapped(monkeypatch, tmp_path, capsys):
    # with MAX_STEPS at 2,000 the near-barrier re-run above is clipped to
    # 1,000 substeps, dt = 0.05: every excursion stays inside the barrier, yet the
    # energy drifts by up to 8.8e-3 of the gap: conservation, the proof of
    # trapping, is not shown, and the gallery says which run failed and by
    # how much
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
    code = cli.main(["gallery", "--name", "painleve", "--horizon", "100",
                     "--energy-fraction", "0.99999", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    report = _report(tmp_path)
    assert report["all_trapped"] is False
    gap = report["barrier"]["height"] - report["records"][0]["energy"]
    first = report["records"][0]
    assert (first["dt"], first["steps"]) == (0.05, 2000)
    assert first["max_excursion"] < report["barrier"]["x_right"]
    assert first["energy_drift"] / gap == pytest.approx(8.8e-3, rel=0.01)
    assert first["trapped"] is False
    assert (f"run 0 (x0={first['x0']:+.6f}) is not trapped: max|x| = "
            f"{first['max_excursion']:.6f}") in out
    assert (f"energy drift {first['energy_drift']:.3e} against its budget "
            f"{TRAP_DRIFT_FRACTION:g} x gap = {TRAP_DRIFT_FRACTION * gap:.3e}") in out
    assert "lockstep steps = 500 + 2000 (probe call first)" in out


@pytest.mark.parametrize("t_end, steps", [(100.0, 500), (1e3, 5000)],
                         ids=["benchmark", "criterion-9"])
def test_the_trapped_check_makes_one_lockstep_call(monkeypatch, barrier, t_end, steps):
    # ten runs at fraction 0.5 keep their probe: one call, at dt = 0.2 (the
    # step of 0.1 on 1,000 output intervals took 1,000 and 10,000 steps)
    calls = []
    integrate = dynamics.integrate

    def counted(accel, x0, v0, dt, n_steps, **kwargs):
        calls.append((len(x0), n_steps))
        return integrate(accel, x0, v0, dt, n_steps, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counted)
    rep = fv.trapped_motion_check(fv.painleve(), barrier, n_traj=10, t_end=t_end)
    assert rep.all_trapped
    assert calls == [(10, steps)]


def test_barrier_requires_1d():
    with pytest.raises(InvalidParameterError):
        fv.locate_barrier(fv.laloy())
