import dataclasses
import json

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import cli, contrast, dynamics
from flatvalley.contrast import (BARRIER_XTOL, COMPANION_SPEED, TRAP_DRIFT_FRACTION,
                                 TRAP_OPTIONS)
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
    assert (rep.dt, rep.steps) == (0.05, 4000)
    for r in rep.records:
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


def _dense_drift(P, run, energy):
    # the first-coordinate energy of every internal state of a dense run
    axis = np.zeros_like(run.x_int)
    axis[:, 0] = run.x_int[:, 0]
    v1 = run.v_int[:, 0]
    return float(np.max(np.abs(0.5 * v1 * v1 + P.value_many(axis) - energy)))


@pytest.mark.parametrize("P, t_end, steps", [(fv.painleve(), 100.0, 2000),
                                             (fv.laloy(), 12.0, 1000)],
                         ids=["painleve", "laloy"])
def test_streamed_drift_is_the_dense_drift(barrier, P, t_end, steps):
    # the check folds each run's energy drift chunk by chunk as the lockstep
    # call makes the states; the dense run of the same start at TRAP_OPTIONS
    # gives the same bits read as one block
    rep = fv.trapped_motion_check(P, barrier, n_traj=3, t_end=t_end)
    assert (rep.dt, rep.steps) == (min(0.05, t_end / 1000), steps)
    rest = P.dim - 1
    for r in rep.records:
        run = fv.integrate_newton(P, fv.PhaseState([r.x0] + [0.0] * rest,
                                                   [r.v0] + [COMPANION_SPEED] * rest),
                                  t_end, TRAP_OPTIONS)
        assert len(run.x_int) == steps + 1
        assert r.energy_drift == _dense_drift(P, run, r.energy)
        assert r.max_excursion == float(np.max(np.abs(run.x_int[:, 0])))
    # the gallery's default horizon takes ten times the steps of t = 100
    assert dynamics._snap_step(1.0, TRAP_OPTIONS.step_factor, 1000) == (20, 0.05, 20000)


def test_a_run_whose_drift_eats_its_gap_is_not_trapped(monkeypatch, tmp_path, capsys):
    # at dt = 0.5 every excursion stays inside the barrier, yet the energy
    # drifts by up to 9e-3 of the gap: conservation, the proof of trapping,
    # is not shown, and the gallery says which run failed and by how much
    monkeypatch.setattr(contrast, "TRAP_OPTIONS", fv.IntegratorOptions(n_out=1001,
                                                                       step_factor=0.5))
    code = cli.main(["gallery", "--name", "painleve", "--energy-fraction", "0.9",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    with open(tmp_path / "gallery_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert (report["dt"], report["steps"], report["all_trapped"]) == (0.5, 2000, False)
    gap = report["barrier"]["height"] - report["records"][0]["energy"]
    first = report["records"][0]
    assert first["max_excursion"] < report["barrier"]["x_right"]
    assert first["energy_drift"] / gap == pytest.approx(9.0e-3, rel=0.01)
    assert first["trapped"] is False
    assert (f"run 0 (x0={first['x0']:+.6f}) is not trapped: max|x| = "
            f"{first['max_excursion']:.6f}") in out
    assert (f"energy drift {first['energy_drift']:.3e} against its budget "
            f"{TRAP_DRIFT_FRACTION:g} x gap = {TRAP_DRIFT_FRACTION * gap:.3e}") in out


def test_barrier_requires_1d():
    with pytest.raises(InvalidParameterError):
        fv.locate_barrier(fv.laloy())
