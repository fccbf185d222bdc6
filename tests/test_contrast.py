import dataclasses

import numpy as np
import pytest

import flatvalley as fv
from flatvalley.contrast import BARRIER_XTOL
from flatvalley.errors import InvalidParameterError


@pytest.fixture(scope="module")
def barrier():
    return fv.locate_barrier(fv.painleve(), window=0.25)


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
    barrier = fv.locate_barrier(counted, window=0.25)
    x_peak = 1.0 / (2.25 * np.pi)
    assert abs(barrier.x_right - x_peak) <= 0.5 * BARRIER_XTOL
    assert abs(barrier.x_left + x_peak) <= 0.5 * BARRIER_XTOL
    assert len(calls) <= 2 * 20


def test_sub_barrier_motions_stay_trapped(barrier):
    P = fv.painleve()
    rep = fv.trapped_motion_check(P, barrier, n_traj=4, t_end=200.0)
    assert rep.all_trapped
    for r in rep.records:
        assert r.energy < barrier.height
        assert r.max_excursion < barrier.x_right
        assert r.companion_excursion == 0.0  # no other coordinate in 1-d


def test_projection_trapping_for_2d_contrast(barrier):
    L = fv.laloy()
    rep = fv.trapped_motion_check(L, barrier, n_traj=4, t_end=12.0)
    assert rep.all_trapped
    # the second coordinate is NOT trapped: it must have moved visibly more
    # than the first stays within
    assert max(r.companion_excursion for r in rep.records) > barrier.x_right


def test_barrier_requires_1d():
    with pytest.raises(InvalidParameterError):
        fv.locate_barrier(fv.laloy())
