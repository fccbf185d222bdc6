import numpy as np
import pytest

from flatvalley.errors import BlowUpError, InvalidParameterError
from flatvalley.integrators import CHUNK, PEFRL, integrate


def harmonic(x):
    return -x


def exact_state(t):
    return np.array([np.cos(t)]), np.array([-np.sin(t)])


def run(accel, dt, n, blowup_radius=1e6, **kwargs):
    """One row from x = 1, v = 0, a batch of one: its states, or its
    BlowUpError raised."""
    (X,), (V,), failures = integrate(accel, [[1.0]], [[0.0]], dt, n, steps=n, scale=1.0,
                                     blowup_radius=blowup_radius, **kwargs)
    if failures:
        raise failures[0]
    return X, V


def test_convergence_order():
    errs = []
    for dt in (0.02, 0.01):
        n = int(round(8.0 / dt))
        X, V = run(harmonic, dt, n)
        xe, ve = exact_state(8.0)
        errs.append(abs(X[-1, 0] - xe[0]) + abs(V[-1, 0] - ve[0]))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 4 - 0.3


def test_energy_bounded_long_run():
    dt = 0.05
    X, V = run(harmonic, dt, 20000)
    H = 0.5 * (V[:, 0] ** 2 + X[:, 0] ** 2)
    drift = np.abs(H - H[0]).max() / H[0]
    # symplectic: bounded oscillation, no secular growth
    assert drift <= 2.0 * dt ** 4


def test_coefficients_sum_to_one():
    assert sum(d for d, _ in PEFRL) == pytest.approx(1.0, abs=1e-15)
    assert sum(k for _, k in PEFRL) == pytest.approx(1.0, abs=1e-15)


def test_blowup_detection():
    repel = lambda x: +25.0 * x  # inverted oscillator: exponential escape
    with pytest.raises(BlowUpError) as info:
        run(repel, 0.1, 100, blowup_radius=100.0)
    assert info.value.last_time is not None
    assert info.value.last_state is not None


def test_nan_detection():
    bad = lambda x: np.array([np.nan])
    with pytest.raises(BlowUpError):
        run(bad, 0.1, 10)


def test_bad_arguments():
    # a negative step is a row run backward in time, not a bad one
    for dt in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidParameterError, match="finite and nonzero"):
            run(harmonic, dt, 10)


def _pefrl_reference(accel, x, v, dt, steps, scale, blowup_radius):
    """One row stepped alone by the PEFRL table, substep by substep: its
    states until the first one outside the box, and that step (or None)."""
    xs, vs = [x], [v]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            for dc, kc in PEFRL:
                x = x + (dc * dt) * v
                if kc != 0.0:
                    v = v + (kc * dt) * (scale * accel(x[None])[0])
            if not np.vecdot(x, x) + np.vecdot(v, v) <= 2.0 * blowup_radius ** 2:
                return np.array(xs), np.array(vs), j
            xs.append(x)
            vs.append(v)
    return np.array(xs), np.array(vs), None


CIRCLE_FORCE = (lambda X: 4.0 * (np.vecdot(X, X) - 1.0)[:, None] * X)


@pytest.mark.parametrize("accel, dim", [(np.sinh, 3), (CIRCLE_FORCE, 2)],
                         ids=["sinh", "circle"])
def _mixed_rows(dim):
    """Rows finishing at different steps, on both sides of CHUNK
    boundaries, one of no steps, and one pushed outward (scale > 0) that
    leaves the box in its second chunk: (steps, dts, scales, x0, v0)."""
    rng = np.random.default_rng(5)
    x0, v0 = rng.uniform(-0.6, 0.6, (6, dim)), rng.uniform(-0.6, 0.6, (6, dim))
    x0[5] *= 2.0
    return ([3, CHUNK - 1, 0, 2 * CHUNK + 5, CHUNK + 1, 2 * CHUNK],
            [0.05, 0.01, 0.1, 0.02, 0.03, 0.007], [-1.0, -0.5, -2.0, -1.5, -0.25, 1.0], x0, v0)


@pytest.mark.parametrize("accel, dim", [(np.sinh, 3), (CIRCLE_FORCE, 2)],
                         ids=["sinh", "circle"])
def test_written_out_step_is_the_pefrl_table(accel, dim):
    steps, dts, scales, x0, v0 = _mixed_rows(dim)
    Xs, Vs, failures = integrate(accel, x0, v0, dts, max(steps), steps=steps, scale=scales,
                                 blowup_radius=10.0)
    for r in range(6):
        X, V, bad = _pefrl_reference(accel, x0[r], v0[r], dts[r], steps[r], scales[r], 10.0)
        assert Xs[r].tobytes() == X.tobytes() and Vs[r].tobytes() == V.tobytes()
        if bad is None:
            assert r not in failures and len(X) == steps[r] + 1
            continue
        exc = failures[r]
        assert str(exc) == f"state left the finite box at step {bad} (t = {bad * dts[r]:.6g})"
        assert exc.last_time == (bad - 1) * dts[r]
        assert exc.last_state[0].tobytes() == X[-1].tobytes()
        assert exc.last_state[1].tobytes() == V[-1].tobytes()
    assert list(failures) == [5]


@pytest.mark.parametrize("accel, dim", [(np.sinh, 3), (CIRCLE_FORCE, 2)],
                         ids=["sinh", "circle"])
def test_a_negative_step_runs_the_reflected_row(accel, dim):
    # every substep is linear in dt and rounding is symmetric in sign: a row
    # at -dt from (x, v) has the positions of the row at dt from (x, -v) and
    # its velocities negated, and the row that blows up does so at the same
    # step, at the negated time, with its true velocity
    steps, dts, scales, x0, v0 = _mixed_rows(dim)
    kwargs = dict(steps=steps, scale=scales, blowup_radius=10.0)
    Xs, Vs, failures = integrate(accel, x0, v0, -np.array(dts), max(steps), **kwargs)
    Xr, Vr, reflected = integrate(accel, x0, -v0, dts, max(steps), **kwargs)
    for r in range(6):
        assert np.array_equal(Xs[r], Xr[r]) and np.array_equal(Vs[r], -Vr[r])
    assert list(failures) == list(reflected) == [5]
    exc, ref = failures[5], reflected[5]
    assert exc.last_time == -ref.last_time < 0
    assert np.array_equal(exc.last_state[0], ref.last_state[0])
    assert np.array_equal(exc.last_state[1], -ref.last_state[1])


def test_a_blow_up_at_a_chunk_s_first_step_reports_the_state_before_it():
    # row 0, pushed outward, leaves the box at step CHUNK + 1, the first of
    # the second chunk: its last valid state is step CHUNK's, which the first
    # chunk's buffer held and the second chunk's steps overwrite before the
    # blow-up is reported
    x0, v0 = np.array([[0.1, 0.05], [0.3, -0.2]]), np.array([[0.1, 0.0], [0.0, 0.2]])
    dts, steps, scales = [0.01, 0.02], [2 * CHUNK, CHUNK + 3], [1.0, -1.0]
    X, V, _ = _pefrl_reference(np.sinh, x0[0], v0[0], dts[0], CHUNK + 1, scales[0], np.inf)
    reach = np.vecdot(X, X) + np.vecdot(V, V)
    assert np.all(np.diff(reach) > 0)  # outward at every step: no earlier exit
    radius = float(np.sqrt((reach[CHUNK] + reach[CHUNK + 1]) / 4.0))
    Xs, Vs, failures = integrate(np.sinh, x0, v0, dts, max(steps), steps=steps, scale=scales,
                                 blowup_radius=radius)
    assert list(failures) == [0]
    for r in range(2):
        X, V, bad = _pefrl_reference(np.sinh, x0[r], v0[r], dts[r], steps[r], scales[r], radius)
        assert Xs[r].tobytes() == X.tobytes() and Vs[r].tobytes() == V.tobytes()
    assert bad is None and len(X) == steps[1] + 1
    X, V, bad = _pefrl_reference(np.sinh, x0[0], v0[0], dts[0], steps[0], scales[0], radius)
    exc = failures[0]
    assert bad == CHUNK + 1 and len(X) == CHUNK + 1
    assert exc.last_time == CHUNK * dts[0]
    assert exc.last_state[0].tobytes() == X[CHUNK].tobytes()
    assert exc.last_state[1].tobytes() == V[CHUNK].tobytes()
