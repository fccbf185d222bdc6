import numpy as np
import pytest

from flatvalley.errors import BlowUpError, InvalidParameterError
from flatvalley.integrators import ORDERS, TABLES, integrate


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


@pytest.mark.parametrize("method", sorted(TABLES))
def test_convergence_order(method):
    errs = []
    for dt in (0.02, 0.01):
        n = int(round(8.0 / dt))
        X, V = run(harmonic, dt, n, method=method)
        xe, ve = exact_state(8.0)
        errs.append(abs(X[-1, 0] - xe[0]) + abs(V[-1, 0] - ve[0]))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= ORDERS[method] - 0.3


@pytest.mark.parametrize("method", sorted(TABLES))
def test_energy_bounded_long_run(method):
    dt = 0.05
    X, V = run(harmonic, dt, 20000, method=method)
    H = 0.5 * (V[:, 0] ** 2 + X[:, 0] ** 2)
    drift = np.abs(H - H[0]).max() / H[0]
    # symplectic: bounded oscillation, no secular growth
    assert drift <= 2.0 * (dt ** ORDERS[method])


def test_coefficients_sum_to_one():
    for table in TABLES.values():
        assert sum(d for d, _ in table) == pytest.approx(1.0, abs=1e-15)
        assert sum(k for _, k in table) == pytest.approx(1.0, abs=1e-15)


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
    with pytest.raises(InvalidParameterError):
        run(harmonic, 0.1, 10, method="rk4")
    with pytest.raises(InvalidParameterError):
        run(harmonic, -0.1, 10)
