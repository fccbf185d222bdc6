"""Batch kernels against loops of single-point calls, bit for bit.

Every geometry map is one kernel over a batch of rows, and the single-point
functions are batches of one.  A batch must give exactly what a loop of
single calls gives: the same bits on the rows that succeed, and on the rows
that fail the same error type, message and state.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flatvalley as fv
from flatvalley.errors import ChartDomainError, FlatValleyError
from flatvalley.geometry import flow_many, foot_many, raise_first


def _custom():
    return fv.custom_polynomial(linear=[0.3, -0.1, 0.7], quadratic=[1.3, 0.7, 2.9],
                                offset=1.1)


# name -> (potential, chart centre seed, chart velocity, chart radius)
CASES = {
    "circle": (fv.circle(), [1.0, 0.0], [0.0, 1.0], 0.8),
    "ellipsoid": (fv.ellipsoid(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.6),
    "ellipsoid-skew": (fv.ellipsoid(coeffs=(1.3, 0.7, 2.9)), [0.877, 0.0, 0.0],
                       None, 0.5),
    "gutter": (fv.gutter(), [0.0, 0.0], [0.0, 1.0], 1.5),
    "custom-polynomial": (_custom(), [0.8, 0.0, 0.0], None, 0.5),
}


def _chart(name):
    potential, seed, v, delta = CASES[name]
    fld = potential.field
    p = fv.foot_point(fld, np.array(seed, float))
    return fld, fv.build_m_chart(fld, p, None if v is None else np.array(v, float),
                                 delta=delta)


CHARTS = {name: _chart(name) for name in CASES}

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _loop(call, rows):
    """What a loop of single calls gives per row: the result or the error."""
    out = []
    for args in rows:
        try:
            out.append(call(*args))
        except FlatValleyError as exc:
            out.append(exc)
    return out


def _assert_same_error(batch_error, single_error):
    assert type(batch_error) is type(single_error)
    assert str(batch_error) == str(single_error)
    state = getattr(single_error, "state", None)
    if state is not None:
        assert _bits(batch_error.state) == _bits(state)


def _assert_matches(rows, failures, singles, same=lambda row, one: _bits(row) == _bits(one)):
    assert set(failures) == {i for i, one in enumerate(singles)
                             if isinstance(one, FlatValleyError)}
    for i, one in enumerate(singles):
        if i in failures:
            _assert_same_error(failures[i], one)
        else:
            assert same(rows[i], one), i
    if failures:
        with pytest.raises(type(singles[min(failures)])) as info:
            raise_first(failures)
        _assert_same_error(info.value, singles[min(failures)])


names = st.sampled_from(sorted(CASES))
unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def ambient_points(draw, name, reach):
    """Rows scattered around the chart centre, some of them far off M."""
    fld, chart = CHARTS[name]
    n = draw(st.integers(1, 6))
    offsets = draw(st.lists(st.lists(unit, min_size=fld.dim, max_size=fld.dim),
                            min_size=n, max_size=n))
    return chart.p + reach * np.array(offsets)


@SETTINGS
@given(data=st.data(), name=names)
def test_batch_oracles_match_single_calls(data, name):
    fld, _ = CHARTS[name]
    X = data.draw(ambient_points(name, 3.0))
    assert _bits(fld.f_many(X)) == _bits([fld.f(x) for x in X])
    assert _bits(fld.grad_many(X)) == _bits([fld.grad(x) for x in X])


@SETTINGS
@given(data=st.data(), name=names, n_steps=st.integers(1, 12))
def test_flow_many_is_a_loop_of_transversal_flows(data, name, n_steps):
    fld, _ = CHARTS[name]
    X = data.draw(ambient_points(name, 1.0))
    t = np.array(data.draw(st.lists(st.sampled_from([0.0, -1.3, 0.4]) | unit,
                                    min_size=len(X), max_size=len(X))))
    out, failures = flow_many(fld, X, t, n_steps)
    singles = _loop(lambda x, ti: fv.transversal_flow(fld, x, ti, n_steps), zip(X, t))
    _assert_matches(out, failures, singles)


@SETTINGS
@given(data=st.data(), name=names, n_steps=st.integers(1, 12))
def test_foot_many_is_a_loop_of_foot_points(data, name, n_steps):
    fld, _ = CHARTS[name]
    X = data.draw(ambient_points(name, 1.0))
    out, failures = foot_many(fld, X, n_steps)
    singles = _loop(lambda x: fv.foot_point(fld, x, n_steps), ((x,) for x in X))
    _assert_matches(out, failures, singles)


@SETTINGS
@given(data=st.data(), name=names, n_steps=st.integers(1, 12))
def test_tube_many_is_a_loop_of_tube_points(data, name, n_steps):
    fld, chart = CHARTS[name]
    n = data.draw(st.integers(1, 6))
    Y = 1.3 * chart.delta * np.array(data.draw(
        st.lists(st.lists(unit, min_size=chart.dim - 1, max_size=chart.dim - 1),
                 min_size=n, max_size=n)))
    r = 0.5 * np.array(data.draw(st.lists(st.just(0.0) | unit, min_size=n, max_size=n)))
    out, failures = chart.tube_many(r, Y, n_steps)
    singles = _loop(lambda ri, yi: chart.tube_point(ri, yi, n_steps), zip(r, Y))
    _assert_matches(out, failures, singles)


@SETTINGS
@given(data=st.data(), name=names, n_steps=st.integers(1, 12))
def test_coords_many_is_a_loop_of_coords_of(data, name, n_steps):
    fld, chart = CHARTS[name]
    X = data.draw(ambient_points(name, chart.delta))
    r, y, failures = chart.coords_many(X, n_steps)
    singles = _loop(lambda x: chart.coords_of(x, n_steps), ((x,) for x in X))
    _assert_matches(list(zip(r, y)), failures, singles,
                    same=lambda row, one: (_bits(row[0]) == _bits(one.r)
                                           and _bits(row[1]) == _bits(one.y)))


def test_failing_rows_raise_the_lowest_rows_single_error():
    fld, _ = CHARTS["circle"]
    # row 1 starts on the critical point at the origin, rows 2 and 4 flow into it
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [1.1, 0.0], [0.0, 0.4]])
    t = np.array([0.0, 0.1, -0.9, 0.1, -1.2])
    out, failures = flow_many(fld, X, t, 8)
    assert sorted(failures) == [1, 2, 4]
    assert "approached the critical set" in str(failures[1])
    assert np.array_equal(failures[1].state, [0.0, 0.0])  # where it was detected
    _assert_matches(out, failures,
                    _loop(lambda x, ti: fv.transversal_flow(fld, x, ti, 8), zip(X, t)))
    # row 1 is off the graph inside the chart, row 2 beyond the chart radius
    chart = fv.build_m_chart(fld, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.1)
    Y, r = np.array([[0.5], [1.02], [1.2]]), np.array([0.1, 0.0, 0.1])
    out, failures = chart.tube_many(r, Y, 8)
    assert sorted(failures) == [1, 2]
    _assert_matches(out, failures,
                    _loop(lambda ri, yi: chart.tube_point(ri, yi, 8), zip(r, Y)))


def test_coordinate_traces_name_member_and_tau_on_a_small_chart():
    potential = fv.circle()
    fam = fv.family_from_runs(potential, [1.0, 0.0], [0.0, 1.0], 0.5, [0.1, 0.05],
                              fv.IntegratorOptions(n_out=101))
    chart = fv.build_m_chart(potential.field, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             delta=0.3)
    with pytest.raises(ChartDomainError) as info:
        fv.coordinate_traces(chart, fam)
    # the first sample, tau = -0.5, sits about 0.48 from p along the circle
    assert "tube violation at member j=0, tau=-0.5: foot point left the chart" in str(info.value)
    assert isinstance(info.value.__cause__, ChartDomainError)
