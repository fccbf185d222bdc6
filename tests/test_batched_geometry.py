"""Batch kernels against loops of single-point calls, bit for bit.

Every geometry map is one kernel over a batch of rows, and the single-point
functions are batches of one.  A batch must give exactly what a loop of
single calls gives: the same bits on the rows that succeed, and on the rows
that fail the same error type, message and state.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flatvalley as fv
from flatvalley import dynamics, geometry
from flatvalley.errors import (
    ChartDomainError,
    FlatValleyError,
    FlowDomainError,
    InvalidParameterError,
)
from flatvalley.fields import TOL_CRIT
from flatvalley.geometry import (
    CHART_NEWTON_ITERS,
    FLOW_IDENTITY_TOL,
    flow_many,
    flow_steps_for,
    foot_many,
    raise_first,
)


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


def _two_pass_flow(fld, x, t, n):
    """One row's flow as two plain RK4 loops, the coarse one (n substeps)
    run to its end before the fine one (2n) starts: the reference the
    lockstep must reproduce bit for bit, errors included."""
    x = np.asarray(x, dtype=float)[None]
    if t == 0.0:
        return x[0].copy()
    errors = []

    def rhs(Z):
        G = fld.grad_many(Z)
        gg = np.vecdot(G, G)
        if not gg[0] > TOL_CRIT * TOL_CRIT:
            errors.append(FlowDomainError(
                f"transversal flow approached the critical set (|grad f|^2 = {gg[0]:.3e})",
                state=Z[0].copy()))
            return np.zeros_like(G)
        return G / gg[:, None]

    def rk4(steps):
        h = (np.array([t]) / steps)[:, None]
        half, sixth = 0.5 * h, h / 6.0
        Z = x
        for _ in range(steps):
            k1 = rhs(Z)
            k2 = rhs(Z + half * k1)
            k3 = rhs(Z + half * k2)
            k4 = rhs(Z + h * k3)
            Z = Z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return Z

    coarse = rk4(n)
    fine = rk4(2 * n)
    if errors:
        raise errors[0]
    end = fine + (fine - coarse) / 15.0
    err = np.abs(fld.f_many(end) - np.array([t]) - fld.f_many(x))[0]
    if not err <= FLOW_IDENTITY_TOL * (1.0 + abs(t)):
        raise FlowDomainError(f"flow identity violated by {err:.3e} after time {t:g}; "
                              "the path likely grazed the critical set", state=end[0].copy())
    return end[0]


@SETTINGS
@given(data=st.data(), name=names)
def test_flow_many_with_per_row_counts_is_a_loop_of_two_pass_flows(data, name):
    fld, _ = CHARTS[name]
    X = data.draw(ambient_points(name, 1.0))
    t = np.array(data.draw(st.lists(st.sampled_from([0.0, -1.3, 0.4]) | unit,
                                    min_size=len(X), max_size=len(X))))
    counts = np.array(data.draw(st.lists(st.integers(1, 12), min_size=len(X),
                                         max_size=len(X))))
    out, failures = flow_many(fld, X, t, counts)
    _assert_matches(out, failures,
                    _loop(lambda x, ti, n: _two_pass_flow(fld, x, ti, int(n)), zip(X, t, counts)))
    _assert_matches(out, failures,
                    _loop(lambda x, ti, n: fv.transversal_flow(fld, x, ti, int(n)),
                          zip(X, t, counts)))


def test_a_row_failing_in_both_passes_reports_its_coarse_error():
    # f = x0 with its gradient cut off below x0 = 0.5.  Flowing row 1 down
    # from x0 = 1 for time 1.5 at 2 substeps, the coarse pass (stage points
    # every 0.375) first meets the cut at x0 = 0.25, the fine pass (every
    # 0.1875) at 0.4375: the two passes fail at different states
    def grad_many(X):
        return np.where(X[:, :1] > 0.5, np.array([1.0, 0.0]), 0.0)

    fld = fv.ScalarField(dim=2, f=lambda x: float(x[0]), grad=lambda x: grad_many(x[None])[0],
                         f_many=lambda X: X[:, 0].copy(), grad_many=grad_many, name="cut")
    X = np.array([[2.0, 0.0], [1.0, 0.3], [1.5, 0.0]])
    t = np.array([-0.5, -1.5, 0.25])
    counts = np.array([4, 2, 1])
    out, failures = flow_many(fld, X, t, counts)
    assert sorted(failures) == [1]
    assert failures[1].state.tolist() == [0.25, 0.3]
    assert out[0].tolist() == [1.5, 0.0] and out[2].tolist() == [1.75, 0.0]
    _assert_matches(out, failures,
                    _loop(lambda x, ti, n: _two_pass_flow(fld, x, ti, int(n)), zip(X, t, counts)))


@pytest.mark.parametrize("n_steps", [0, -2, 2.0, True, [4, 0, 1], np.array([3.0, 1.0, 2.0])],
                         ids=["zero", "negative", "float", "bool", "row-zero", "row-float"])
def test_bad_flow_step_counts_are_rejected_before_any_step(n_steps):
    fld, chart = CHARTS["circle"]
    calls = []

    def grad_many(X):
        calls.append(len(X))
        return fld.grad_many(X)

    counting = dataclasses.replace(fld, grad_many=grad_many)
    X = np.array([[1.0, 0.0], [1.1, 0.0], [0.9, 0.0]])
    with pytest.raises(InvalidParameterError, match="flow step counts"):
        flow_many(counting, X, np.array([0.1, 0.0, -0.1]), n_steps)
    with pytest.raises(InvalidParameterError, match="flow step counts"):
        dataclasses.replace(chart, field=counting).coords_many(X, n_steps)
    assert calls == []


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
    fam = dynamics.family_for_gates(potential, [1.0, 0.0], [0.0, 1.0], 0.5, [0.1, 0.05],
                                    fv.IntegratorOptions(n_out=101))
    chart = fv.build_m_chart(potential.field, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             delta=0.3)
    with pytest.raises(ChartDomainError) as info:
        fv.coordinate_traces(chart, fam)
    # the first sample, tau = -0.5, sits about 0.48 from p along the circle
    assert "tube violation at member j=0, tau=-0.5: foot point left the chart" in str(info.value)
    assert isinstance(info.value.__cause__, ChartDomainError)


@pytest.mark.parametrize("bundle", ["circle_bundle", "gutter_bundle", "ellipsoid_bundle"])
def test_coordinate_traces_is_a_loop_of_members(request, bundle):
    b = request.getfixturevalue(bundle)
    assert len(b.traces) == len(b.family.members)
    for traj, trace in zip(b.family.members, b.traces):
        # the reference: one coords_many call per member, each row at its
        # own count
        r = b.chart.field.value_many(traj.x)
        _, y, failures = b.chart.coords_many(traj.x, flow_steps_for(r))
        assert not failures
        assert _bits(trace.tau) == _bits(traj.tau)
        assert _bits(trace.r) == _bits(r) and _bits(trace.y) == _bits(y)


@pytest.mark.parametrize("bundle, flow_calls", [("circle_bundle", 64),
                                                ("ellipsoid_bundle", 160)])
def test_coordinate_traces_flow_in_one_lockstep(request, monkeypatch, bundle, flow_calls):
    # the bundles run the shipped circle and ellipsoid scenarios.  Their
    # members' flows take 8 substeps each on the circle and up to 20 on the
    # ellipsoid, so one lockstep runs 16 and 40 RK4 iterations of four
    # grad_many calls; the fold check adds one chart graph solve of
    # CHART_NEWTON_ITERS.  f is read once at the nodes, twice by the flow
    # identity, once by the foot polish (every row settles at once) and
    # CHART_NEWTON_ITERS + 1 times by the graph solve: 17 f_many calls.
    # extract_limit's foot projection reads it four times in the same way,
    # the limit's residual once and the floor violations once per member:
    # 11 on the bundles' 6 members
    b = request.getfixturevalue(bundle)
    fld = b.chart.field
    calls = {"all": 0, "flow": 0, "f": 0}
    in_flow = []

    def grad_many(X):
        calls["all"] += 1
        calls["flow"] += bool(in_flow)
        return fld.grad_many(X)

    def f_many(X):
        calls["f"] += 1
        return fld.f_many(X)

    def flow_many_counted(*args):
        in_flow.append(True)
        try:
            return flow_many(*args)
        finally:
            in_flow.pop()

    monkeypatch.setattr(geometry, "flow_many", flow_many_counted)
    counting = dataclasses.replace(fld, grad_many=grad_many, f_many=f_many)
    chart = dataclasses.replace(b.chart, field=counting)
    traces = fv.coordinate_traces(chart, b.family)
    assert calls == {"all": flow_calls + CHART_NEWTON_ITERS, "flow": flow_calls,
                     "f": 17}
    assert all(_bits(t.y) == _bits(ref.y) and _bits(t.r) == _bits(ref.r)
               for t, ref in zip(traces, b.traces))
    calls["f"] = 0
    family = dataclasses.replace(
        b.family, potential=dataclasses.replace(b.family.potential, field=counting))
    limit, _ = fv.extract_limit(family)
    assert b.family.count == 6 and calls["f"] == 11
    assert _bits(limit.x) == _bits(b.limit.x)


def test_position_reads_match_four_times_the_substeps(ellipsoid_bundle):
    # flow_steps_for steps position reads at FLOW_COARSE_STEP.  On the
    # shipped ellipsoid, whose nodes sit up to |r| = 0.19 off M, four times
    # the substeps per row must read the same y and feet to rounding
    b = ellipsoid_bundle
    fld = b.chart.field
    X = np.concatenate([traj.x for traj in b.family.members])
    n = flow_steps_for(fld.value_many(X))
    assert n.max() > 8
    _, y_fine, failures = b.chart.coords_many(X, 4 * n)
    assert not failures
    assert np.abs(np.concatenate([t.y for t in b.traces]) - y_fine).max() <= 1e-14
    best = b.family.members[-1]
    feet, failures = foot_many(fld, best.x, 4 * flow_steps_for(fld.value_many(best.x)))
    assert not failures
    assert np.abs(b.limit.x - feet).max() <= 1e-14
