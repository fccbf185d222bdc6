
import numpy as np
import pytest

import flatvalley as fv
from flatvalley.errors import ChartDomainError, FlowDomainError, InvalidParameterError

RNG = np.random.default_rng(11)


# Analytic tube map for the circle graph chart at p = (1, 0), v = (0, 1):
# psi(y) = (sqrt(1 - y^2), y), and the flow scales the radius so that
# Psi(r, y) = sqrt(1 + r) * psi(y).  Scale factors follow by hand:
def circle_h_r(r, y):
    return 1.0 / (2.0 * np.sqrt(1.0 + r))


def circle_h_y(r, y):
    return np.sqrt(1.0 + r) / np.sqrt(1.0 - y * y)


def test_flow_gutter_is_translation():
    G = fv.gutter().field
    x = np.array([0.2, -3.0])
    out = fv.transversal_flow(G, x, 0.7)
    assert np.allclose(out, [0.9, -3.0], atol=1e-12)


def test_flow_circle_examples():
    C = fv.circle().field
    assert np.array_equal(fv.transversal_flow(C, np.array([1.0, 0.0]), 0.0),
                          [1.0, 0.0])
    out = fv.transversal_flow(C, np.array([1.0, 0.0]), 0.21)
    assert np.linalg.norm(out - np.array([1.1, 0.0])) <= 1e-9


def _flow_identity_residual(fld, x0, t):
    """|f(flow(t, x0)) - t - f(x0)|: the exactness defect of the flow."""
    return abs(fld.value(fv.transversal_flow(fld, x0, t)) - t - fld.value(x0))


def test_flow_identity_residuals():
    G = fv.gutter().field
    assert _flow_identity_residual(G, np.array([0.3, 2.0]), 0.25) <= 1e-12
    C = fv.circle().field
    assert _flow_identity_residual(C, np.array([1.2, 0.1]), 0.3) <= 1e-9
    E = fv.ellipsoid().field
    assert _flow_identity_residual(E, np.array([1.0, 0.0, 0.0]), -0.05) <= 1e-9


def test_flow_refuses_critical_approach():
    # f(x, y) = x^2: flowing down to the zero set hits grad f = 0
    P = fv.custom_polynomial(quadratic=[1.0, 0.0], exponent=2)
    with pytest.raises(FlowDomainError):
        fv.transversal_flow(P.field, np.array([0.1, 0.0]), -0.01)


def test_foot_point():
    C = fv.circle().field
    on_m = np.array([1.0, 0.0])
    assert np.array_equal(fv.foot_point(C, on_m), on_m)
    foot = fv.foot_point(C, np.array([1.1, 0.0]))
    assert np.linalg.norm(foot - np.array([1.0, 0.0])) <= 1e-9
    G = fv.gutter().field
    assert np.allclose(fv.foot_point(G, np.array([0.3, 5.0])), [0.0, 5.0], atol=1e-12)
    assert abs(C.value(fv.foot_point(C, np.array([0.8, 0.4])))) <= 1e-12


def test_chart_axis_aligned_cases():
    E = fv.ellipsoid().field
    chart = fv.build_m_chart(E, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                             delta=0.6)
    assert np.allclose(chart.normal, [1.0, 0.0, 0.0])
    assert np.allclose(chart.basis[0], [0.0, 1.0, 0.0])
    assert np.allclose(chart.basis[1], [0.0, 0.0, 1.0])
    assert np.allclose(chart.w, [1.0, 0.0])
    C = fv.circle().field
    chart2 = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.0)
    assert np.allclose(chart2.basis, [[0.0, 1.0]])
    assert np.allclose(chart2.w, [1.0])
    # chart velocity maps back to the ambient velocity
    assert np.linalg.norm(chart2.w @ chart2.basis - np.array([0.0, 1.0])) <= 1e-10


def test_chart_surface_point():
    E = fv.ellipsoid().field
    chart = fv.build_m_chart(E, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                             delta=0.6)
    q = chart.surface_point(np.array([0.1, 0.0]))
    assert np.allclose(q, [np.sqrt(0.98), 0.1, 0.0], atol=1e-12)
    assert abs(E.value(q)) <= 1e-12
    assert np.array_equal(chart.surface_point(np.zeros(2)), chart.p)
    for _ in range(25):
        y = RNG.uniform(-0.4, 0.4, size=2)
        assert abs(E.value(chart.surface_point(y))) <= 1e-12


def test_chart_rejects_nontangent_velocity():
    E = fv.ellipsoid().field
    with pytest.raises(ChartDomainError):
        fv.build_m_chart(E, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), delta=0.6)


def test_chart_domain_errors():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.05)
    with pytest.raises(ChartDomainError):
        chart.surface_point(np.array([1.1]))   # beyond the chart radius
    with pytest.raises(ChartDomainError):
        chart.surface_point(np.array([1.02]))  # inside delta but off the graph


def test_tubular_coords():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.05)
    rc = chart.coords_of(chart.p)
    assert rc.r == 0.0 and np.allclose(rc.y, 0.0)
    rc = chart.coords_of(np.array([1.1, 0.0]))
    assert rc.r == pytest.approx(0.21, abs=1e-12)
    assert np.allclose(rc.y, 0.0, atol=1e-10)
    y0 = np.array([0.4])
    rc = chart.coords_of(chart.surface_point(y0))
    assert abs(rc.r) <= 1e-12
    assert np.allclose(rc.y, y0, atol=1e-9)
    assert np.array_equal(chart.coords_of(chart.p).y, rc.y * 0.0)


@pytest.mark.parametrize("builder,p,v,r_box,y_box", [
    (fv.gutter, [0.0, 0.0], [0.0, 1.0], 0.3, 2.0),
    (fv.circle, [1.0, 0.0], [0.0, 1.0], 0.4, 0.6),
    (fv.ellipsoid, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.3, 0.4),
])
def test_tube_roundtrip(builder, p, v, r_box, y_box):
    P = builder()
    chart = fv.build_m_chart(P.field, np.array(p, dtype=float),
                             np.array(v, dtype=float), delta=2.0 * y_box)
    for _ in range(40):
        y = RNG.uniform(-y_box, y_box, size=P.dim - 1)
        r = float(RNG.uniform(-r_box, r_box))
        x = chart.tube_point(r, y)
        rc = chart.coords_of(x)
        back = chart.tube_point(rc.r, rc.y)
        assert np.linalg.norm(back - x) <= 1e-8
        assert abs(rc.r - r) <= 1e-9
        assert np.linalg.norm(rc.y - y) <= 1e-8


def test_tube_point_at_zero_is_surface_point():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.0)
    y = np.array([0.35])
    assert np.array_equal(chart.tube_point(0.0, y), chart.surface_point(y))


def test_frame_gutter_identity():
    G = fv.gutter().field
    chart = fv.build_m_chart(G, np.array([0.0, 0.0]), np.array([0.0, 1.0]), delta=3.0)
    fr = fv.frame_data(chart, fv.TubularCoords(0.0, np.array([0.0])))
    assert fr.h_r == pytest.approx(1.0, abs=1e-8)
    assert fr.h_tan[0] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(fr.e_r, [1.0, 0.0], atol=1e-8)
    assert np.allclose(fr.e_tan[0], [0.0, 1.0], atol=1e-8)
    assert np.allclose(fr.d2psi_tan, 0.0, atol=1e-6)
    assert np.allclose(fr.de_r_dr, 0.0, atol=1e-6)


def test_frame_circle_against_analytic_chart():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.0)
    fr = fv.frame_data(chart, fv.TubularCoords(0.0, np.array([0.0])))
    assert np.allclose(fr.e_r, [1.0, 0.0], atol=1e-6)
    assert np.allclose(fr.e_tan[0], [0.0, 1.0], atol=1e-6)
    r, y = 0.21, 0.3
    fr = fv.frame_data(chart, fv.TubularCoords(r, np.array([y])))
    assert fr.h_r == pytest.approx(circle_h_r(r, y), rel=1e-5)
    assert fr.h_tan[0] == pytest.approx(circle_h_y(r, y), rel=1e-5)
    point = np.sqrt(1.0 + r) * np.array([np.sqrt(1 - y * y), y])
    assert np.allclose(fr.e_r, point / np.linalg.norm(point), atol=1e-5)


def test_frame_duality(circle_bundle):
    chart = circle_bundle.chart
    for rc in (fv.TubularCoords(0.0, np.array([0.2])),
               fv.TubularCoords(0.1, np.array([-0.5]))):
        fr = fv.frame_data(chart, rc)
        frame = np.vstack([fr.e_r[None, :], fr.e_tan])
        duals = np.vstack([fr.dual_r[None, :], fr.dual_tan])
        assert np.allclose(duals @ frame.T, np.eye(2), atol=1e-8)


def test_metric_min_gutter_is_one():
    G = fv.gutter().field
    chart = fv.build_m_chart(G, np.array([0.0, 0.0]), np.array([0.0, 1.0]), delta=3.0)
    m = fv.pullback_metric_min(chart, r_range=(-0.2, 0.2), y_box=2.0, n_grid=5)
    assert m.value == pytest.approx(1.0, abs=1e-8)


def test_metric_min_circle_ball():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.05)
    # the box of the ball of radius 0.3 about p: r = |x|^2 - 1 spans
    # [0.7^2 - 1, 1.3^2 - 1], and |y| <= 0.3
    m = fv.pullback_metric_min(chart, r_range=(0.7**2 - 1.0, 1.3**2 - 1.0), y_box=0.3,
                               n_grid=9)
    # the radial scale factor 1/(2 sqrt(1+r)) dominates at the outer edge
    # of the ball, where r = 1.3^2 - 1: the minimum is 1/(4 * 1.69)
    assert 0.0 < m.value <= 1.0
    assert m.value == pytest.approx(1.0 / (4.0 * 1.69), abs=2e-3)
    assert m.argmin_r == pytest.approx(0.69, abs=1e-6)


def test_metric_min_shrinking_region_reaches_center_value():
    C = fv.circle().field
    chart = fv.build_m_chart(C, np.array([1.0, 0.0]), np.array([0.0, 1.0]), delta=1.05)
    m = fv.pullback_metric_min(chart, r_range=(-1e-6, 1e-6), y_box=1e-6, n_grid=3)
    # at the centre the Jacobian columns are grad f/|grad f|^2 and the unit
    # tangent: eigenvalues 1/4 and 1 for this field
    assert m.value == pytest.approx(0.25, abs=1e-3)


def _dense_member(bundle, j):
    """A dense run at member j's eps and the scenario's horizon and options.

    Family members keep only their nodes, and member j's step is chosen from
    its gates, so this run's nodes are not member j's."""
    scn = bundle.scenario
    return fv.integrate_rescaled(scn.potential, scn.p, scn.v, scn.epsilons[j], scn.horizon,
                                 scn.options)


def test_residual_gutter_trace_is_flat(gutter_bundle):
    res = fv.curvilinear_residual(gutter_bundle.chart, _dense_member(gutter_bundle, 2),
                                  np.linspace(-0.8, 0.8, 5), trace_step=0.05)
    assert np.max(np.abs(res)) <= 1e-10


def test_residual_zero_velocity_trace():
    C = fv.circle()
    chart = fv.build_m_chart(C.field, np.array([1.0, 0.0]), None, delta=1.0)
    still = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 0.0], 0.05, 1.0)
    res = fv.curvilinear_residual(chart, still, np.array([0.0, 0.3]), trace_step=0.02)
    assert np.max(np.abs(res)) <= 1e-12


def test_off_grid_samples_read_the_whole_step_stencil(circle_bundle):
    traj = _dense_member(circle_bundle, 1)
    taus = traj.tau_int[[101, 555, 1203]]  # internal steps, not all of them nodes
    on = fv.curvilinear_residual(circle_bundle.chart, traj, taus, trace_step=2 * traj.dt)
    off = fv.curvilinear_residual(circle_bundle.chart, traj, taus + 0.3 * traj.dt,
                                  trace_step=2.4 * traj.dt)
    assert np.max(np.abs(on)) > 0 and on.tobytes() == off.tobytes()


def test_residual_rejects_boundary_samples(circle_bundle):
    with pytest.raises(ChartDomainError):
        fv.curvilinear_residual(circle_bundle.chart, circle_bundle.family.members[1],
                                np.array([1.0]), trace_step=0.01)


def test_residual_of_a_member_names_the_dense_run(circle_bundle):
    with pytest.raises(InvalidParameterError, match="integrate_rescaled"):
        fv.curvilinear_residual(circle_bundle.chart, circle_bundle.family.members[1],
                                np.array([0.1]))
