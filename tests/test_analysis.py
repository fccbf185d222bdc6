import numpy as np
import pytest

import flatvalley as fv
from flatvalley import dynamics
from flatvalley.errors import (
    DegenerateLimitError,
    IndeterminateCertificateError,
    InvalidParameterError,
    ScheduleTooShortError,
    UnverifiedLimitError,
)
from flatvalley.reporting import revalidate_from_dir


def test_gutter_traces_are_straight(gutter_bundle):
    for trace in gutter_bundle.traces:
        assert np.max(np.abs(trace.r)) <= 1e-12
        assert np.max(np.abs(trace.y[:, 0] - trace.tau)) <= 1e-9
        assert np.max(np.abs(trace.ydot - 1.0)) <= 1e-7


def test_zero_velocity_traces_are_constant():
    C = fv.circle()
    fam = dynamics.family_for_gates(C, [1.0, 0.0], [0.0, 0.0], 0.5, [0.1, 0.05, 0.025])
    chart = fv.build_m_chart(C.field, np.array([1.0, 0.0]), None, delta=1.0)
    traces = fv.coordinate_traces(chart, fam)
    for t in traces:
        assert np.max(np.abs(t.r)) == 0.0
        assert np.max(np.abs(t.y)) == 0.0


def test_coordinate_bounds_gutter_equality_pattern(gutter_bundle):
    cb = gutter_bundle.coordinates
    # speed along the floor is exactly |v|: the bound is attained
    assert np.allclose(cb.max_ydot, 1.0, atol=1e-7)
    assert np.allclose(cb.max_rdot, 0.0, atol=1e-10)


def test_acceleration_uniformity_gutter(gutter_bundle):
    coords = gutter_bundle.coordinates
    assert coords.acceleration_bound <= 1e-8
    assert coords.acceleration_ratio is None  # vacuous: accelerations vanish
    assert coords.acceleration_uniform_ok


def test_acceleration_uniformity_single_member(circle_bundle):
    scn = circle_bundle.scenario
    coords, reason = fv.coordinate_report(circle_bundle.traces[:1], scn.potential, scn.v)
    assert coords.acceleration_uniform_ok and reason == ""
    assert coords.acceleration_ratio == pytest.approx(1.0)


def test_extract_limit_gutter(gutter_bundle):
    limit, conv = gutter_bundle.limit, gutter_bundle.convergence
    # members are the same straight line up to roundoff accumulation, which
    # grows with the per-member step count
    assert np.allclose(conv.distances, 0.0, atol=5e-12)
    assert conv.cauchy_ok
    expected = np.stack([np.zeros_like(limit.tau), limit.tau], axis=1)
    assert np.max(np.abs(limit.x - expected)) <= 1e-10
    assert np.allclose(limit.xdot0, [0.0, 1.0], atol=1e-10)


def test_limit_starts_at_p_exactly(circle_bundle):
    limit = circle_bundle.limit
    c = (len(limit.tau) - 1) // 2
    assert np.array_equal(limit.x[c], circle_bundle.scenario.p)
    assert np.max(np.abs(fv.circle().field.value_many(limit.x))) <= 1e-10


def test_limit_needs_three_members():
    C = fv.circle()
    fam = dynamics.family_for_gates(C, [1.0, 0.0], [0.0, 1.0], 0.5, [0.1, 0.05])
    with pytest.raises(InvalidParameterError):
        fv.extract_limit(fam)


def test_degenerate_limit_is_rejected():
    C = fv.circle()
    fam = dynamics.family_for_gates(C, [1.0, 0.0], [0.0, 0.0], 0.5, [0.1, 0.05, 0.025])
    limit, conv = fv.extract_limit(fam, tol_limit=1e-6)
    assert conv.cauchy_ok          # all members sit at p: distances vanish
    assert np.allclose(limit.x, [1.0, 0.0])
    assert np.allclose(limit.xdot0, 0.0)
    runs = fv.physical_evidence_runs(fam, 0.25)
    with pytest.raises(DegenerateLimitError):
        fv.certify_instability(fam, limit, runs)


def test_unverified_limit_blocks_certificate(circle_bundle):
    fam = circle_bundle.family
    limit, conv = fv.extract_limit(fam, tol_limit=1e-12)  # unreachable tolerance
    assert not conv.cauchy_ok
    assert not limit.verified
    with pytest.raises(UnverifiedLimitError):
        fv.certify_instability(fam, limit, circle_bundle.physical_runs)


def test_schedule_too_short_when_limit_is_wrong(circle_bundle):
    fam, real = circle_bundle.family, circle_bundle.limit
    # a reflected fake limit sits ~2R away from every member at tau*
    fake = fv.LimitCurve(
        tau=real.tau, x=2.0 * circle_bundle.scenario.p - real.x,
        xdot0=-real.xdot0, p=real.p, verified=True,
        source_epsilon=real.source_epsilon, initial_velocity_error=0.0)
    with pytest.raises(ScheduleTooShortError):
        fv.certify_instability(fam, fake, circle_bundle.physical_runs)


def test_certificate_contents(circle_bundle):
    cert = circle_bundle.certificate
    assert cert.verdict == "UNSTABLE"
    assert cert.escape_radius > cert.tol_r
    assert cert.threshold == pytest.approx(cert.escape_radius / 2.0)
    assert 0 <= cert.j0 < circle_bundle.family.count
    for row in cert.evidence:
        assert row["displacement"] >= cert.threshold
        eps = row["eps"]
        assert row["initial_speed"] == pytest.approx(eps * 1.0)
        assert row["escape_time"] == pytest.approx(cert.tau_star / eps)
    speeds = [row["initial_speed"] for row in cert.evidence]
    assert np.allclose(np.diff(np.log(speeds)), np.log(0.5), atol=1e-12)


def test_certificate_revalidates(circle_bundle):
    assert fv.revalidate_certificate(
        circle_bundle.certificate, circle_bundle.family, circle_bundle.limit,
        circle_bundle.physical_runs)


def test_revalidate_detects_tampering(circle_bundle):
    cert = circle_bundle.certificate
    tampered = fv.InstabilityCertificate(
        verdict=cert.verdict, escape_radius=cert.escape_radius * 1.01,
        tau_star=cert.tau_star, threshold=cert.threshold, j0=cert.j0,
        epsilons=cert.epsilons, member_distances=cert.member_distances,
        evidence=cert.evidence, tol_r=cert.tol_r, p=cert.p, v=cert.v)
    assert not fv.revalidate_certificate(
        tampered, circle_bundle.family, circle_bundle.limit,
        circle_bundle.physical_runs)


def test_memory_and_file_checks_agree(circle_bundle, circle_run_dir):
    b = circle_bundle
    claims = dict(vars(b.certificate))
    args = (b.limit.tau, b.limit.x, [m.x for m in b.family.members],
            [run.x[-1] for run in b.physical_runs], [e.drift for e in b.family.energies],
            [e.values for e in b.family.energies])
    checks = fv.check_certificate(claims, *args)
    assert all(checks.values())
    # the files also answer for the steps, confinement bounds and coordinate
    # bounds report.json claims, which the in-memory family and traces are
    # the source of, and for every cell they hold being finite
    file_checks = revalidate_from_dir(circle_run_dir.path)["checks"]
    assert file_checks.pop("step_plan") is True
    assert file_checks.pop("bounds") is True
    assert file_checks.pop("coordinates") is True
    assert file_checks.pop("finite") is True
    assert checks == file_checks
    evidence = claims["evidence"]
    # every member from j0 on needs an evidence row
    claims["evidence"] = evidence[1:]
    assert not fv.check_certificate(claims, *args)["evidence"]
    # the evidence displacement is re-derived from the physical runs
    claims["evidence"] = [dict(row, displacement=row["displacement"] * (1 + 1e-9))
                          for row in evidence]
    assert not fv.check_certificate(claims, *args)["evidence"]


def test_physical_runs_must_match_tau_star(circle_bundle):
    fam, limit = circle_bundle.family, circle_bundle.limit
    bad_runs = fv.physical_evidence_runs(fam, circle_bundle.tau_star * 0.9)
    with pytest.raises((InvalidParameterError, IndeterminateCertificateError)):
        fv.certify_instability(fam, limit, bad_runs)


def test_transverse_coordinate_at_least_halves(circle_bundle):
    sup_r = [float(np.abs(t.r).max()) for t in circle_bundle.traces]
    for a, b in zip(sup_r, sup_r[1:]):
        assert b <= 0.5 * a * (1.0 + 1e-6)
    # and the conservation bounds themselves halve exactly with eps
    cb = circle_bundle.coordinates
    assert np.allclose(cb.r_bounds[1:] / cb.r_bounds[:-1], 0.5, atol=1e-12)


def test_initial_velocity_recovery_bound(circle_bundle, ellipsoid_bundle):
    for b in (circle_bundle, ellipsoid_bundle):
        allowed = max(1e-2, 5.0 * float(b.convergence.distances[-1]))
        assert b.limit.initial_velocity_error <= allowed


def test_convergence_report_rates(circle_bundle):
    conv = circle_bundle.convergence
    # measured rates are reported, not asserted; for this family they hover
    # around the eps^2 scaling of the transverse excursion
    assert len(conv.rate_estimates) == len(conv.distances) - 1
    assert np.all(conv.rate_estimates > 1.0)


def test_monotone_check_floor_is_the_rounding_scale(tmp_path, circle_bundle, gutter_bundle,
                                                    ellipsoid_bundle):
    # members of a straight valley differ only by rounding (distances up to
    # 2.5e-12 at |v| = 0.9, growing with the step count), which the monotone
    # check must not read as divergence
    scn = fv.Scenario(fv.gutter(), [0.0, 0.0], [0.0, 0.9], 1.0)
    report = fv.run_pipeline(scn, str(tmp_path), svg=False)
    assert report.verdict == "UNSTABLE", report.reason
    assert all(report.results["convergence"].monotone)
    assert report.results["certificate"].escape_radius == pytest.approx(0.9, abs=1e-9)
    for bundle in (circle_bundle, gutter_bundle, ellipsoid_bundle):
        assert all(bundle.convergence.monotone)
