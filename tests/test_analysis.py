import dataclasses

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
        xdot0=-real.xdot0, verified=True)
    with pytest.raises(ScheduleTooShortError):
        fv.certify_instability(fam, fake, circle_bundle.physical_runs)


def test_certificate_contents(circle_bundle):
    cert = circle_bundle.certificate
    assert cert.verdict == "UNSTABLE"
    assert cert.escape_radius > cert.tol_r
    assert cert.threshold == pytest.approx(cert.escape_radius / 2.0)
    assert 0 <= cert.j0 < circle_bundle.family.count
    assert [row["j"] for row in cert.evidence] == list(range(cert.j0, 6))
    # run j starts at speed eps_j |v| and ends at tau*/eps_j, R/2 or more from p
    for row in cert.evidence:
        assert row["displacement"] >= cert.threshold
        run, eps = circle_bundle.physical_runs[row["j"]], circle_bundle.family.epsilons[row["j"]]
        assert np.linalg.norm(run.v[0]) == pytest.approx(eps * 1.0)
        assert run.tau[-1] == pytest.approx(cert.tau_star / eps)
    speeds = [np.linalg.norm(run.v[0]) for run in circle_bundle.physical_runs]
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
        member_distances=cert.member_distances, evidence=cert.evidence, tol_r=cert.tol_r)
    assert not fv.revalidate_certificate(
        tampered, circle_bundle.family, circle_bundle.limit,
        circle_bundle.physical_runs)


def test_memory_and_file_checks_agree(circle_bundle, circle_run_dir):
    b = circle_bundle
    claims = dict(vars(b.certificate))
    args = (b.scenario.p, b.scenario.v, b.limit.tau, b.limit.x,
            [m.x for m in b.family.members], [run.x[-1] for run in b.physical_runs])
    checks = fv.check_certificate(claims, *args)
    assert all(checks.values())
    # the files also answer for the scenario, steps, confinement bounds,
    # energy drifts, launch, limit, coordinate bounds and convergence
    # report.json claims, which the in-memory scenario, family, limit and
    # traces are the source of, and for every cell they hold being finite
    file_checks = revalidate_from_dir(circle_run_dir.path)["checks"]
    for name in ("scenario", "step_plan", "bounds", "energy_drift", "launch", "limit",
                 "coordinates", "convergence", "finite"):
        assert file_checks.pop(name) is True, name
    assert checks == file_checks
    evidence = claims["evidence"]
    # every member from j0 on needs an evidence row
    claims["evidence"] = evidence[1:]
    assert not fv.check_certificate(claims, *args)["evidence"]
    # the evidence displacement is re-derived from the physical runs
    claims["evidence"] = [dict(row, displacement=row["displacement"] * (1 + 1e-9))
                          for row in evidence]
    assert not fv.check_certificate(claims, *args)["evidence"]


def test_check_certificate_rederives_the_noise_ball(circle_bundle):
    b = circle_bundle
    claims, p, v = dict(vars(b.certificate)), b.scenario.p, b.scenario.v
    args = (b.limit.tau, b.limit.x, [m.x for m in b.family.members],
            [run.x[-1] for run in b.physical_runs])
    assert fv.check_certificate(claims, p, v, *args)["tol_r"]
    for factor in (0.5, 1.5):
        tampered = dict(claims, tol_r=claims["tol_r"] * factor)
        assert not fv.check_certificate(tampered, p, v, *args)["tol_r"]
    # at twice the speed that puts R on the noise ball, a claim restating the
    # ball still fails: the limit shows no escape, so no certificate is rebuilt
    # and every field fails
    fast = v * 2.0 * claims["escape_radius"] / claims["tol_r"]
    ball = fv.analysis.noise_ball(b.limit.tau, fast)
    checks = fv.check_certificate(dict(claims, tol_r=ball), p, fast, *args)
    assert ball > claims["escape_radius"]
    assert [name for name, ok in checks.items() if ok] == []


def test_physical_runs_must_match_tau_star(circle_bundle):
    fam, limit = circle_bundle.family, circle_bundle.limit
    bad_runs = fv.physical_evidence_runs(fam, circle_bundle.tau_star * 0.9)
    with pytest.raises((InvalidParameterError, IndeterminateCertificateError)):
        fv.certify_instability(fam, limit, bad_runs)


def test_a_physical_run_one_ulp_off_its_end_time_is_refused(circle_bundle):
    # each run must end at i (T/eps_j/half), the time it computes at its
    # node i and the time file revalidation requires of evidence.csv, bit
    # for bit, and tau* must be the grid's node i T/half bit for bit
    fam, limit, runs = circle_bundle.family, circle_bundle.limit, circle_bundle.physical_runs
    tau = runs[-1].tau.copy()
    tau[-1] = np.nextafter(tau[-1], np.inf)
    off = runs[:-1] + [dataclasses.replace(runs[-1], tau=tau)]
    with pytest.raises(InvalidParameterError, match="physical run j=5 ends at"):
        fv.certify_instability(fam, limit, off)
    with pytest.raises(InvalidParameterError, match="not a positive node"):
        fv.physical_evidence_runs(fam, np.nextafter(circle_bundle.tau_star, 0.0))


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
        assert b.convergence.initial_velocity_error <= allowed


def test_convergence_report_rates(circle_bundle):
    conv = circle_bundle.convergence
    # measured rates are reported, not asserted; for this family they hover
    # around the eps^2 scaling of the transverse excursion
    assert len(conv.rate_estimates) == len(conv.distances) - 1
    assert all(rate > 1.0 for rate in conv.rate_estimates)


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
