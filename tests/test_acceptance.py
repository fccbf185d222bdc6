"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers next to their tolerances.
"""
import numpy as np
import pytest

import flatvalley as fv
from flatvalley.geometry import flow_many, raise_first
from flatvalley.reporting import revalidate_from_dir

RNG = np.random.default_rng(20240611)

TUBE_BOXES = {
    # name -> (builder, p, v, r_box, y_box, flow_t_box)
    "gutter": (fv.gutter, [0.0, 0.0], [0.0, 1.0], 0.3, 1.5, 0.3),
    "circle": (fv.circle, [1.0, 0.0], [0.0, 1.0], 0.35, 0.6, 0.3),
    "ellipsoid": (fv.ellipsoid, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.3, 0.4, 0.3),
}


def test_criterion_1_gutter_exactness():
    P = fv.gutter()
    traj = fv.integrate_rescaled(P, [0.0, 0.0], [0.0, 1.0], 0.05, 1.0)
    expected = np.stack([np.zeros_like(traj.tau), traj.tau], axis=1)
    sup = float(np.max(np.linalg.norm(traj.x - expected, axis=1)))
    assert sup <= 1e-10
    print(f"PASS 1 gutter exactness: sup error {sup:.2e} <= 1e-10")


def test_criterion_2_confinement_suite(gutter_bundle, circle_bundle, ellipsoid_bundle):
    worst = {"speed": 0.0, "sublevel": 0.0, "ball": 0.0}
    for bundle in (gutter_bundle, circle_bundle, ellipsoid_bundle):
        fam = bundle.family
        vn = float(np.linalg.norm(fam.v))
        for eps, b in zip(fam.epsilons, fam.bounds):
            assert b.speed_ok and b.sublevel_ok and b.ball_ok, (bundle.scenario.name, eps)
            worst["speed"] = max(worst["speed"], b.max_speed / vn)
            worst["sublevel"] = max(worst["sublevel"],
                                    b.max_potential / (0.5 * eps**2 * vn**2))
            worst["ball"] = max(worst["ball"], b.worst_ball_ratio)
    assert worst["speed"] <= 1.0 + 1e-6
    assert worst["sublevel"] <= 1.0 + 1e-6
    assert worst["ball"] <= 1.0 + 1e-6
    print("PASS 2 confinement suite: worst speed ratio "
          f"{worst['speed']:.9f}, sublevel ratio {worst['sublevel']:.9f}, "
          f"ball ratio {worst['ball']:.9f} (all <= 1 + 1e-6)")


def test_criterion_3_energy_drift(gutter_bundle, circle_bundle, ellipsoid_bundle):
    worst = 0.0
    for bundle in (gutter_bundle, circle_bundle, ellipsoid_bundle):
        for rep in bundle.family.energies:
            assert rep.drift <= 1e-8, (bundle.scenario.name, rep.epsilon, rep.drift)
            worst = max(worst, rep.drift)
    # half-step cross-check on the stiffest member: still conservative
    scn = circle_bundle.scenario
    half = fv.IntegratorOptions(step_factor=scn.options.step_factor / 2)
    traj = fv.integrate_rescaled(scn.potential, scn.p, scn.v, scn.eps0, scn.horizon, half)
    half_drift = fv.energy_audit(traj, scn.potential).drift
    assert half_drift <= 1e-8
    print(f"PASS 3 energy audit: worst drift {worst:.2e} <= 1e-8 "
          f"(half-step check {half_drift:.2e})")


def test_criterion_4_flow_and_tube_identities():
    worst_flow = 0.0
    worst_sep = 0.0
    for name, (builder, p, v, r_box, y_box, t_box) in TUBE_BOXES.items():
        P = builder()
        fld = P.field
        chart = fv.build_m_chart(fld, np.array(p, float), np.array(v, float),
                                 delta=2.0 * y_box)
        draws = [(RNG.uniform(-y_box, y_box, size=fld.dim - 1),
                  float(RNG.uniform(-r_box, r_box)),
                  float(RNG.uniform(-t_box, t_box))) for _ in range(1000)]
        y, r, t = (np.array(column) for column in zip(*draws))
        # one batch per map, each row at the step count its flow time needs
        x, failures = chart.tube_many(r, y)
        raise_first(failures)
        end, failures = flow_many(fld, x, t)
        raise_first(failures)
        worst_flow = max(worst_flow, float(np.max(np.abs(fld.f_many(end) - t - fld.f_many(x)))))
        worst_sep = max(worst_sep, float(np.max(np.abs(P.value_many(x) - P.profile.g(r)))))
    assert worst_flow <= 1e-9
    assert worst_sep <= 1e-9
    print(f"PASS 4 flow identity: worst residual {worst_flow:.2e} <= 1e-9; "
          f"tube potential separation {worst_sep:.2e} <= 1e-9 "
          "(1000 random points per gallery field)")


def test_criterion_5_circle_limit(circle_bundle):
    conv, limit = circle_bundle.convergence, circle_bundle.limit
    assert all(conv.monotone), conv.distances
    assert conv.cauchy_ok
    ref = np.stack([np.cos(limit.tau), np.sin(limit.tau)], axis=1)
    sup = float(np.max(np.linalg.norm(limit.x - ref, axis=1)))
    v_err = float(np.linalg.norm(limit.xdot0 - np.array([0.0, 1.0])))
    assert sup <= 1e-2
    assert v_err <= 1e-2
    print(f"PASS 5 circle limit: distances non-increasing "
          f"({', '.join(f'{d:.2e}' for d in conv.distances)}); "
          f"sup distance to (cos, sin) {sup:.2e} <= 1e-2; "
          f"|xdot(0) - (0,1)| {v_err:.2e} <= 1e-2")


def test_criterion_6_instability_certificates(circle_bundle, circle_run_dir,
                                              ellipsoid_bundle, ellipsoid_reference):
    cert = circle_bundle.certificate
    assert cert.verdict == "UNSTABLE"
    r_expected = 2.0 * np.sin(0.5)
    assert abs(cert.escape_radius - r_expected) <= 2e-2
    assert fv.revalidate_certificate(cert, circle_bundle.family, circle_bundle.limit,
                                     circle_bundle.physical_runs)
    file_check = revalidate_from_dir(circle_run_dir.path)
    assert file_check["ok"], file_check

    ecert = ellipsoid_bundle.certificate
    assert ecert.verdict == "UNSTABLE"
    assert ecert.j0 <= 3
    # j0 measured against the brute-force eps = 1e-3 reference limit
    ref = ellipsoid_reference
    c = (len(ref.tau) - 1) // 2
    dist = np.linalg.norm(ref.x[c:] - ellipsoid_bundle.scenario.p, axis=1)
    i_star = int(np.argmax(dist))
    r_ref = float(dist[i_star])
    deltas = [float(np.linalg.norm(m.x[c + i_star] - ref.x[c + i_star]))
              for m in ellipsoid_bundle.family.members]
    j0_ref = next(j for j in range(len(deltas))
                  if all(d < 0.5 * r_ref for d in deltas[j:]))
    assert j0_ref <= 3
    assert fv.revalidate_certificate(ecert, ellipsoid_bundle.family,
                                     ellipsoid_bundle.limit,
                                     ellipsoid_bundle.physical_runs)
    print(f"PASS 6 certificates: circle UNSTABLE, R = {cert.escape_radius:.6f} "
          f"(|R - 2 sin(1/2)| = {abs(cert.escape_radius - r_expected):.2e} <= 2e-2), "
          f"file revalidation ok; ellipsoid UNSTABLE, j0 = {ecert.j0} <= 3 "
          f"(reference j0 = {j0_ref}, R_ref = {r_ref:.4f})")


def test_criterion_7_coordinate_uniformity(circle_bundle):
    fam = circle_bundle.family
    for eps, trace in zip(fam.epsilons, circle_bundle.traces):
        bound = eps / np.sqrt(2.0) * (1.0 + 1e-6)
        assert float(np.abs(trace.r).max()) <= bound, eps
    coords = circle_bundle.coordinates
    assert coords.acceleration_uniform_ok and coords.acceleration_ratio <= 4.0
    sup_r = [float(np.abs(t.r).max()) for t in circle_bundle.traces]
    print(f"PASS 7 coordinate uniformity: sup|r| per member "
          f"({', '.join(f'{s:.2e}' for s in sup_r)}) within eps/sqrt(2); "
          f"acceleration max-by-min ratio {coords.acceleration_ratio:.2f} <= 4")


def test_criterion_8_tangential_residual(circle_bundle):
    # member j = 1 (eps = 0.05) keeps only its nodes: its dense run, at its
    # ceiling, whatever step the family chose, so these numbers do not move
    # with the probe
    scn = circle_bundle.scenario
    ceiling = fv.dynamics.member_substeps(scn.horizon, scn.epsilons, scn.options,
                                          exponent=scn.potential.profile.exponent)[0][1]
    spacing = scn.horizon / ((scn.options.n_out - 1) // 2)
    member = fv.integrate_rescaled(scn.potential, scn.p, scn.v, scn.epsilons[1], scn.horizon,
                                   fv.IntegratorOptions(step_factor=spacing / ceiling
                                                        / scn.epsilons[1]))
    taus = np.linspace(-0.85, 0.85, 20)
    res = fv.residual_convergence(circle_bundle.chart, member, taus)
    assert res["coarse_max"] <= 1e-3
    assert res["shrink_factor"] >= 3.0
    print(f"PASS 8 tangential residual: max {res['coarse_max']:.2e} <= 1e-3 at 20 "
          f"interior samples; shrink factor {res['shrink_factor']:.2f} >= 3 "
          "under step halving")


def test_criterion_9_stability_contrast():
    P = fv.painleve()
    barrier = fv.locate_barrier(P)
    rep = fv.trapped_motion_check(P, barrier, n_traj=10, t_end=1e3)
    assert len(rep.records) == 10
    assert rep.all_trapped
    for r in rep.records:
        assert r.energy < barrier.height
    margin = barrier.x_right - max(r.max_excursion for r in rep.records)
    drift = max(r.energy_drift / rep.gap(r) for r in rep.records)
    print(f"PASS 9 stability contrast: barrier {barrier.height:.3e} at "
          f"|x| = {barrier.x_right:.6f}; 10 sub-barrier motions trapped over "
          f"t in [0, 1e3] (closest approach margin {margin:.3e}, worst energy "
          f"drift/gap {drift:.1e})")
