import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import dynamics
from flatvalley.dynamics import MAX_MEMBERS, MAX_STEPS
from flatvalley.errors import BlowUpError, InvalidParameterError, ScenarioError
from flatvalley.reporting import revalidate_from_dir

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def free_potential(dim=2):
    return fv.PlainPotential(dim=dim, u=lambda x: 0.0, grad_u=np.zeros_like,
                             u_many=lambda X: np.zeros(len(X)), label="free")


def test_gutter_rescaled_is_exact():
    P = fv.gutter()
    traj = fv.integrate_rescaled(P, [0.0, 0.0], [0.0, 1.0], 0.05, 1.0)
    expected = np.stack([np.zeros_like(traj.tau), traj.tau], axis=1)
    assert np.max(np.linalg.norm(traj.x - expected, axis=1)) <= 1e-10
    assert np.all(traj.x[:, 0] == 0.0)


def test_gutter_physical_long_run():
    P = fv.gutter()
    traj = fv.integrate_newton(P, fv.PhaseState([0.0, 0.0], [0.0, 0.01]), 100.0)
    assert np.linalg.norm(traj.x[-1] - np.array([0.0, 1.0])) <= 1e-12
    expected = np.stack([np.zeros_like(traj.tau), 0.01 * traj.tau], axis=1)
    assert np.max(np.abs(traj.x - expected)) <= 1e-12


def test_free_potential_straight_line():
    P = free_potential()
    s0 = fv.PhaseState([0.3, -0.2], [1.0, 2.0])
    traj = fv.integrate_newton(P, s0, 5.0)
    expected = s0.x + traj.tau[:, None] * s0.v
    assert np.max(np.abs(traj.x - expected)) <= 1e-12


def test_circle_physical_conserves_angular_momentum():
    C = fv.circle()
    traj = fv.integrate_newton(C, fv.PhaseState([1.0, 0.0], [0.0, 0.05]), 20.0)
    L = traj.x_int[:, 0] * traj.v_int[:, 1] - traj.x_int[:, 1] * traj.v_int[:, 0]
    assert np.max(np.abs(L - 0.05)) <= 1e-8


def test_zero_velocity_stays_at_equilibrium():
    C = fv.circle()
    traj = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 0.0], 0.05, 1.0)
    assert np.all(traj.x == np.array([1.0, 0.0]))
    assert np.all(traj.v == 0.0)


def test_rescale_gutter():
    P = fv.gutter()
    eps = 0.05
    phys = fv.integrate_newton(P, fv.PhaseState([0.0, 0.0], [0.0, eps]), 1.0 / eps)
    tau = eps * phys.tau  # the physical run read in rescaled time
    expected = np.stack([np.zeros_like(tau), tau], axis=1)
    assert np.max(np.abs(phys.x - expected)) <= 1e-10


def test_two_route_consistency():
    C = fv.circle()
    p, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    eps, T = 0.1, 1.0
    opts = fv.IntegratorOptions()
    phys = fv.integrate_newton(C, fv.PhaseState(p, eps * v), T / eps, opts)
    direct = fv.integrate_rescaled(C, p, v, eps, T, opts)
    c = (len(direct.tau) - 1) // 2
    # physical node i sits at tau = eps t = T i / 400: the even ones are the
    # rescaled run's forward nodes
    assert np.allclose(eps * phys.tau[::2], direct.tau[c:], rtol=1e-12, atol=0.0)
    sup = 0.0
    for i in range(0, len(phys.tau), 2):
        sup = max(sup, float(np.linalg.norm(phys.x[i] - direct.x[c + i // 2])))
    # the bound: twice the run's change when its substeps per output interval double
    fine = fv.integrate_rescaled(C, p, v, eps, T, fv.IntegratorOptions(step_factor=0.005))
    assert fine.steps == 2 * direct.steps
    tol = 2.0 * float(np.max(np.linalg.norm(direct.x - fine.x, axis=1)))
    assert sup <= max(tol, 1e-12)


def test_time_symmetry():
    C = fv.circle()
    fwd = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0)
    bwd = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, -1.0], 0.1, 1.0)
    # reflecting tau maps one run onto the other exactly (same stepper path)
    assert np.array_equal(bwd.x[::-1], fwd.x)
    assert np.array_equal(bwd.v[::-1], -fwd.v)


def test_energy_audit_basics():
    C = fv.circle()
    traj = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.05, 1.0)
    audit = fv.energy_audit(traj, C)
    assert audit.h0 == pytest.approx(0.5, abs=1e-15)   # U(p) = 0
    assert audit.drift <= 1e-8
    still = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 0.0], 0.05, 1.0)
    audit0 = fv.energy_audit(still, C)
    assert audit0.h0 == 0.0
    assert audit0.drift == 0.0


def test_confinement_bounds_and_negative_control():
    C = fv.circle()
    v = np.array([0.0, 1.0])
    traj = fv.integrate_rescaled(C, [1.0, 0.0], v, 0.05, 1.0)
    check = fv.confinement_check(traj, C, v)
    assert check.passed
    assert check.max_potential <= 0.5 * 0.05**2 * (1 + 1e-6)
    corrupted = fv.Trajectory(
        kind=traj.kind, epsilon=traj.epsilon, tau=traj.tau, x=traj.x,
        v=2.0 * traj.v, dt=traj.dt, tau_int=traj.tau_int, x_int=traj.x_int,
        v_int=2.0 * traj.v_int)
    bad = fv.confinement_check(corrupted, C, v)
    assert not bad.speed_ok
    assert not bad.passed


def test_family_single_member_passthrough():
    C = fv.circle()
    fam = dynamics.family_for_gates(C, [1.0, 0.0], [0.0, 1.0], 0.5, [0.1])
    member = fam.members[0]
    direct = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 0.5,
                                   fv.IntegratorOptions(step_factor=member.dt / 0.1))
    assert fam.count == 1
    assert np.array_equal(member.x, direct.x)


def test_family_gutter_members_identical(gutter_bundle):
    # every member traces the same straight curve; members differ only in
    # internal step, so agreement is at roundoff-accumulation level
    fam = gutter_bundle.family
    for m in fam.members[1:]:
        assert np.max(np.linalg.norm(m.x - fam.members[0].x, axis=1)) <= 1e-11


def test_family_nested_sublevel_bounds(circle_bundle):
    fam = circle_bundle.family
    for eps, b in zip(fam.epsilons, fam.bounds):
        assert b.max_potential <= 0.5 * eps**2 * (1 + 1e-6)
        assert b.passed


def test_family_abort_reports_member(monkeypatch):
    # along the gutter floor x(tau) = p + tau v, every member's forward half
    # leaves the box of radius 1.3 near y = 1.54
    monkeypatch.setattr(dynamics, "BLOWUP_RADIUS", 1.3)
    with pytest.raises(BlowUpError) as info:
        dynamics.family_for_gates(fv.gutter(), [0.0, 1.0], [0.0, 1.0], 1.0, [0.1, 0.05])
    assert "j=0" in str(info.value)


def test_backward_blowup_reports_backward_state(monkeypatch):
    # along the gutter floor x(tau) = p + tau v; a blow-up radius of 1.3
    # lets the forward half run to (0, 0) and stops the backward half near
    # y = -1.54, where the true velocity is still v, not -v
    p, v = np.array([0.0, -1.0]), np.array([0.0, 1.0])
    monkeypatch.setattr(dynamics, "BLOWUP_RADIUS", 1.3)
    with pytest.raises(BlowUpError, match="backward") as info:
        fv.integrate_rescaled(fv.gutter(), p, v, 0.1, 1.0)
    exc = info.value
    assert -1.0 < exc.last_time < 0.0
    x, xdot = exc.last_state
    assert np.allclose(xdot, v, atol=1e-12)
    assert np.allclose(x, p + exc.last_time * v, atol=1e-12)


def test_step_count_cap_fails_before_allocating():
    C = fv.circle()
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 1e308)
    # finite and just past the cap: 200 intervals of 5006 steps
    assert MAX_STEPS < 200 * 5006
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0,
                              fv.IntegratorOptions(step_factor=0.999e-5))
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        fv.integrate_newton(C, fv.PhaseState([1.0, 0.0], [0.0, 0.1]), 1e308)
    # a family fails on its finest member before running any member
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        dynamics.family_for_gates(C, [1.0, 0.0], [0.0, 1.0], 1.0, [0.1, 1e-6])


#: the shipped fields at other profile exponents than their scenarios'
#: (the circle's k = 2 and the ellipsoid's k = 4)
FIELDS = {"circle": fv.circle, "ellipsoid": lambda k: fv.ellipsoid(exponent=k)}
EXPONENT_SWEEP = pytest.mark.parametrize("name, exponent", [
    ("circle", None), ("gutter", None), ("ellipsoid", None),
    ("ellipsoid", 6), ("ellipsoid", 8), ("circle", 4), ("circle", 8),
], ids=["circle", "gutter", "ellipsoid", "ellipsoid-k6", "ellipsoid-k8", "circle-k4",
        "circle-k8"])


def _scenario(name, exponent=None, overrides=None):
    """A shipped scenario, its field at profile exponent ``exponent`` when given."""
    scn = fv.parse_scenario(str(SCENARIOS / f"{name}.json"), overrides)
    return scn if exponent is None else dataclasses.replace(scn,
                                                            potential=FIELDS[name](exponent))


def _member_substeps(scn):
    return dynamics.member_substeps(scn.horizon, scn.epsilons, scn.options,
                                    exponent=scn.potential.profile.exponent)


def _rho_law(scn):
    """The rho-law probe, from its formula: member j, rho = eps_0/eps_j, at
    ceil(max(rho^(1/k), rho^(2/k)/GROWTH)) substeps, k the profile
    exponent, at most its ceiling."""
    k, half = scn.potential.profile.exponent, (scn.options.n_out - 1) // 2
    spacing = scn.horizon / half
    rhos = [scn.epsilons[0] / eps for eps in scn.epsilons]
    return [min(c, dynamics._snap_step(
                spacing, spacing / max(rho ** (1 / k), rho ** (2 / k) / dynamics.GROWTH),
                half)[0])
            for c, rho in zip(_member_substeps(scn)[0], rhos)]


@pytest.mark.parametrize("name, ceilings, probe, iterations", [
    ("circle", [5, 8, 10, 15, 20, 29], [5, 6, 6, 6, 6, 6], 1200),
    ("ellipsoid", [3, 5, 6, 9, 12, 17], [3, 3, 3, 3, 3, 3], 600),
], ids=["circle", "ellipsoid"])
def test_member_substeps_on_the_shipped_scenarios(name, ceilings, probe, iterations):
    # the ceilings, member j at dt_0 sqrt(eps_j / eps_0), would take 5,800
    # lockstep iterations on the circle and 3,400 on the ellipsoid.  The
    # rho law, growing like rho^(1/k), rho = eps_0/eps_j, asks 1, 2, 2, 3,
    # 4, 6 substeps on the circle (k = 2) and 1, 2, 2, 2, 2, 3 on the
    # ellipsoid (k = 4); every member probes at its call's longest row, 6
    # and 3, member 0 of the circle at its ceiling of 5.  Every member keeps
    # its probe: one call of 1,200 and of 600 iterations
    scn = _scenario(name)
    member_ceilings, member_probe = _member_substeps(scn)
    half = (scn.options.n_out - 1) // 2
    assert member_ceilings == ceilings
    assert half * max(ceilings) == {"circle": 5800, "ellipsoid": 3400}[name]
    assert member_probe == probe
    fam = fv.run_family(scn)
    assert fam.substeps == probe
    assert fam.plan.ceilings == ceilings and fam.plan.probe == probe
    assert fam.plan.iterations == iterations
    assert [m.dt for m in fam.members] == [scn.horizon / half / m for m in probe]


@pytest.mark.parametrize("count", [6, 10])
def test_the_probe_follows_the_profile_exponent(count):
    # at k = 2 the rho law is the ceilings' rule from one substep, member j
    # at sqrt(eps_0/eps_j) times member 0's one step, its factor at most
    # GROWTH times member 0's; at k = 4 it grows like (eps_0/eps_j)^(1/4).
    # Its longest row M fixes the probe call, and each member probes at
    # min(ceiling, M)
    circle = _scenario("circle", overrides={"count": count})
    ellipsoid = _scenario("ellipsoid", overrides={"count": count})
    opts, half = circle.options, (circle.options.n_out - 1) // 2
    spacing = circle.horizon / half
    factors = dynamics.member_step_factors(
        circle.horizon, circle.epsilons,
        dataclasses.replace(opts, step_factor=spacing / circle.epsilons[0]))
    ceilings = _member_substeps(circle)[0]
    assert _rho_law(circle) == [min(c, dynamics._snap_step(spacing, f * eps, half)[0])
                                for c, f, eps in zip(ceilings, factors, circle.epsilons)]
    assert _rho_law(circle) == [1, 2, 2, 3, 4, 6, 8, 16, 32, 64][:count]  # GROWTH caps from 6
    assert _rho_law(ellipsoid) == [1, 2, 2, 2, 2, 3, 3, 4, 4, 5][:count]
    for scn in (circle, ellipsoid):
        ceilings, probe = _member_substeps(scn)
        assert probe == [min(c, dynamics.longest_row(_rho_law(scn))) for c in ceilings]
    if count == 10:
        assert fv.run_family(ellipsoid).plan.iterations == 1000


def _spied_family(monkeypatch, scn):
    """The scenario's family and its lockstep calls, each (rows, steps)."""
    real, calls = dynamics.integrate, []

    def spy(accel, x0, v0, dt, n_steps, **kwargs):
        calls.append((len(x0), n_steps))
        return real(accel, x0, v0, dt, n_steps, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", spy)
    return fv.run_family(scn), calls


@EXPONENT_SWEEP
@pytest.mark.parametrize("count", [6, 10])
def test_the_lifted_probe_costs_no_iteration(monkeypatch, name, exponent, count):
    # the probe call's longest row is the rho law's, M: lifting every
    # member to min(ceiling, M) substeps adds rows of no more steps, as a
    # physical run takes at most its member's substeps from 2 on
    scn = _scenario(name, exponent, {"count": count})
    ceilings, probe = _member_substeps(scn)
    longest = dynamics.longest_row(_rho_law(scn))
    assert probe == [min(c, longest) for c in ceilings]
    assert dynamics.longest_row(probe) == longest
    fam, calls = _spied_family(monkeypatch, scn)
    assert fam.plan.probe == probe
    assert calls[0] == (3 * count, (scn.options.n_out - 1) // 2 * longest)


def test_the_count_10_circle_probes_in_one_call(monkeypatch):
    # at the rho law's 8, 16 and 32 substeps, members 6 to 8 re-ran in a
    # second call of 7,000 iterations and still read step errors of 3.8e-8
    # to 5.3e-8, over their 2.8e-8 target.  At the probe call's longest row
    # of 64 they read at most 1.2e-8, so every member keeps its probe
    scn = _scenario("circle", overrides={"count": 10})
    fam, calls = _spied_family(monkeypatch, scn)
    assert calls == [(30, 12800)] and fam.plan.iterations == 12800
    assert fam.substeps == fam.plan.probe == [5, 8, 10, 15, 20, 29, 40, 64, 64, 64]
    step_limit = dynamics.STEP_ERROR_FRACTION * dynamics.limit_tolerance(
        scn.potential, scn.p, scn.v, scn.epsilons)
    assert max(fam.plan.probe_step_errors) <= dynamics.PROBE_FRACTION * step_limit
    assert max(fam.plan.probe_drifts) <= dynamics.PROBE_FRACTION * dynamics.ENERGY_DRIFT_LIMIT
    assert all(fam.plan.probe_confined)


@pytest.mark.parametrize("name, calls", [
    ("circle", 4800), ("ellipsoid", 2400), ("gutter", 2400),
], ids=["circle", "ellipsoid", "gutter"])
def test_a_family_makes_four_force_calls_per_lockstep_iteration(name, calls):
    # one PEFRL step makes four force calls, each one grad_many batch: the
    # 1,200 / 600 / 600 lockstep iterations of the shipped families, each
    # one probe call
    scn = fv.parse_scenario(str(SCENARIOS / f"{name}.json"))
    P = scn.potential
    grad_many, counted = P.field.grad_many, []

    def counting(X):
        counted.append(len(X))
        return grad_many(X)

    Q = dataclasses.replace(P, field=dataclasses.replace(P.field, grad_many=counting))
    fam = dynamics.family_for_gates(Q, scn.p, scn.v, scn.horizon, scn.epsilons, scn.options)
    assert len(counted) == calls == 4 * fam.plan.iterations


@EXPONENT_SWEEP
def test_chosen_substeps_stay_within_their_ceilings(name, exponent):
    scn = _scenario(name, exponent)
    fam = fv.run_family(scn)
    assert all(p <= m <= c for p, m, c in zip(fam.plan.probe, fam.substeps, fam.plan.ceilings))
    # the n_out = 201 grid at factor 3.0 clips every probe to its ceiling
    # at k = 2, where the probe is the ceilings' rule; at k >= 4 the probe
    # grows more slowly and stays at or below them
    scn = _scenario(name, exponent, {"n_out": 201, "step_factor": 3.0})
    fam = fv.run_family(scn)
    if scn.potential.profile.exponent == 2:
        assert fam.substeps == fam.plan.ceilings == fam.plan.probe
    else:
        assert all(p <= c for p, c in zip(fam.plan.probe, fam.plan.ceilings))
        assert fam.plan.probe != fam.plan.ceilings


@EXPONENT_SWEEP
def test_step_error_reads_at_least_the_true_error(name, exponent):
    # each member's true error is its sup node distance from the same
    # member run at four times its substeps: the chosen steps keep it under
    # PROBE_FRACTION of the step-error gate, and the recorded step error,
    # against a reference at about half the substeps (twice them when
    # m_j = 1), reads at least 0.9 of it.  The gutter's members move in a
    # straight line, and their distances are rounding: below the rounding
    # floor of extract_limit's monotone check there is no error to read.
    scn = _scenario(name, exponent)
    fam = fv.run_family(scn)
    step_limit = dynamics.STEP_ERROR_FRACTION * dynamics.limit_tolerance(
        scn.potential, scn.p, scn.v, scn.epsilons)
    for j, (eps, member) in enumerate(zip(scn.epsilons, fam.members)):
        fine = fv.integrate_rescaled(scn.potential, scn.p, scn.v, eps, scn.horizon,
                                     dataclasses.replace(scn.options,
                                                         step_factor=member.dt / 4 / eps))
        assert fine.dt == member.dt / 4
        true = float(np.max(np.linalg.norm(fine.x - member.x, axis=1)))
        floor = np.finfo(float).eps * fine.steps * float(np.abs(fine.x).max())
        assert true <= dynamics.PROBE_FRACTION * step_limit, (j, true)
        assert fam.step_errors[j] >= 0.9 * true or true <= floor, (j, fam.step_errors[j], true)


def test_a_rerun_member_that_fails_a_gate_falls_back_to_its_ceiling(monkeypatch, tmp_path):
    # the ellipsoid at n_out = 101 probes every member at 3 substeps and
    # re-runs all six at 4, 4, 5, 5, 6, 7 in a second call; make member 2's
    # physical run there (row 12 + 2) blow up, so its re-run fails its
    # step-error gate: a third call runs member 2 alone at its ceiling of
    # 20, and the files revalidate with member 2 read as a fallback
    real, calls = dynamics.integrate, []

    def integrate(accel, x0, v0, dt, n_steps, **kwargs):
        calls.append((len(x0), n_steps))
        Xs, Vs, failures = real(accel, x0, v0, dt, n_steps, **kwargs)
        if len(calls) == 2:
            failures[14] = BlowUpError("state left the finite box", last_time=0.0,
                                       last_state=(Xs[14][0], Vs[14][0]))
        return Xs, Vs, failures

    monkeypatch.setattr(dynamics, "integrate", integrate)
    scn = fv.parse_scenario(str(SCENARIOS / "ellipsoid.json"), {"n_out": 101})
    report = fv.run_pipeline(scn, str(tmp_path), svg=False)
    assert report.verdict == "UNSTABLE", report.reason
    fam = report.results["family"]
    assert calls[:3] == [(18, 150), (18, 350), (3, 1000)]
    assert fam.plan.probe == [3] * 6 and fam.plan.ceilings == [10, 15, 20, 29, 40, 57]
    assert fam.substeps == [4, 4, 20, 5, 6, 7] and fam.plan.iterations == 1500
    assert not any(dynamics.member_failures(fam)) and not fam.physical_errors
    assert revalidate_from_dir(str(tmp_path))["ok"]


def test_member_step_factors_keep_member_0_and_cap_the_growth():
    opts = fv.IntegratorOptions(step_factor=0.03)
    factors = dynamics.member_step_factors(1.0, [0.1, 0.05, 0.025, 1e-5], opts)
    # member 0 keeps its factor; its step snaps to 0.005 / 2
    assert factors[0] == 0.03
    base = 0.0025 / 0.1
    assert factors[1:3] == pytest.approx([base * 2 ** 0.5, base * 2.0], rel=1e-15)
    assert factors[3] == dynamics.GROWTH * base  # sqrt(1e4) = 100 is capped at 8
    for bad in ([0.1, 0.0], [0.1, -0.05]):
        with pytest.raises(InvalidParameterError, match="eps must be positive"):
            dynamics.member_step_factors(1.0, bad, opts)


def test_dense_run_peaks_near_what_it_keeps():
    # both halves of a dense run are written into one array as they are
    # made, so the run never holds its halves and their join at once (a
    # join peaked at 1.7 times the kept states)
    C = fv.circle()
    fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 0.25)  # lazy set-up, untraced
    tracemalloc.start()
    try:
        traj = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.01, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (traj.tau_int, traj.x_int, traj.v_int, traj.tau, traj.x, traj.v))
    assert len(traj.tau_int) == 5201
    assert peak <= 1.25 * kept


def test_output_nodes_are_internal_nodes():
    C = fv.circle()
    traj = fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, 1.0)
    assert np.all(np.diff(traj.tau) > 0)
    assert np.all(np.diff(traj.tau_int) > 0)
    m = (len(traj.tau_int) - 1) // (len(traj.tau) - 1)
    assert np.array_equal(traj.x, traj.x_int[::m])
    assert np.array_equal(traj.v, traj.v_int[::m])
    assert traj.dt <= 0.01 * 0.1 + 1e-15


def test_scenario_validation():
    C = fv.circle()
    fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0)  # valid
    with pytest.raises(ScenarioError):
        fv.Scenario(C, [1.1, 0.0], [0.0, 1.0], 1.0)          # off the floor
    with pytest.raises(ScenarioError):
        fv.Scenario(C, [1.0, 0.0], [1.0, 0.0], 1.0)          # not tangent
    with pytest.raises(ScenarioError):
        fv.Scenario(C, [1.0, 0.0], [0.0, 0.0], 1.0)          # zero velocity
    with pytest.raises(ScenarioError, match="critical"):
        fv.Scenario(fv.custom_polynomial(quadratic=[1.0, 0.0]), [0.0, 0.0], [0.0, 1.0], 1.0)
    with pytest.raises(ScenarioError):
        fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, ratio=1.5)
    with pytest.raises(ScenarioError):
        fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, eps0=1e-3, count=6)  # eps cap
    scn = fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, eps0=1e-3, count=6,
                      min_eps=1e-6)
    assert scn.epsilons[-1] == pytest.approx(1e-3 * 0.5**5)


def test_schedule_cap_and_smallest_eps_are_checked_as_scalars():
    C = fv.circle()
    with pytest.raises(ScenarioError, match="MAX_MEMBERS"):
        fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, count=MAX_MEMBERS + 1, min_eps=1e-300)
    for bad in (0.0, -1.0):
        with pytest.raises(ScenarioError, match="min_eps must be positive"):
            fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, min_eps=bad)
    assert len(fv.Scenario(C, [1.0, 0.0], [0.0, 1.0], 1.0, count=MAX_MEMBERS,
                           min_eps=1e-300).epsilons) == MAX_MEMBERS
    # the scalar the validator checks is the schedule's last entry
    for path in sorted(SCENARIOS.glob("*.json")):
        scn = fv.parse_scenario(str(path))
        assert scn.eps0 * scn.ratio ** (scn.count - 1) == scn.epsilons[-1], path.name


def test_family_memory_grows_with_nodes_not_steps():
    # members and physical runs keep only their output nodes, and the
    # audits stream the internal states: on the shipped circle, four
    # members peak near 0.4 MB, and near 1.7 MB when the members keep
    # their dense states
    def peak(count):
        scn = fv.parse_scenario(str(SCENARIOS / "circle.json"), {"count": count})
        tracemalloc.start()
        try:
            fv.run_family(scn)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    three, four = peak(3), peak(4)
    assert four <= 0.75
    # one more member doubles the finest member's steps: dense states would
    # add 0.8 MB here
    assert four - three < 0.25


def test_phase_state_validation():
    with pytest.raises(InvalidParameterError):
        fv.PhaseState([1.0, np.nan], [0.0, 0.0])
    with pytest.raises(InvalidParameterError):
        fv.PhaseState([1.0], [0.0, 0.0])


def test_integrator_options_validation():
    with pytest.raises(InvalidParameterError):
        fv.IntegratorOptions(step_factor=0.0)
    with pytest.raises(InvalidParameterError):
        fv.IntegratorOptions(n_out=400)  # must be odd
