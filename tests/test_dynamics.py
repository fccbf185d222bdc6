import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import dynamics
from flatvalley.dynamics import MAX_STEPS
from flatvalley.errors import BlowUpError, InvalidParameterError, ScenarioError
from flatvalley.reporting import revalidate_from_dir
from flatvalley.scenario import MAX_MEMBERS

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


def _snapped_law(scn, step):
    """Every member's substeps at ``step`` divided by its g_j =
    max(rho^(1/k), rho^(2/k)/GROWTH), rho = eps_0/eps_j and k the profile
    exponent, from the formula."""
    k, half = scn.potential.profile.exponent, (scn.options.n_out - 1) // 2
    rhos = [scn.epsilons[0] / eps for eps in scn.epsilons]
    return [dynamics._snap_step(scn.horizon / half,
                                step / max(rho ** (1 / k), rho ** (2 / k) / dynamics.GROWTH),
                                half)[0]
            for rho in rhos]


def _rho_law(scn):
    """The rho-law probe: member j at ceil(g_j) substeps."""
    return _snapped_law(scn, scn.horizon / ((scn.options.n_out - 1) // 2))


@pytest.mark.parametrize("name, ceilings, probe, iterations", [
    ("circle", [5, 8, 10, 15, 20, 29], [5, 6, 6, 6, 6, 6], 1200),
    ("ellipsoid", [3, 4, 5, 6, 6, 8], [3, 3, 3, 3, 3, 3], 600),
], ids=["circle", "ellipsoid"])
def test_member_substeps_on_the_shipped_scenarios(name, ceilings, probe, iterations):
    # the ceilings, member j at dt_0/g_j, would take 5,800 lockstep
    # iterations on the circle and 1,600 on the ellipsoid.  The rho law,
    # the same law from one substep, growing like rho^(1/k), asks 1, 2, 2, 3,
    # 4, 6 substeps on the circle (k = 2) and 1, 2, 2, 2, 2, 3 on the
    # ellipsoid (k = 4); every member probes at its call's longest row, 6
    # and 3, member 0 of the circle at its ceiling of 5.  Every member keeps
    # its probe: one call of 1,200 and of 600 iterations
    scn = _scenario(name)
    member_ceilings, member_probe = _member_substeps(scn)
    half = (scn.options.n_out - 1) // 2
    assert member_ceilings == ceilings
    assert half * max(ceilings) == {"circle": 5800, "ellipsoid": 1600}[name]
    assert member_probe == probe
    fam = fv.run_family(scn)
    assert fam.substeps == probe
    assert fam.plan.ceilings == ceilings and fam.plan.probe == probe
    assert fam.plan.iterations == iterations
    assert [m.dt for m in fam.members] == [scn.horizon / half / m for m in probe]


@pytest.mark.parametrize("count", [6, 10])
def test_the_probe_follows_the_profile_exponent(count):
    # the rho law is the ceilings' law from one substep: at k = 2 member j
    # at sqrt(eps_0/eps_j) times member 0's one step, its factor at most
    # GROWTH times member 0's; at k = 4 it grows like (eps_0/eps_j)^(1/4).
    # Its longest row M fixes the probe call, and each member probes at
    # min(ceiling, M)
    circle = _scenario("circle", overrides={"count": count})
    ellipsoid = _scenario("ellipsoid", overrides={"count": count})
    for scn in (circle, ellipsoid):
        spacing = scn.horizon / ((scn.options.n_out - 1) // 2)
        one_substep = dataclasses.replace(scn, options=dataclasses.replace(
            scn.options, step_factor=spacing / scn.epsilons[0]))
        assert _rho_law(scn) == _member_substeps(one_substep)[0]
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
    # the n_out = 201 grid at factor 3.0 puts member 0 at one substep, where
    # the ceilings are the rho law: every probe is clipped to its ceiling
    scn = _scenario(name, exponent, {"n_out": 201, "step_factor": 3.0})
    fam = fv.run_family(scn)
    assert fam.substeps == fam.plan.ceilings == fam.plan.probe == _rho_law(scn)


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
    # 15, and the files revalidate with member 2 read as a fallback
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
    assert calls[:3] == [(18, 150), (18, 350), (3, 750)]
    assert fam.plan.probe == [3] * 6 and fam.plan.ceilings == [10, 12, 15, 17, 20, 24]
    assert fam.substeps == [4, 4, 15, 5, 6, 7] and fam.plan.iterations == 1250
    assert not any(dynamics.member_failures(fam)) and not fam.physical_errors
    assert revalidate_from_dir(str(tmp_path))["ok"]


@EXPONENT_SWEEP
@pytest.mark.parametrize("count", [6, 10])
def test_the_ceilings_follow_the_probes_law(name, exponent, count):
    # one step law: member j's ceiling is member 0's snapped step dt_0
    # divided by g_j = max(rho^(1/k), rho^(2/k)/GROWTH) and snapped, and
    # the rho law is the same law from one substep, so it never asks for
    # more.  At k = 2, dt_0/g_j = dt_0 min(sqrt(rho), GROWTH)/rho, the
    # sqrt(eps) rule capped at GROWTH, and the ceilings keep its values
    scn = _scenario(name, exponent, {"count": count})
    half = (scn.options.n_out - 1) // 2
    m0, dt0, _ = dynamics._snap_step(scn.horizon / half,
                                     scn.options.step_factor * scn.epsilons[0], half)
    ceilings = _member_substeps(scn)[0]
    assert ceilings == _snapped_law(scn, dt0)
    assert all(c >= m for c, m in zip(ceilings, _rho_law(scn)))
    assert ceilings[0] == m0
    if scn.potential.profile.exponent == 2:
        assert ceilings == [5, 8, 10, 15, 20, 29, 40, 80, 160, 320][:count]


def test_the_step_law_refuses_a_horizon_or_an_eps_at_or_below_0():
    C = fv.circle()
    for T in (0.0, -1.0):
        with pytest.raises(InvalidParameterError, match="horizon T must be positive"):
            dynamics.member_substeps(T, [0.1, 0.05], exponent=2)
        with pytest.raises(InvalidParameterError, match="horizon T must be positive"):
            fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], 0.1, T)
    for bad in ([0.1, 0.0], [0.1, -0.05]):
        with pytest.raises(InvalidParameterError, match="eps must be positive"):
            dynamics.member_substeps(1.0, bad, exponent=2)
        with pytest.raises(InvalidParameterError, match="eps must be positive"):
            fv.integrate_rescaled(C, [1.0, 0.0], [0.0, 1.0], bad[1], 1.0)


def test_a_family_past_max_steps_names_its_member():
    # at count 10 and ratio 0.25, member 7 (rho = 4^7, g = rho/GROWTH =
    # 2,048) needs 2,048 times member 0's 5 substeps; at one substep of
    # member 0 a coarser step_factor can no longer help, and member 8
    # alone still needs 8,192
    scn = _scenario("circle", overrides={"count": 10, "ratio": 0.25, "min_eps": 1e-300})
    with pytest.raises(InvalidParameterError) as info:
        fv.run_family(scn)
    assert str(info.value) == (
        "family member j=7 (eps=6.10352e-06): a run of 200 output intervals of 0.005 at "
        "step 4.88281e-07 needs more than MAX_STEPS = 1e+06 steps; shorten the horizon, "
        "raise step_factor or shorten the eps schedule")
    with pytest.raises(InvalidParameterError) as info:
        fv.run_family(dataclasses.replace(scn, options=dataclasses.replace(
            scn.options, step_factor=1.0)))
    assert str(info.value) == (
        "family member j=8 (eps=1.52588e-06): a run of 200 output intervals of 0.005 at "
        "step 6.10352e-07 needs more than MAX_STEPS = 1e+06 steps; lower n_out or "
        "shorten the eps schedule")


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
