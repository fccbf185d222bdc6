"""The lockstep integrator against loops of batches of one, bit for bit.

Every run goes through one kernel that advances a batch of rows, each with
its own step, step count and acceleration scale.  A family, a set of
evidence runs and a contrast batch must give exactly what a loop of single
runs gives: the same bits on every stored state, and on a failing row the
error that row raises alone.
"""
import dataclasses
import warnings

import numpy as np
import pytest

import flatvalley as fv
from flatvalley import dynamics
from flatvalley.contrast import COMPANION_SPEED, TRAP_OPTIONS
from flatvalley.dynamics import newton_many
from flatvalley.errors import BlowUpError, InvalidParameterError
from flatvalley.fields import MAX_EXPONENT, _tile
from flatvalley.integrators import CHUNK, integrate


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _tangent(fld, p, direction):
    g = fld.gradient(p)
    d = np.asarray(direction, dtype=float)
    return d - (float(d @ g) / float(g @ g)) * g


def _custom_case():
    P = fv.custom_polynomial(linear=[0.3, -0.1, 0.7], quadratic=[1.3, 0.7, 2.9],
                             offset=1.1, exponent=6)
    p = fv.foot_point(P.field, np.array([0.8, 0.0, 0.0]))
    return P, p, _tangent(P.field, p, [0.0, 1.0, 0.3])


# name -> (potential, p on the floor, tangent v)
CASES = {
    "circle": (fv.circle(), np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "gutter": (fv.gutter(), np.array([0.0, 0.0]), np.array([0.0, 1.0])),
    "ellipsoid": (fv.ellipsoid(), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
    "custom-polynomial": _custom_case(),
}
EPSILONS = [0.1, 0.05, 0.025]
OPTIONS = fv.IntegratorOptions(n_out=101)
# member j steps at its own factor; its dense run and its twin alone take it too
FACTORS = dynamics.member_step_factors(0.5, EPSILONS, OPTIONS)
MEMBER_OPTIONS = [fv.IntegratorOptions(n_out=101, step_factor=c) for c in FACTORS]


def _same_run(a, b):
    _same_nodes(a, b)
    for name in ("tau_int", "x_int", "v_int"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def _same_nodes(a, b):
    assert a.kind == b.kind and a.epsilon == b.epsilon and a.dt == b.dt
    for name in ("tau", "x", "v"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def _same_floats(a, b):
    """Equal shapes, values and signs of zero (array_equal alone takes -0.0 for 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# The batched oracles as plain float expressions: the reference that the
# array-operand kernels in fields.py must match bit for bit.
def _reference_power(s, k):
    out = s
    for _ in range(k - 1):
        out = out * s
    return out


def _reference_field(P):
    kind, params = P.spec_record["kind"], P.spec_record["params"]
    if kind == "circle":
        return lambda X: X[:, 0] * X[:, 0] + X[:, 1] * X[:, 1] - 1.0, lambda X: 2.0 * X
    if kind == "gutter":
        return lambda X: X[:, 0], lambda X: np.tile(np.array([1.0, 0.0]), (len(X), 1))
    if kind == "ellipsoid":
        c = np.array(params["coeffs"])
        return lambda X: np.vecdot(X * X, c) - 1.0, lambda X: 2.0 * c * X
    lv, qv, off = np.array(params["linear"]), np.array(params["quadratic"]), params["offset"]
    return (lambda X: np.vecdot(X, lv) + np.vecdot(X * X, qv) - off,
            lambda X: lv + 2.0 * qv * X)


def _reference_bump_parts(s):
    a = np.abs(s)
    near = a < 1e-12
    return near, 1.0 / np.where(near, 1.0, a)


def _reference_bump(s):
    near, u = _reference_bump_parts(s)
    return np.where(near, 0.0, np.exp(-u) * np.sin(u))


def _reference_bump_prime(s):
    near, u = _reference_bump_parts(s)
    val = np.exp(-u) * u * u * (np.sin(u) - np.cos(u))
    return np.where(near, 0.0, np.where(s > 0, val, -val))


_REFERENCE_BUMP = {
    "painleve": (lambda X: _reference_bump(X[:, 0]), _reference_bump_prime),
    "laloy": (lambda X: _reference_bump(X[:, 0]) - _reference_bump(X[:, 1]) - X[:, 1] * X[:, 1],
              lambda X: np.stack([_reference_bump_prime(X[:, 0]),
                                  -_reference_bump_prime(X[:, 1]) - 2.0 * X[:, 1]], axis=1)),
}


@pytest.mark.parametrize("k", [2, 4, 6, MAX_EXPONENT])
def test_power_profile_rounds_the_same_for_a_point_and_a_batch(k):
    rng = np.random.default_rng(k)
    for P in (fv.circle(exponent=k), fv.ellipsoid(exponent=k), fv.gutter(exponent=k),
              fv.ellipsoid(coeffs=(1.3, 0.7, 2.9), exponent=k),
              fv.custom_polynomial(linear=[0.3, -0.1, 0.7], quadratic=[1.3, 0.7, 2.9],
                                   offset=1.1, exponent=k)):
        X = rng.uniform(-1.5, 1.5, size=(2000, P.dim))
        # signed zeros, and points where f is exactly 0
        X[:P.dim] = np.eye(P.dim)
        X[P.dim:2 * P.dim] = -np.eye(P.dim)
        X[2 * P.dim] = 0.0
        X[2 * P.dim + 1] = -0.0
        assert _bits(P.value_many(X)) == _bits([P.value(x) for x in X])
        assert _bits(P.gradient_many(X)) == _bits([P.gradient(x) for x in X])
        f_many, grad_many = _reference_field(P)
        _same_floats(P.field.value_many(X), f_many(X))
        _same_floats(P.field.grad_many(X), grad_many(X))
        _same_floats(P.value_many(X), _reference_power(f_many(X), k))
        _same_floats(P.gradient_many(X),
                     k * _reference_power(f_many(X), k - 1)[:, None] * grad_many(X))


# a tile grows to max(N, twice its size) when a batch of N rows outgrows it:
# 0 rows leave it empty, 1 and 2 grow it to their size, 3 to 4 rows, 4 fits
# exactly, 5 grows it to 8, 7 fits just below that, 5,000 grows it past
# doubling and 3 is sliced from the grown tile
_TILE_BATCHES = [0, 1, 2, 3, 4, 5, 7, 5000, 3]


@pytest.mark.parametrize("coeffs", [(1.0, 2.0, 3.0), (1.3, 0.7), (0.5, 1.0, 2.0, 4.0)])
def test_tiled_gradients_are_the_broadcast_products(coeffs):
    # a fresh potential, so its tile starts empty
    P = fv.ellipsoid(coeffs=coeffs)
    _, grad_many = _reference_field(P)
    rng = np.random.default_rng(11)
    for rows in _TILE_BATCHES:
        X = rng.uniform(-1.5, 1.5, size=(rows, P.dim))
        G = P.field.grad_many(X)
        _same_floats(G, grad_many(X))
        # a fresh writable array: writing into it leaves the next call alone
        assert G.flags.writeable and G.flags.owndata
        G[...] = np.nan
        _same_floats(P.field.grad_many(X), grad_many(X))


def test_a_field_tile_is_read_only():
    rows = _tile([2.0, 4.0, 6.0])
    assert rows(0).shape == (0, 3)
    for n in _TILE_BATCHES[1:]:
        T = rows(n)
        assert T.shape == (n, 3) and not T.flags.writeable
        assert np.array_equal(T, np.tile([2.0, 4.0, 6.0], (n, 1)))
        with pytest.raises(ValueError):
            T[0, 0] = 1.0


def test_a_replaced_potential_calls_its_new_oracles():
    # the force kernels are bound to the field's oracles once per potential:
    # dataclasses.replace binds them again, to the replacement's
    P = fv.ellipsoid(exponent=4)
    X = np.random.default_rng(3).uniform(-1.5, 1.5, size=(5, P.dim))
    calls = []

    def counted(key, fn):
        def oracle(x):
            calls.append(key)
            return fn(x)
        return oracle

    fld = P.field
    Q = dataclasses.replace(P, field=dataclasses.replace(
        fld, **{key: counted(key, getattr(fld, key))
                for key in ("f", "grad", "f_many", "grad_many")}))
    P.gradient_many(X)
    P.gradient(X[0])
    assert calls == []
    assert _bits(Q.gradient_many(X)) == _bits(P.gradient_many(X))
    assert calls == ["f_many", "grad_many"]
    assert _bits(Q.gradient(X[0])) == _bits(P.gradient(X[0]))
    assert calls == ["f_many", "grad_many", "f", "grad"]
    # a new profile rebinds the exponent of the chain k f^(k-1)
    R = dataclasses.replace(P, profile=fv.power_profile(6))
    assert _bits(R.gradient_many(X)) == _bits(fv.ellipsoid(exponent=6).gradient_many(X))
    # a plain potential's force call is its replacement grad_u itself
    L = fv.laloy()
    M = dataclasses.replace(L, grad_u=counted("grad_u", L.grad_u))
    assert M.gradient_many is M.grad_u and L.gradient_many is L.grad_u
    assert _bits(M.gradient_many(X[:, :2])) == _bits(L.gradient_many(X[:, :2]))
    assert calls[-1] == "grad_u"


# zeros of both signs, inside the cut, on it, and far outside it
_BUMP_ROWS = [0.0, -0.0, 5e-13, -5e-13, np.nextafter(1e-12, 0.0), 1e-12, -1e-12,
              1.0, -1.0, 3.7, -250.0, np.inf, -np.inf]


@pytest.mark.parametrize("P", [fv.painleve(), fv.laloy()], ids=["painleve", "laloy"])
def test_bump_rounds_the_same_for_a_point_and_a_batch(P):
    X = np.random.default_rng(7).uniform(-0.3, 0.3, size=(500, P.dim))
    X[:3, 0] = [0.0, 1e-13, -2e-12]  # at and inside the cut round the singularity
    assert _bits(P.value_many(X)) == _bits([P.value(x) for x in X])
    assert _bits(P.gradient_many(X)) == _bits([P.gradient(x) for x in X])
    X[:len(_BUMP_ROWS)] = np.array(_BUMP_ROWS)[:, None]
    u_many, grad_u = _REFERENCE_BUMP[P.name]
    _same_floats(P.value_many(X), u_many(X))
    _same_floats(P.gradient_many(X), grad_u(X))


def test_kernel_batch_is_a_loop_of_batches_of_one():
    # unsorted step counts across chunk boundaries, a row of no steps,
    # per-row steps and scales
    steps = [CHUNK + 1, 0, 3, 2 * CHUNK + 7, CHUNK, 3]
    dts = [0.01, 0.2, 0.05, 0.003, 0.02, 0.05]
    scales = [-1.0, -2.0, -0.5, -3.0, -1.0, -7.0]
    rng = np.random.default_rng(1)
    x0, v0 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    Xs, Vs, failures = integrate(np.sin, x0, v0, dts, max(steps), steps=steps, scale=scales,
                                 blowup_radius=1e6)
    assert not failures
    for r in range(6):
        (X,), (V,), _ = integrate(np.sin, x0[r:r + 1], v0[r:r + 1], dts[r], steps[r],
                                  steps=steps[r], scale=scales[r], blowup_radius=1e6)
        assert X.shape == (steps[r] + 1, 3)
        assert _bits(Xs[r]) == _bits(X) and _bits(Vs[r]) == _bits(V)


@pytest.mark.parametrize("name", sorted(CASES))
def test_family_is_a_loop_of_rescaled_runs(name):
    # a member keeps only its nodes, those of the dense run at its eps
    P, p, v = CASES[name]
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS, OPTIONS)
    for eps, opts, member in zip(EPSILONS, MEMBER_OPTIONS, fam.members):
        alone = fv.integrate_rescaled(P, p, v, eps, 0.5, opts)
        _same_nodes(member, alone)
        assert member.x_int is member.x and member.v_int is member.v
        assert member.steps == alone.steps == len(alone.tau_int) - 1


def _twin_alone(P, p, v, j, T=0.5):
    """Twin of member j, integrated alone: the physical run from (p, eps_j v)
    to T/eps_j on the forward half's output intervals, at the member's
    step factor."""
    half, eps = (OPTIONS.n_out - 1) // 2, EPSILONS[j]
    return fv.integrate_newton(P, fv.PhaseState(p, eps * v), T / eps,
                               fv.IntegratorOptions(n_out=half + 1, step_factor=FACTORS[j]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_twins_are_a_loop_of_newton_runs(name):
    P, p, v = CASES[name]
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS, OPTIONS)
    assert not fam.twin_errors
    for j, (member, twin) in enumerate(zip(fam.members, fam.twins)):
        alone = _twin_alone(P, p, v, j)
        assert twin.epsilon == EPSILONS[j] and alone.epsilon is None
        _same_nodes(twin, dataclasses.replace(alone, epsilon=twin.epsilon))
        # a twin keeps only its nodes, and takes its member's step count:
        # the lockstep runs no longer
        assert twin.x_int is twin.x and twin.v_int is twin.v and twin.tau_int is twin.tau
        assert 2 * alone.steps == member.steps
    # same discrete map up to rounding: the two routes agree far below any
    # tolerance the certificate uses
    assert np.all(fam.twin_distances <= 1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_evidence_runs_are_a_loop_of_newton_runs(name):
    # evidence run j is twin j cut at tau* = 0.4, node 40 of its 50 intervals
    P, p, v = CASES[name]
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS, OPTIONS)
    runs = fv.physical_evidence_runs(fam, 0.4)
    for j, (eps, run) in enumerate(zip(EPSILONS, runs)):
        alone = _twin_alone(P, p, v, j)
        assert run.kind == "physical" and run.epsilon == eps and run.dt == alone.dt
        assert run.tau[-1] * eps == pytest.approx(0.4, rel=1e-12)
        for name_ in ("tau", "x", "v"):
            assert _bits(getattr(run, name_)) == _bits(getattr(alone, name_)[:41]), name_
        assert run.x_int is run.x


@pytest.mark.parametrize("tau_star", [0.0, -0.4, 0.403, 0.51, np.nan, np.inf])
def test_evidence_needs_a_positive_node_of_the_family_grid(tau_star):
    P, p, v = CASES["circle"]
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS[:1], OPTIONS)
    with pytest.raises(InvalidParameterError, match="not a positive node"):
        fv.physical_evidence_runs(fam, tau_star)


def test_a_blown_up_twin_keeps_its_nodes_and_raises_only_before_them(blow_up_twins):
    # twins 2 and 1 fail at 90 % and 80 % of their runs: evidence up to
    # tau* = 0.25 is read off their surviving nodes, evidence at tau* = 0.5
    # raises the error of the lowest j, and no member is touched
    P, p, v = CASES["circle"]
    alone = [fv.integrate_rescaled(P, p, v, eps, 0.5, opts)
             for eps, opts in zip(EPSILONS, MEMBER_OPTIONS)]
    blow_up_twins({2: 0.9, 1: 0.8})
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS, OPTIONS)
    assert sorted(fam.twin_errors) == [1, 2]
    assert [len(twin.tau) for twin in fam.twins] == [51, 40, 45]
    for member, run in zip(fam.members, alone):
        _same_nodes(member, run)  # a member keeps only the nodes of its dense run
    early = fv.physical_evidence_runs(fam, 0.25)
    assert [len(run.tau) for run in early] == [26, 26, 26]
    with pytest.raises(BlowUpError) as info:
        fv.physical_evidence_runs(fam, 0.5)
    assert info.value is fam.twin_errors[1]
    assert str(info.value).startswith("physical twin j=1 (eps=0.05) blew up: state left")


@pytest.mark.parametrize("P", [fv.painleve(), fv.laloy()], ids=["painleve", "laloy"])
def test_contrast_batch_is_a_loop_of_newton_runs(P):
    rest = P.dim - 1
    starts = [fv.PhaseState([x0] + [0.0] * rest, [v0] + [COMPANION_SPEED] * rest)
              for x0, v0 in ((-0.08, 0.02), (0.0, 0.03), (0.05, 0.01))]
    runs = newton_many(P, starts, [10.0] * len(starts), TRAP_OPTIONS)
    for s0, run in zip(starts, runs):
        _same_run(run, fv.integrate_newton(P, s0, 10.0, TRAP_OPTIONS))


def _single_error(call):
    with pytest.raises(BlowUpError) as info:
        call()
    return info.value


def test_a_blown_up_row_raises_its_own_error(monkeypatch):
    # along the gutter floor only the fast middle row leaves the box of radius 1.3
    P = fv.gutter()
    monkeypatch.setattr(dynamics, "BLOWUP_RADIUS", 1.3)
    starts = [fv.PhaseState([0.0, 0.0], [0.0, s]) for s in (0.01, 1.0, 0.02)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _single_error(lambda: newton_many(P, starts, [3.0] * 3))
    single = _single_error(lambda: fv.integrate_newton(P, starts[1], 3.0))
    assert "left the finite box" in str(single)
    assert str(batch) == str(single)
    assert batch.last_time == single.last_time
    assert _bits(batch.last_state) == _bits(single.last_state)


def test_a_blown_up_row_keeps_its_states_before_the_failure():
    # free motion: the fast middle row leaves the box of radius 2.5 at
    # t = 0.63; the rows beside it run on, and it keeps the 63 states before
    free = np.zeros_like
    x0, v0 = np.zeros((3, 1)), np.array([[0.5], [3.0], [1.0]])
    Xs, Vs, failures = integrate(free, x0, v0, 0.01, 100, steps=100, scale=1.0,
                                 blowup_radius=2.5)
    assert list(failures) == [1] and "at step 63" in str(failures[1])
    assert [len(X) for X in Xs] == [101, 63, 101]
    (X,), (V,), alone = integrate(free, x0[1:2], v0[1:2], 0.01, 62, steps=62, scale=1.0,
                                  blowup_radius=2.5)
    assert not alone
    assert _bits(Xs[1]) == _bits(X) and _bits(Vs[1]) == _bits(V)
    assert _bits(failures[1].last_state) == _bits((X[-1], V[-1]))


def test_family_blow_up_names_the_lowest_member_and_its_forward_half():
    # U = -|x|^4 repels; the smaller eps escapes first in lockstep time, but a
    # loop over the members stops at j = 0, on its forward half
    P = fv.PlainPotential(dim=2, u=lambda x: -float(x @ x) ** 2,
                          grad_u=lambda X: -4.0 * np.vecdot(X, X)[:, None] * X,
                          u_many=lambda X: -np.vecdot(X, X) ** 2, label="repulsive")
    p, v = np.array([1.0, 0.0]), np.array([0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = _single_error(lambda: fv.family_from_runs(P, p, v, 1.0, [0.1, 0.05]))
    single = _single_error(lambda: fv.integrate_rescaled(P, p, v, 0.1, 1.0))
    assert "forward half" in str(single)
    assert str(batch) == f"family member j=0 (eps=0.1) failed: {single}"
    assert batch.last_time == single.last_time
    assert _bits(batch.last_state) == _bits(single.last_state)


@pytest.mark.parametrize("name", sorted(CASES))
def test_streamed_audits_are_the_dense_audits(name):
    # a member's audits read its internal states chunk by chunk as the
    # lockstep call makes them; on its dense run they read them as one block
    P, p, v = CASES[name]
    fam = fv.family_from_runs(P, p, v, 0.5, EPSILONS, OPTIONS)
    for eps, opts, energy, bounds in zip(EPSILONS, MEMBER_OPTIONS, fam.energies, fam.bounds):
        dense = fv.integrate_rescaled(P, p, v, eps, 0.5, opts)
        want_energy, want_bounds = fv.energy_audit(dense, P), fv.confinement_check(dense, P, v)
        for field in ("epsilon", "h0", "drift", "values"):
            assert _bits(getattr(energy, field)) == _bits(getattr(want_energy, field)), field
        for field in ("epsilon", "v_norm", "max_speed", "max_potential",
                      "max_displacement", "worst_ball_ratio"):
            assert _bits(getattr(bounds, field)) == _bits(getattr(want_bounds, field)), field
        for flag in ("speed_ok", "sublevel_ok", "ball_ok", "passed"):
            assert getattr(bounds, flag) is getattr(want_bounds, flag), flag


def test_a_member_keeps_only_its_nodes_and_names_its_dense_run():
    P, p, v = CASES["circle"]
    member = fv.family_from_runs(P, p, v, 0.5, EPSILONS[:1], OPTIONS).members[0]
    assert not member.dense and member.x_int is member.x
    for call in (lambda: member.sample([0.1]), lambda: fv.energy_audit(member, P),
                 lambda: fv.confinement_check(member, P, v)):
        with pytest.raises(InvalidParameterError, match="integrate_rescaled"):
            call()


def test_kernel_keeps_every_stride_th_state_and_shows_the_observer_every_state():
    steps = [CHUNK + 1, 0, 3, 2 * CHUNK + 7, CHUNK, 3]
    strides = [3, 2, 1, 7, 256, 4]
    dts = [0.01, 0.2, 0.05, 0.003, 0.02, 0.05]
    rng = np.random.default_rng(2)
    x0, v0 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    seen = {r: [] for r in range(6)}

    def observe(rows, first, X, V, due):
        for c, r in enumerate(rows.tolist()):
            seen[r] += [(first + i, X[i, c].copy(), V[i, c].copy()) for i in range(due[c])]

    Xs, Vs, failures = integrate(np.sin, x0, v0, dts, max(steps), steps=steps, scale=-1.0,
                                 blowup_radius=1e6, stride=strides, observe=observe)
    assert not failures
    dense, dense_v, _ = integrate(np.sin, x0, v0, dts, max(steps), steps=steps, scale=-1.0,
                                  blowup_radius=1e6)
    for r in range(6):
        assert _bits(Xs[r]) == _bits(dense[r][::strides[r]])
        assert _bits(Vs[r]) == _bits(dense_v[r][::strides[r]])
        assert [k for k, _, _ in seen[r]] == list(range(steps[r] + 1))
        assert _bits([x for _, x, _ in seen[r]]) == _bits(dense[r])
        assert _bits([v for _, _, v in seen[r]]) == _bits(dense_v[r])


def test_a_blown_up_strided_row_keeps_its_nodes_and_its_last_state():
    # the fast middle row leaves the box at step 63 (see the dense case
    # above); with a stride of 5 it keeps steps 0, 5, ..., 60, and its last
    # valid state, step 62, comes from the buffer, as at a stride of 1
    free = np.zeros_like
    x0, v0 = np.zeros((3, 1)), np.array([[0.5], [3.0], [1.0]])
    seen = []
    Xs, Vs, failures = integrate(free, x0, v0, 0.01, 100, steps=100, scale=1.0,
                                 blowup_radius=2.5, stride=5,
                                 observe=lambda rows, first, X, V, due: seen.append(
                                     due[list(rows).index(1)]))
    dense, dense_v, dense_failures = integrate(free, x0, v0, 0.01, 100, steps=100, scale=1.0,
                                               blowup_radius=2.5)
    assert str(failures[1]) == str(dense_failures[1])
    assert _bits(failures[1].last_state) == _bits(dense_failures[1].last_state)
    assert [len(X) for X in Xs] == [21, 13, 21]
    assert _bits(Xs[1]) == _bits(dense[1][::5]) and _bits(Vs[1]) == _bits(dense_v[1][::5])
    assert sum(seen) == 63  # the observer sees step 0 to 62, never a bad state
