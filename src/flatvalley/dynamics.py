"""Newtonian dynamics for valley potentials and its slow-velocity rescaling.

Two Cauchy problems are integrated with the same symplectic core:

* physical:  xdd = -grad U(x),            x(0) = p, xd(0) = eps * v
* rescaled:  xdd = -(1/eps^2) grad U(x),  x(0) = p, xd(0) = v

related by x_resc(tau) = x_phys(tau / eps).  The rescaled family with a
geometric eps schedule is the object the analysis module extracts limits
from; conservation of H = |xd|^2/2 + U/eps^2 gives sharp a-priori bounds
(speed, sublevel confinement, ball confinement) that every run is audited
against.

Every run is a row of a lockstep call of ``integrators.integrate``:
:func:`integrate_rescaled` makes one (both halves of one run, from (p,
v), the backward one at the negated step), as does
:func:`newton_many` (physical runs, a single one being a batch of one),
and a family (:func:`family_for_gates`, what :func:`run_family` runs)
makes the one to three calls of its step plan (:func:`step_calls`), each
running both halves and the physical run of some of its members.

The physical run of member j is xdd = -grad U from (p, eps_j v) to T/eps_j
on the member's forward output grid scaled by 1/eps_j, at about half the
member's substeps per output interval.  Under t = tau/eps_j its nodes are
the forward half's nodes integrated at a coarser step, so their sup
distance is the member's recorded step error (``FamilyResult.step_errors``,
which the family stage gates on), and they are the physical states at
tau/eps_j for every node tau >= 0 of the family: the certificate's
evidence runs are cut from them, with no integration of their own.

Output grids: every trajectory is reported on an equispaced grid whose
nodes are exact integrator states (the internal step is snapped to divide
the output spacing), so audits and cross-member comparisons never see
interpolation error.

Steps: member j of a family takes a constant m_j substeps per output
interval, chosen from the gates it must pass under one step law
(:func:`member_substeps`).  With rho = eps_0/eps_j and k the profile
exponent, member j's step is member 0's divided by g_j = max(rho^(1/k),
rho^(2/k)/GROWTH): a valley f^k confines |f| to a multiple of eps^(2/k),
so the transverse frequency grows like rho^(2/k).  Its ceiling, the
finest step it may take, is member 0's at dtau = step_factor * eps_0,
snapped to dt_0, divided by g_j and snapped; the rho law is the same law
from one substep.  A probe call runs every member at min(ceiling, M), M
the rho law's longest row in that call, for the rho law's iterations.
A member whose step error and energy drift each read at most
PROBE_FRACTION of their gates keeps its probe rows, and every other
member re-runs once at the substeps PEFRL's fourth order predicts from
its readings (:func:`planned_substeps`), or at its ceiling should that
re-run still fail a gate (:func:`step_calls`).  On the shipped circle
(k = 2) the ceilings take 5,800 lockstep iterations; the probe, at 5, 6,
6, 6, 6, 6 substeps, takes 1,200 and every member keeps it, for drifts
of at most 9.7e-10 and step errors of at most 2.8e-7, against gates of
1e-8 and 4.4e-6.  On the shipped ellipsoid (k = 4) the ceilings take
1,600; the probe, at 3 substeps each, takes 600 and every member keeps
it, for drifts of at most 7.2e-11 and step errors of at most 6.7e-11,
against gates of 1e-8 and 6.6e-5.

Memory grows with nodes, not steps.  The members and physical runs of a
family keep only their output nodes: the lockstep call stores every m-th
state of each row and streams every internal state of the members through
their conservation audits (:class:`RunAudits`) as it goes, so no (steps +
1, n) array is allocated per run.  Dense internal states are kept only
where they are read: :func:`integrate_rescaled` (which writes both halves
into one array as the call makes them) and :func:`integrate_newton`
return them, and ``geometry.curvilinear_residual`` reads its stencils
from them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowUpError, InvalidParameterError
from .fields import CompositePotential
from .integrators import integrate
from .scenario import IntegratorOptions, Scenario

Array = np.ndarray

#: most steps one ``integrate`` call may take: ten times the largest run a
#: shipped scenario, gallery default or test asks for (10^5 steps)
MAX_STEPS = 10**6
#: relative slack of the speed, sublevel and ball bounds: room for rounding only
SLACK = 1e-6
#: largest relative energy drift a family member may show
ENERGY_DRIFT_LIMIT = 1e-8
#: largest step error a family member may show, as a fraction of the limit
#: tolerance (:func:`limit_tolerance`)
STEP_ERROR_FRACTION = 1e-3
#: a family member keeps its probe step when its step error and its energy
#: drift are each at most this fraction of their gates (:func:`family_for_gates`)
PROBE_FRACTION = 0.1
#: most a family member's dt omega, its step times its transverse
#: frequency, may exceed member 0's under :func:`member_substeps`
GROWTH = 8
#: a state with |x|^2 + |v|^2 above twice this radius squared has blown up
BLOWUP_RADIUS = 1e6


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A configuration point and its velocity."""

    x: Array
    v: Array

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise InvalidParameterError("position and velocity must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise InvalidParameterError("phase state entries must be finite")


@dataclass(eq=False)
class Trajectory:
    """A sampled solution, with its internal states when it is dense.

    ``tau``/``x``/``v`` live on the equispaced output grid (401 nodes by
    default).  A dense run (from :func:`integrate_rescaled` or
    :func:`integrate_newton`) also holds every internal step in its
    ``*_int`` arrays; output nodes coincide with internal nodes by
    construction.  The members of a family and their physical runs, and
    the evidence runs cut from those, keep only their output nodes:
    their ``*_int`` arrays are the node arrays, and ``dt`` is still the
    step they were integrated at.
    """

    kind: str                 # "physical" | "rescaled"
    epsilon: Optional[float]
    tau: Array
    x: Array
    v: Array
    dt: float
    tau_int: Array
    x_int: Array
    v_int: Array

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def dense(self) -> bool:
        """Whether the run kept its internal states, not only its nodes."""
        return self.x_int is not self.x

    @property
    def steps(self) -> int:
        """Internal steps from the first node to the last."""
        return round(float(self.tau[-1] - self.tau[0]) / self.dt)


def _snap_step(spacing: float, target: float, intervals: int, run: str = "a run",
               remedy: str = "shorten the horizon or raise the step") -> Tuple[int, float, int]:
    """Substeps m per output interval, the internal step spacing / m (at most
    ``target`` up to rounding) and the step count of ``intervals`` intervals.

    Raises InvalidParameterError, before any array is allocated, when the
    run would take more than MAX_STEPS steps, naming it ``run`` and ending
    on ``remedy``.
    """
    if not target > 0:
        raise InvalidParameterError(f"step must be positive, got {target!r}")
    per = float(spacing) / float(target) - 1e-12  # inf, not a numpy warning, on overflow
    m = max(1, math.ceil(per)) if math.isfinite(per) else math.inf
    if intervals * m > MAX_STEPS:
        raise InvalidParameterError(
            f"{run} of {intervals} output intervals of {spacing:g} at step {target:g} "
            f"needs more than MAX_STEPS = {MAX_STEPS:g} steps; {remedy}")
    return m, spacing / m, intervals * m


def _lockstep(potential, rows, dense: bool, observe=None):
    """One ``integrate`` call over ``rows`` of (x0, v0, scale, (m, dt,
    steps)), row r solving xdd = -scale grad U from (x0, v0) for ``steps``
    steps of ``dt``: per-row (X, V), every state of a ``dense`` call and
    every m-th (the output nodes) otherwise, and {row: BlowUpError}.
    ``observe`` sees every state (see ``integrate``)."""
    x0, v0, scale, snaps = zip(*rows)
    steps = [s for _, _, s in snaps]
    return integrate(potential.gradient_many, x0, v0, [dt for _, dt, _ in snaps],
                     max(steps), steps=steps, scale=-np.asarray(scale, dtype=float),
                     stride=1 if dense else [m for m, _, _ in snaps], observe=observe,
                     blowup_radius=BLOWUP_RADIUS)


def _run(kind: str, eps, first: int, spacing: float, X: Array, V: Array, snap,
         dense: bool) -> Trajectory:
    """A run from its kept states, every one when ``dense`` and else its
    output nodes, which are then also its ``*_int`` arrays; its node i lies
    at tau = (first + i) spacing.  A run cut short by a blow-up keeps the
    output nodes it reached."""
    m, dt, _ = snap
    x, v = (X[::m].copy(), V[::m].copy()) if dense else (X, V)
    tau = np.arange(first, first + len(x)) * spacing
    tau_int = tau
    if dense:  # the step indices as floats (exact), scaled in place
        tau_int = np.arange(first * m, first * m + len(X), dtype=float)
        tau_int *= dt
    return Trajectory(kind=kind, epsilon=eps, tau=tau, x=x, v=v, dt=dt,
                      tau_int=tau_int, x_int=X, v_int=V)


def newton_many(potential, starts: Sequence[PhaseState], t_ends: Sequence[float],
                opts: IntegratorOptions = IntegratorOptions(),
                observe=None) -> List[Trajectory]:
    """Integrate xdd = -grad U on [0, t_ends[i]] from each ``starts[i]``, all
    runs in one lockstep call.

    The runs are dense, unless ``observe`` (an ``integrate`` observer, run
    i being row i) reads their internal states as they are made: then the
    runs keep only their output nodes.  Every run is checked before any
    starts.  Raises the BlowUpError of the first run that fails, the error
    a loop of :func:`integrate_newton` stops at.
    """
    intervals = opts.n_out - 1
    rows = []
    for s0, t_end in zip(starts, t_ends):
        if not math.isfinite(t_end):
            raise InvalidParameterError(f"the horizon t_end must be finite, got {t_end:g}")
        if t_end <= 0:
            raise InvalidParameterError("t_end must be positive")
        if s0.x.size != potential.dim:
            raise InvalidParameterError("initial state dimension does not match the potential")
        rows.append((s0.x, s0.v, 1.0, _snap_step(t_end / intervals, opts.step_factor,
                                                 intervals)))
    dense = observe is None
    Xs, Vs, failures = _lockstep(potential, rows, dense, observe)
    if failures:
        raise failures[min(failures)]
    return [_run("physical", None, 0, t_end / intervals, X, V, row[3], dense)
            for row, t_end, X, V in zip(rows, t_ends, Xs, Vs)]


def integrate_newton(potential, s0: PhaseState, t_end: float,
                     opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate xdd = -grad U(x) on [0, t_end] from the given state."""
    return newton_many(potential, [s0], [t_end], opts)[0]


def member_substeps(T: float, epsilons: Sequence[float],
                    opts: IntegratorOptions = IntegratorOptions(), *, exponent: int
                    ) -> Tuple[List[int], List[int]]:
    """Every member's ceiling and probe substeps per output interval in a
    family on [-T, T] whose profile is s^``exponent``: the family's one
    step law.

    Member j, rho = eps_0/eps_j, steps at member 0's step divided by g_j =
    max(rho^(1/k), rho^(2/k)/GROWTH), k = ``exponent``.  A member of a
    valley U = f^k is confined to |f| <= g^-1(eps^2 |v|^2/2), which scales
    like eps^(2/k), so its transverse frequency omega in rescaled time
    grows like rho^(2/k): the first term grows the count like the square
    root of omega, which keeps the members' errors level, and the second
    keeps dt omega at most GROWTH times member 0's, PEFRL's stability
    condition.  The ceiling, the finest step :func:`family_for_gates` may
    give a member, starts from member 0 at ``opts.step_factor``, snapped
    to dt_0; the rho law starts from one substep.  Every ceiling is
    checked against MAX_STEPS, and a refusal names its member.

    The rho law fixes the probe call's longest row, M
    (:func:`longest_row`), and a call's iterations are its longest row's
    steps.  So every member probes at min(ceiling_j, M): the call still
    takes ``half`` M iterations, as M >= 2 and a physical run takes at most
    its member's substeps from 2 on.  On the shipped circle the rho law's
    1, 2, 2, 3, 4, 6 probe at 5, 6, 6, 6, 6, 6.
    """
    if T <= 0:
        raise InvalidParameterError("horizon T must be positive")
    if not all(float(eps) > 0 for eps in epsilons):
        raise InvalidParameterError("eps must be positive")
    half = (opts.n_out - 1) // 2
    spacing, eps0 = T / half, float(epsilons[0])
    runs = [f"family member j={j} (eps={float(eps):g}): a run" for j, eps in enumerate(epsilons)]
    m0, dt0, _ = _snap_step(spacing, opts.step_factor * eps0, half, runs[0],
                            "shorten the horizon or raise step_factor")
    # at one substep member 0 can step no coarser: only fewer output
    # intervals or a shorter schedule then shrink a ceiling
    remedy = ("lower n_out or shorten the eps schedule" if m0 == 1
              else "shorten the horizon, raise step_factor or shorten the eps schedule")
    growths = [max(rho ** (1.0 / exponent), rho ** (2.0 / exponent) / GROWTH)
               for rho in (eps0 / float(eps) for eps in epsilons)]
    ceilings = [_snap_step(spacing, dt0 / g, half, run, remedy)[0]
                for run, g in zip(runs, growths)]
    longest = longest_row([_snap_step(spacing, spacing / g, half)[0] for g in growths])
    return ceilings, [min(ceiling, longest) for ceiling in ceilings]


def fourth_order_substeps(m: int, r: float, finest: int) -> int:
    """Substeps per interval that bring a reading r times its target at m
    substeps down to the target, min(finest, ceil(m r^(1/4))), as PEFRL's
    step and energy errors are fourth order in the step (Omelyan, Mryglod
    and Folk, CPC 146 (2002) 188); ``finest`` when r has no finite value."""
    return min(finest, math.ceil(m * r ** 0.25)) if r < math.inf else finest


def planned_substeps(probe: Sequence[int], ceilings: Sequence[int], step_errors, drifts,
                     confined, step_limit: float) -> List[int]:
    """Each member's substeps after the probe read its step error, energy
    drift and confinement verdict (a step error of None or inf has no
    reading).  A confined member whose readings are each at most
    PROBE_FRACTION of their gates, ``step_limit`` and ENERGY_DRIFT_LIMIT,
    keeps its probe substeps m; any other steps at
    :func:`fourth_order_substeps` clipped to its ceiling, r its worse
    reading-to-target ratio (its ceiling when r has no finite value)."""
    target = PROBE_FRACTION * step_limit
    plan = []
    for m, ceiling, err, drift, ok in zip(probe, ceilings, step_errors, drifts, confined):
        err = math.inf if err is None or not target > 0 else err / target
        r = max(err, drift / (PROBE_FRACTION * ENERGY_DRIFT_LIMIT))
        if ok and r <= 1.0:
            plan.append(m)
        else:
            plan.append(fourth_order_substeps(m, r, ceiling) if ok else ceiling)
    return plan


def _physical_substeps(m: int) -> int:
    """Substeps per output interval of the physical run beside a member at
    m: about half, and 2 when m = 1."""
    return 2 if m == 1 else (m + 1) // 2


def longest_row(substeps: Sequence[int]) -> int:
    """Substeps per output interval of the longest row of a family lockstep
    call running members at ``substeps``: max_j max(m_j, c_j), c_j the
    substeps of member j's physical run."""
    return max(max(m, _physical_substeps(m)) for m in substeps)


def step_calls(probe: Sequence[int], plan: Sequence[int], ceilings: Sequence[int],
               failed=()) -> List[Tuple[List[int], List[int]]]:
    """The lockstep calls of a family's step plan, in order, each a list of
    members and their substeps: the probe of every member at ``probe``,
    the re-run of every member whose ``plan`` differs from its probe, and
    the fallback to its ceiling of every re-run member planned below it
    that is in ``failed``.  A call of no member is left out.  A member's
    substeps are those of the last call that runs it."""
    rerun = [j for j, m in enumerate(probe) if plan[j] != m]
    fallback = [j for j in rerun if plan[j] < ceilings[j] and j in failed]
    calls = [(list(range(len(probe))), list(probe)), (rerun, [plan[j] for j in rerun]),
             (fallback, [ceilings[j] for j in fallback])]
    return [call for call in calls if call[0]]


def lockstep_iterations(half: int, calls) -> int:
    """Iterations of family lockstep ``calls`` (see :func:`step_calls`) on
    ``half`` output intervals a side: each call's longest row's steps."""
    return sum(half * longest_row(substeps) for _, substeps in calls)


def _halves(potential, p, v, T: float, epsilons: Sequence[float], opts: IntegratorOptions,
            substeps: Sequence[int]):
    """p and v as arrays, and the lockstep rows (x0, v0, scale, (m, dt,
    steps)) of the rescaled runs from (p, v) on [-T, T], one per eps, each
    at its ``substeps`` m, which the caller has checked against MAX_STEPS:
    row 2j is run j's forward half, at step spacing / m, and row 2j + 1
    its backward half, at step -spacing / m, both from (p, v) under xdd =
    -(1/eps_j^2) grad U."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != (potential.dim,) or v.shape != (potential.dim,):
        raise InvalidParameterError("p and v must match the potential dimension")
    half = (opts.n_out - 1) // 2
    batch = []
    for eps, m in zip(epsilons, substeps):
        dt, scale = T / half / m, 1.0 / (float(eps) * float(eps))
        batch += [(p, v, scale, (m, dt, half * m)), (p, v, scale, (m, -dt, half * m))]
    return p, v, batch


def _half_error(failures: Dict[int, BlowUpError], j: int, eps) -> Optional[BlowUpError]:
    """The error of rescaled run j, whose halves are rows 2j and 2j + 1, or
    None when neither failed.  The forward half runs first in time, so its
    error is the one reported."""
    for row, side in ((2 * j, "forward"), (2 * j + 1, "backward")):
        exc = failures.get(row)
        if exc is not None:
            return BlowUpError(
                f"rescaled run blew up on the {side} half (eps={eps:g}); the solution "
                f"exists globally, so this is an integrator failure: {exc}",
                last_time=exc.last_time, last_state=exc.last_state)
    return None


def integrate_rescaled(potential, p, v, eps: float, T: float,
                       opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate xdd = -(1/eps^2) grad U(x) on [-T, T] from (p, v): a dense
    run, with every internal state.

    The lockstep call runs both halves from (p, v), the backward one at
    the negated step, and writes their states, as it makes them, into one
    array.  The solution exists globally for every eps; a blow-up
    therefore means the step size failed to resolve the stiffness and is
    reported as an integrator failure.  A family member at the same eps and
    horizon has this run's nodes, bit for bit, when the options carry the
    step factor spacing / (m eps) of its substeps m (its ceiling from
    :func:`member_substeps`, say): the run steps at the ceiling of a family
    of one.
    """
    if T <= 0:
        raise InvalidParameterError("horizon T must be positive")
    if not float(eps) > 0:
        raise InvalidParameterError("eps must be positive")
    half = (opts.n_out - 1) // 2
    _, _, batch = _halves(potential, p, v, T, [eps], opts,
                          [_snap_step(T / half, opts.step_factor * float(eps), half)[0]])
    snap = batch[0][3]
    mid = snap[2]  # the index of tau = 0
    x_int = np.empty((2 * mid + 1, potential.dim))
    v_int = np.empty_like(x_int)

    def observe(rows, first, X, V, due):
        # state i of row 0 (the forward half) lies at tau = (first + i) dt, of
        # row 1 (the backward half) at -(first + i) dt; both start at (p, v)
        for c, r in enumerate(rows.tolist()):
            at = mid + (1 - 2 * r) * (first + np.arange(due[c]))
            x_int[at] = X[:due[c], c]
            v_int[at] = V[:due[c], c]

    # each half keeps its nodes; the run's states reach it through the observer
    _, _, failures = _lockstep(potential, batch, dense=False, observe=observe)
    exc = _half_error(failures, 0, eps)
    if exc is not None:
        raise exc
    return _run("rescaled", eps, -half, T / half, x_int, v_int, snap, dense=True)


@dataclass(eq=False)
class EnergyReport:
    """Conservation audit of H = |v|^2/2 + U/eps^2 along a rescaled run.

    ``drift`` is max |H - H(0)| / max(|H(0)|, 1e-300) over every internal
    step.
    """

    epsilon: float
    h0: float
    drift: float


@dataclass(eq=False)
class BoundsCheck:
    """Conservation-law confinement verdicts for one rescaled run.

    speed:      max |xd|      <= |v| (1 + SLACK)
    sublevel:   max U         <= eps^2 |v|^2 / 2 (1 + SLACK)
    ball:       |x(tau) - p|  <= |tau| |v| (1 + SLACK) at every node
    """

    epsilon: float
    v_norm: float
    max_speed: float
    max_potential: float
    max_displacement: float
    worst_ball_ratio: float
    speed_ok: bool
    sublevel_ok: bool
    ball_ok: bool

    @property
    def passed(self) -> bool:
        return self.speed_ok and self.sublevel_ok and self.ball_ok

    @classmethod
    def from_maxima(cls, epsilon: float, v_norm: float, max_speed: float,
                    max_potential: float, max_displacement: float,
                    worst_ball_ratio: float) -> "BoundsCheck":
        """The verdicts of a run's maxima against their bounds; a run from
        rest (v = 0) reads max |x - p| as its ball ratio, which must be 0."""
        if v_norm == 0.0:
            worst_ball_ratio = max_displacement
            ball_ok = worst_ball_ratio == 0.0
        else:
            ball_ok = worst_ball_ratio <= 1.0 + SLACK
        return cls(
            epsilon=epsilon,
            v_norm=v_norm,
            max_speed=max_speed,
            max_potential=max_potential,
            max_displacement=max_displacement,
            worst_ball_ratio=worst_ball_ratio,
            speed_ok=max_speed <= v_norm * (1.0 + SLACK),
            sublevel_ok=max_potential <= 0.5 * epsilon * epsilon * v_norm * v_norm * (1.0 + SLACK),
            ball_ok=ball_ok,
        )


def _squared_norms(a: Array) -> Array:
    """|a|^2 over the last axis, the squares added in order, as
    ``np.linalg.norm`` adds them before its square root."""
    squares = a * a
    out = squares[..., 0]
    for i in range(1, a.shape[-1]):
        out = out + squares[..., i]
    return out


class RunAudits:
    """The conservation audits of rescaled runs from (p, v), one per eps,
    fed their internal states one block at a time.

    Each state is read once: H = |v|^2/2 + U/eps^2, the speed |v|, U, the
    displacement |x - p| and the ball ratio |x - p|/(|tau| |v|) are
    evaluated on the block and folded into running maxima per run.  Every
    quantity is row by row and every
    reduction a maximum, so the reports are the same bits however the
    states are cut into blocks: a family feeds its members chunk by chunk
    as the lockstep integrator makes them, :func:`energy_audit` and
    :func:`confinement_check` feed a dense run as one block.  The block
    holding tau = 0, where H(0) is read, comes first.
    """

    def __init__(self, potential, epsilons, p, v):
        self.potential = potential
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.p = np.asarray(p, dtype=float)
        self.v_norm = float(np.linalg.norm(v))
        runs = len(self.epsilons)
        self.h0 = np.empty(runs)
        self.maxima = np.full((runs, 5), -np.inf)  # |H - H(0)|, |v|, U, |x - p|, ball ratio

    def feed(self, runs, k: Array, x: Array, v: Array, dt) -> None:
        """Audit a block of states: row c of the (cols, steps, n) states
        (x, v) holds states of run ``runs[c]`` at the signed step indices
        ``k[c]`` (negative before tau = 0) of a step ``dt[c]`` of either
        sign (|tau| = |k dt|)."""
        cols, steps, n = x.shape
        runs = np.asarray(runs)
        dt = np.asarray(dt, dtype=float)[:, None]
        eps = self.epsilons[runs][:, None]
        U = self.potential.value_many(x.reshape(-1, n)).reshape(cols, steps)
        flat_v = v.reshape(-1, n)
        H = 0.5 * np.einsum("ij,ij->i", flat_v, flat_v).reshape(cols, steps) + U / (eps * eps)
        zero = k == 0
        self.h0[runs[np.nonzero(zero)[0]]] = H[zero]
        taus = np.abs(k * dt)
        disps = np.sqrt(_squared_norms(x - self.p))
        ratios = np.zeros_like(disps)
        if self.v_norm > 0:  # a run from rest reads max |x - p| for its ball bound
            np.divide(disps, taus * self.v_norm, out=ratios, where=taus > 0)
        np.maximum.at(self.maxima, runs, np.stack([
            np.abs(H - self.h0[runs][:, None]).max(axis=1),
            np.sqrt(_squared_norms(v).max(axis=1)),  # sqrt is monotone: the largest speed
            U.max(axis=1), disps.max(axis=1), ratios.max(axis=1)], axis=1))

    def energy(self, j: int) -> EnergyReport:
        h0 = float(self.h0[j])
        return EnergyReport(epsilon=float(self.epsilons[j]), h0=h0,
                            drift=float(self.maxima[j, 0]) / max(abs(h0), 1e-300))

    def bounds(self, j: int) -> BoundsCheck:
        return BoundsCheck.from_maxima(float(self.epsilons[j]), self.v_norm,
                                       *(float(m) for m in self.maxima[j, 1:]))


def _dense_audit(traj: Trajectory, potential, v, name: str) -> RunAudits:
    """A dense rescaled run fed to its audit as one block."""
    if traj.kind != "rescaled" or traj.epsilon is None:
        raise InvalidParameterError(f"{name} expects a rescaled trajectory")
    if not traj.dense:
        raise InvalidParameterError(
            f"{name} reads every internal state, and this run kept only its output nodes; "
            "a family audits its members as they run, and integrate_rescaled gives a dense run")
    steps = (len(traj.tau_int) - 1) // 2
    # without a v (the energy audit), the ball ratio it never reads uses the launch velocity
    audit = RunAudits(potential, [traj.epsilon], traj.x_int[steps],
                      traj.v_int[steps] if v is None else v)
    audit.feed([0], np.arange(-steps, steps + 1)[None], traj.x_int[None], traj.v_int[None],
               [traj.dt])
    return audit


def energy_audit(traj: Trajectory, potential) -> EnergyReport:
    """Energy conservation on every internal step of a dense rescaled run."""
    return _dense_audit(traj, potential, None, "energy_audit").energy(0)


def confinement_check(traj: Trajectory, potential, v) -> BoundsCheck:
    """Check the a-priori speed/sublevel/ball bounds on every internal step
    of a dense rescaled run."""
    return _dense_audit(traj, potential, v, "confinement_check").bounds(0)


def _tube_half_width(potential, v, eps) -> float:
    """g^-1(0.5 eps eps |v| |v|), the conservation tube's half-width in r."""
    vnorm = float(np.linalg.norm(v))
    return float(potential.profile.inverse(0.5 * eps * eps * vnorm * vnorm))


def limit_tolerance(potential, p, v, epsilons: Sequence[float]) -> float:
    """Twice the ambient half-width of the conservation tube of the
    second-smallest member (of the only member of a family of one),
    2 g^-1(eps^2 |v|^2 / 2) / |grad f(p)|: consecutive members agreeing to
    the width the theory confines them to is exactly what the Cauchy
    diagnostic can demand without assuming a convergence rate."""
    eps = np.asarray(epsilons, dtype=float)
    gradn = float(np.linalg.norm(potential.field.gradient(p)))
    return 2.0 * _tube_half_width(potential, v, eps[-2 if len(eps) > 1 else -1]) / gradn


def step_error_limit(potential, p, v, epsilons: Sequence[float]) -> float:
    """The family's step-error gate: STEP_ERROR_FRACTION of the
    :func:`limit_tolerance`."""
    return STEP_ERROR_FRACTION * limit_tolerance(potential, p, v, epsilons)


@dataclass(frozen=True)
class StepPlan:
    """How :func:`family_for_gates` chose its members' substeps: each
    member's ceiling and probe substeps (:func:`member_substeps`), the
    probe's readings that :func:`planned_substeps` read (step error, inf
    when it has none, energy drift and confinement verdict) and the
    iterations of every lockstep call the family made (:func:`step_calls`),
    probe included."""

    ceilings: List[int]
    probe: List[int]
    probe_step_errors: List[float]
    probe_drifts: List[float]
    probe_confined: List[bool]
    iterations: int


@dataclass(eq=False)
class FamilyResult:
    """Rescaled trajectories for a geometric eps schedule on one output grid,
    with a physical run beside each.

    Members and physical runs keep only their output nodes; ``energies``
    and ``bounds`` audited every internal state of each member as it ran
    (see :class:`RunAudits`), and a member's dense run is
    :func:`integrate_rescaled` at its eps, the horizon and the options with
    step factor ``members[j].dt / eps_j``.  Member j steps at
    ``members[j].dt``, ``substeps[j]`` steps per output interval.
    ``physical[j]`` is the run from (p, eps_j v) to T/eps_j integrated
    beside it (see :func:`_member_runs`), and ``step_errors[j]`` is their
    sup node distance; one that blew up ends early, with its error in
    ``physical_errors`` and an infinite step error.  ``plan`` records how
    :func:`family_for_gates` chose the substeps.
    """

    potential: CompositePotential
    p: Array
    v: Array
    horizon: float
    options: IntegratorOptions
    epsilons: Array
    tau: Array
    members: List[Trajectory]
    energies: List[EnergyReport]
    bounds: List[BoundsCheck]
    physical: List[Trajectory]
    physical_errors: Dict[int, BlowUpError]
    step_errors: Array
    plan: StepPlan

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def substeps(self) -> List[int]:
        spacing = float(self.tau[1] - self.tau[0])
        return [round(spacing / member.dt) for member in self.members]


@dataclass(eq=False)
class _MemberRun:
    """One member of a family lockstep call: its nodes and audits, its
    physical run (with its BlowUpError, if any), its step error (inf when
    either run blew up) and the error of its halves, if one blew up."""

    member: Trajectory
    energy: EnergyReport
    bounds: BoundsCheck
    physical: Trajectory
    physical_error: Optional[BlowUpError]
    step_error: float
    error: Optional[BlowUpError]


def _member_runs(potential, p, v, T, epsilons, opts: IntegratorOptions,
                 substeps: Sequence[int], labels: Sequence[int]) -> List[_MemberRun]:
    """Members ``labels`` of a family, at ``epsilons`` and ``substeps``, in
    one lockstep call, every internal state of each member audited as it is
    made.

    Rows 2i and 2i + 1 of the call are the halves of the i-th member.  Row
    2 count + i solves xdd = -grad U from (p, eps_i v) to T/eps_i on the
    forward half's ``half`` output intervals scaled by 1/eps_i, at c_i =
    ceil(m_i/2) substeps per interval (2 when m_i = 1), so the lockstep
    loop runs no longer: its nodes are those of :func:`integrate_newton` to
    T/eps_i with n_out = half + 1 at c_i substeps, bit for bit, and its node
    k is the physical state at the time of the member's node half + k.  As
    x_phys(tau/eps_i) = x_resc(tau), its sup node distance from the forward
    half is the member's step error.  Every row keeps only its output
    nodes.  Errors name members by their label j.
    """
    p, v, batch = _halves(potential, p, v, T, epsilons, opts, substeps)
    count, half = len(epsilons), (opts.n_out - 1) // 2
    for eps, m in zip(epsilons, substeps):
        c = _physical_substeps(m)
        batch.append((p, float(eps) * v, 1.0, (c, T / float(eps) / half / c, half * c)))
    audits = RunAudits(potential, epsilons, p, v)

    def observe(rows, first, X, V, due):
        # the members' halves feed their audits as run i; row 2i + 1, the
        # backward half, counts its steps down from 0
        member = [c for c, r in enumerate(rows.tolist()) if r < 2 * count and due[c]]
        for length in set(due[c] for c in member):  # one length but in a row's last chunk
            cols = [c for c in member if due[c] == length]
            rs = rows[cols]
            k = (1 - 2 * (rs % 2))[:, None] * (first + np.arange(length))
            audits.feed(rs // 2, k, X[:length].transpose(1, 0, 2)[cols],
                        V[:length].transpose(1, 0, 2)[cols], [batch[r][3][1] for r in rs])

    Xs, Vs, failures = _lockstep(potential, batch, dense=False, observe=observe)
    runs = []
    for i, (j, eps) in enumerate(zip(labels, epsilons)):
        row = 2 * count + i
        error, exc = _half_error(failures, i, eps), failures.get(row)
        if exc is not None:
            exc = BlowUpError(f"physical run j={j} (eps={eps:g}) blew up: {exc}",
                              last_time=exc.last_time, last_state=exc.last_state)
        step_error = (np.inf if exc is not None or error is not None
                      else float(np.max(np.linalg.norm(Xs[row] - Xs[2 * i], axis=1))))
        x_nodes = np.concatenate([Xs[2 * i + 1][:0:-1], Xs[2 * i]])
        v_nodes = np.concatenate([Vs[2 * i + 1][:0:-1], Vs[2 * i]])
        Xs[2 * i] = Xs[2 * i + 1] = Vs[2 * i] = Vs[2 * i + 1] = None  # free the halves
        runs.append(_MemberRun(
            member=_run("rescaled", eps, -half, T / half, x_nodes, v_nodes, batch[2 * i][3],
                        dense=False),
            energy=audits.energy(i), bounds=audits.bounds(i),
            physical=_run("physical", float(eps), 0, T / float(eps) / half, Xs[row], Vs[row],
                          batch[row][3], dense=False),
            physical_error=exc, step_error=step_error, error=error))
    return runs


def _failure(j: int, energy: EnergyReport, bounds: BoundsCheck, step_error: float,
             physical_error: Optional[BlowUpError], step_limit: float) -> str:
    """Why member j fails the family stage's audits, or '' when it passes:
    its confinement audit, its energy drift against ENERGY_DRIFT_LIMIT, then
    its step error against ``step_limit``; a physical run that blew up
    appends its ``BlowUpError``, which says where and when it left the
    finite box."""
    member = f"family member j={j} (eps={bounds.epsilon:g})"
    if not bounds.passed:
        return (f"{member} failed its confinement audit (speed_ok={bounds.speed_ok}, "
                f"sublevel_ok={bounds.sublevel_ok}, ball_ok={bounds.ball_ok})")
    if not energy.drift <= ENERGY_DRIFT_LIMIT:
        return (f"{member} failed its energy audit: drift {energy.drift:.3e} > "
                f"ENERGY_DRIFT_LIMIT = {ENERGY_DRIFT_LIMIT:g}")
    if not step_error <= step_limit:
        return (f"{member} failed its step-error audit: step error {step_error:.3e} > "
                f"STEP_ERROR_FRACTION * tol_limit = {step_limit:.3e}"
                + ("" if physical_error is None else f": {physical_error}"))
    return ""


def member_failures(fam: FamilyResult) -> List[str]:
    """Per member, in order, why it fails the family stage's audits ('' when
    it passes): its confinement audit, its energy drift against
    ENERGY_DRIFT_LIMIT, then its step error against :func:`step_error_limit`."""
    step_limit = step_error_limit(fam.potential, fam.p, fam.v, fam.epsilons)
    return [_failure(j, e, b, err, fam.physical_errors.get(j), step_limit)
            for j, (e, b, err) in enumerate(zip(fam.energies, fam.bounds, fam.step_errors))]


def family_for_gates(potential, p, v, T, epsilons,
                     opts: IntegratorOptions = IntegratorOptions()) -> FamilyResult:
    """The family with each member at a constant substep count chosen from
    the gates it must pass, in the lockstep calls of :func:`step_calls`.

    The probe call runs every member at its :func:`member_substeps` probe,
    min(ceiling, M), M the call's longest row under the rho law: no member
    steps coarser than the iterations the call pays for anyway.  A member
    whose probe readings :func:`planned_substeps` accepts keeps its probe
    rows; every other member re-runs once, in a second call of only its
    rows, at its planned substeps.  A re-run member that then
    fails a gate of :func:`member_failures` (or whose halves blew up) runs
    a third time at its ceiling, which is the step the family stage would
    have gated it at alone.  Each run keeps one step throughout, so PEFRL
    keeps its long-time behaviour.  A ceiling past MAX_STEPS fails before
    any run; a member whose halves blew up aborts the family, the lowest
    such j named; a physical run that blew up keeps the nodes it reached.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    ceilings, probe = member_substeps(T, epsilons, opts,  # MAX_STEPS, before any run
                                      exponent=potential.profile.exponent)
    step_limit = step_error_limit(potential, p, v, epsilons)
    half = (opts.n_out - 1) // 2
    # call 0 of step_calls, the probe of every member
    runs = _member_runs(potential, p, v, T, epsilons, opts, probe, range(len(epsilons)))
    readings = ([run.step_error for run in runs], [run.energy.drift for run in runs],
                [run.bounds.passed for run in runs])
    plan = planned_substeps(probe, ceilings, *readings, step_limit)

    def rerun(calls):  # each member keeps the runs of its last call
        for js, substeps in calls:
            for j, member in zip(js, _member_runs(potential, p, v, T, epsilons[js], opts,
                                                  substeps, js)):
                runs[j] = member

    rerun(step_calls(probe, plan, ceilings)[1:])  # call 1, the re-run, if any
    # a run whose halves blew up has an infinite step error, so it fails too
    failed = [j for j, run in enumerate(runs) if _failure(
        j, run.energy, run.bounds, run.step_error, None, step_limit)]
    calls = step_calls(probe, plan, ceilings, failed)
    rerun(calls[2:])  # call 2, the fallback, if any
    for j, (eps, run) in enumerate(zip(epsilons, runs)):
        if run.error is not None:
            raise BlowUpError(
                f"family member j={j} (eps={eps:g}) failed: {run.error}",
                last_time=run.error.last_time, last_state=run.error.last_state) from run.error
    return FamilyResult(
        potential=potential, p=np.asarray(p, dtype=float), v=np.asarray(v, dtype=float),
        horizon=float(T), options=opts, epsilons=epsilons, tau=runs[0].member.tau,
        members=[run.member for run in runs], energies=[run.energy for run in runs],
        bounds=[run.bounds for run in runs], physical=[run.physical for run in runs],
        physical_errors={j: run.physical_error for j, run in enumerate(runs)
                         if run.physical_error is not None},
        step_errors=np.array([run.step_error for run in runs]),
        plan=StepPlan(ceilings=ceilings, probe=probe, probe_step_errors=readings[0],
                      probe_drifts=readings[1], probe_confined=readings[2],
                      iterations=lockstep_iterations(half, calls)))


def run_family(scenario: Scenario) -> FamilyResult:
    """Run the scenario's eps family with its own options, each member at
    the substeps :func:`family_for_gates` chooses."""
    return family_for_gates(scenario.potential, scenario.p, scenario.v, scenario.horizon,
                            scenario.epsilons, scenario.options)
