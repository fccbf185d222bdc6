"""Newtonian dynamics for valley potentials and its slow-velocity rescaling.

Two Cauchy problems are integrated with the same symplectic core:

* physical:  xdd = -grad U(x),            x(0) = p, xd(0) = eps * v
* rescaled:  xdd = -(1/eps^2) grad U(x),  x(0) = p, xd(0) = v

related by x_resc(tau) = x_phys(tau / eps).  The rescaled family with a
geometric eps schedule is the object the analysis module extracts limits
from; conservation of H = |xd|^2/2 + U/eps^2 gives sharp a-priori bounds
(speed, sublevel confinement, ball confinement) that every run is audited
against.

Runs are batched: ``rescaled_many`` (both halves of every member of a
family, and for a family the physical twin of every member) and
``newton_many`` (physical runs) make one lockstep call of
``integrators.integrate`` each, and a single run is a batch of one.

The twin of member j is the physical run from (p, eps_j v) to T/eps_j on
the member's forward output grid scaled by 1/eps_j.  It takes the member's
step count, so it costs the lockstep no extra iterations, and its nodes
are the physical states at tau/eps_j for every node tau >= 0 of the
family: the certificate's evidence runs are read off the twins, with no
integration of their own.  Under t = tau/eps_j the twin and the member's
forward half are the same discrete map up to rounding; their distance is
the family's two-route cross-check (``FamilyResult.twin_distances``).

Output grids: every trajectory is reported on an equispaced grid whose
nodes are exact integrator states (the internal step is snapped to divide
the output spacing), so audits and cross-member comparisons never see
interpolation error.  Dense internal states are kept on the trajectory for
derivative work; ``sample`` interpolates them with a cubic spline.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BlowUpError, InvalidParameterError, ScenarioError
from .fields import CompositePotential
from .geometry import TOL_CRIT, TOL_ON_M, TOL_TANGENT
from .integrators import TABLES, integrate

Array = np.ndarray

#: most steps one ``integrate`` call may take: ten times the largest run a
#: shipped scenario, gallery default or test asks for (10^5 steps)
MAX_STEPS = 10**6


def _number(name: str, value, kind=numbers.Real, error=ScenarioError):
    """``value`` as a float (an int for numbers.Integral); a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise error(f"{name} must be a finite {kind.__name__.lower()} number, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def launch_vector(name: str, value, dim: int) -> Array:
    """``value`` as a float ``dim``-vector; its entries must be finite numbers."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != (dim,) or not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} must be a {dim}-vector of finite numbers, got {value!r}")
    return arr.astype(float)


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


@dataclass(frozen=True)
class IntegratorOptions:
    """Stepper choice and resolution knobs.

    ``step_factor`` is the c in dtau = c * eps for rescaled runs; physical
    runs use dt = c directly, so a rescaled run and its physical twin have
    the same resolution per unit of rescaled time.
    """

    method: str = "pefrl"
    step_factor: float = 0.01
    n_out: int = 401
    blowup_radius: float = 1e6

    def __post_init__(self):
        if not (isinstance(self.method, str) and self.method in TABLES):
            raise InvalidParameterError(
                f"unknown integrator {self.method!r}; known: {sorted(TABLES)}")
        object.__setattr__(self, "step_factor",
                           _number("step_factor", self.step_factor, error=InvalidParameterError))
        object.__setattr__(self, "n_out", _number("n_out", self.n_out, numbers.Integral,
                                                  InvalidParameterError))
        if self.step_factor <= 0:
            raise InvalidParameterError("step_factor must be positive")
        if self.n_out < 3 or self.n_out % 2 != 1:
            raise InvalidParameterError("n_out must be an odd integer >= 3")


@dataclass(eq=False)
class Trajectory:
    """A sampled solution with its dense internal states.

    ``tau``/``x``/``v`` live on the equispaced output grid (401 nodes by
    default); the ``*_int`` arrays hold every internal step.  Output nodes
    coincide with internal nodes by construction.  A family's physical
    twins, and the evidence runs cut from them, keep only their output
    nodes: their ``*_int`` arrays are the node arrays, and ``dt`` is still
    the step they were integrated at.
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

    def __post_init__(self):
        self._sampler = None

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def sample(self, taus):
        """Cubic-spline positions and velocities at arbitrary interior times."""
        if self._sampler is None:
            from scipy.interpolate import CubicSpline

            self._sampler = (
                CubicSpline(self.tau_int, self.x_int, axis=0),
                CubicSpline(self.tau_int, self.v_int, axis=0),
            )
        sx, sv = self._sampler
        taus = np.asarray(taus, dtype=float)
        return sx(taus), sv(taus)


def _snap_step(spacing: float, target: float, intervals: int) -> Tuple[int, float, int]:
    """Substeps m per output interval, the internal step spacing / m (at most
    ``target`` up to rounding) and the step count of ``intervals`` intervals.

    Raises InvalidParameterError, before any array is allocated, when the
    run would take more than MAX_STEPS steps.
    """
    if not target > 0:
        raise InvalidParameterError(f"step must be positive, got {target!r}")
    per = float(spacing) / float(target) - 1e-12  # inf, not a numpy warning, on overflow
    m = max(1, math.ceil(per)) if math.isfinite(per) else math.inf
    if intervals * m > MAX_STEPS:
        raise InvalidParameterError(
            f"a run of {intervals} output intervals of {spacing:g} at step {target:g} "
            f"needs more than MAX_STEPS = {MAX_STEPS:g} steps; shorten the horizon or "
            "raise the step")
    return m, spacing / m, intervals * m


def _lockstep(potential, x0, v0, scale, snaps, opts: IntegratorOptions):
    """One ``integrate`` call over rows under xdd = -scale grad U, the row r
    stepping as ``snaps[r]`` = (m, dt, steps) says: per-row (X, V) and
    {row: BlowUpError}."""
    steps = [s for _, _, s in snaps]
    return integrate(potential.gradient_many, x0, v0, [dt for _, dt, _ in snaps],
                     max(steps), steps=steps, scale=-np.asarray(scale, dtype=float),
                     method=opts.method, blowup_radius=opts.blowup_radius)


def _newton_snaps(potential, starts: Sequence[PhaseState], t_ends: Sequence[float],
                  intervals: int, step_factors: Sequence[float]) -> List[Tuple[int, float, int]]:
    """The (m, dt, steps) of physical runs from ``starts[i]`` to ``t_ends[i]``
    on ``intervals`` output intervals at a step of at most ``step_factors[i]``,
    each checked before any run starts."""
    snaps = []
    for s0, t_end, factor in zip(starts, t_ends, step_factors):
        if not math.isfinite(t_end):
            raise InvalidParameterError(f"the horizon t_end must be finite, got {t_end:g}")
        if t_end <= 0:
            raise InvalidParameterError("t_end must be positive")
        if s0.x.size != potential.dim:
            raise InvalidParameterError("initial state dimension does not match the potential")
        snaps.append(_snap_step(t_end / intervals, factor, intervals))
    return snaps


def _newton_run(snap, t_end: float, intervals: int, X: Array, V: Array,
                eps: Optional[float], nodes_only: bool = False) -> Trajectory:
    """A physical run from its internal states; a run cut short by a blow-up
    keeps the output nodes it reached.  With ``nodes_only`` the run keeps
    only its output nodes, which are then also its ``*_int`` arrays."""
    m, dt, _ = snap
    x, v = X[::m].copy(), V[::m].copy()
    tau = np.arange(len(x)) * (t_end / intervals)
    if nodes_only:
        X, V, tau_int = x, v, tau
    else:
        tau_int = np.arange(len(X)) * dt
    return Trajectory(kind="physical", epsilon=eps, tau=tau, x=x, v=v, dt=dt,
                      tau_int=tau_int, x_int=X, v_int=V)


def newton_many(potential, starts: Sequence[PhaseState], t_ends: Sequence[float],
                opts: IntegratorOptions = IntegratorOptions(),
                epsilons: Optional[Sequence[Optional[float]]] = None) -> List[Trajectory]:
    """Integrate xdd = -grad U on [0, t_ends[i]] from each ``starts[i]``, all
    runs in one lockstep call; ``epsilons[i]`` labels run i.

    Raises the BlowUpError of the first run that fails, the error a loop of
    :func:`integrate_newton` stops at.
    """
    intervals = opts.n_out - 1
    snaps = _newton_snaps(potential, starts, t_ends, intervals,
                          [opts.step_factor] * len(starts))
    Xs, Vs, failures = _lockstep(potential, [s0.x for s0 in starts], [s0.v for s0 in starts],
                                 1.0, snaps, opts)
    if failures:
        raise failures[min(failures)]
    labels = [None] * len(starts) if epsilons is None else epsilons
    return [_newton_run(snap, t_end, intervals, X, V, eps)
            for snap, t_end, X, V, eps in zip(snaps, t_ends, Xs, Vs, labels)]


def integrate_newton(potential, s0: PhaseState, t_end: float,
                     opts: IntegratorOptions = IntegratorOptions(),
                     epsilon: Optional[float] = None) -> Trajectory:
    """Integrate xdd = -grad U(x) on [0, t_end] from the given state."""
    return newton_many(potential, [s0], [t_end], opts, [epsilon])[0]


def rescaled_many(potential, p, v, T: float, epsilons: Sequence[float],
                  step_factors: Sequence[float], opts: IntegratorOptions = IntegratorOptions(),
                  twins: bool = False
                  ) -> Tuple[List[Optional[Trajectory]], Dict[int, BlowUpError],
                             List[Trajectory], Dict[int, BlowUpError]]:
    """Integrate xdd = -(1/eps_j^2) grad U(x) on [-T, T] from (p, v) at the
    internal step ``step_factors[j] * eps_j``, both halves of every run in
    one lockstep call.

    With ``twins``, the physical twin of every run rides in the same call:
    twin j solves xdd = -grad U from (p, eps_j v) to T/eps_j at a step of at
    most ``step_factors[j]``, on the forward half's ``half`` output
    intervals (spacing (T/eps_j)/half).  Its nodes are those of the
    :func:`integrate_newton` run to T/eps_j with n_out = half + 1, bit for
    bit; it takes the step count of run j, so the lockstep loop runs no
    longer, and its node i is the physical state at the time of run j's
    node half + i.  A twin keeps only its output nodes (its ``*_int``
    arrays are its node arrays): its internal states are freed before the
    runs are joined, so the twins add almost nothing to the family's
    memory peak.

    Returns (runs, errors, twin_runs, twin_errors): the runs and
    {j: BlowUpError}, each error the one :func:`integrate_rescaled` raises
    for run j (whose entry is None); then the twins (empty without
    ``twins``) and {j: BlowUpError} of the twins that blew up, each of which
    keeps the output nodes it reached.  A twin's failure touches no run.
    Every step count is checked against MAX_STEPS before any run starts.
    """
    if T <= 0:
        raise InvalidParameterError("horizon T must be positive")
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != (potential.dim,) or v.shape != (potential.dim,):
        raise InvalidParameterError("p and v must match the potential dimension")
    half = (opts.n_out - 1) // 2
    spacing = T / half
    count = len(epsilons)
    snaps, scales = [], []
    for eps, factor in zip(epsilons, step_factors):
        eps = float(eps)
        if eps <= 0:
            raise InvalidParameterError("eps must be positive")
        snap = _snap_step(spacing, factor * eps, half)
        snaps += [snap, snap]  # the forward half from (p, v), the backward from (p, -v)
        scales += [1.0 / (eps * eps)] * 2
    x0s, v0s = [p] * len(snaps), [v, -v] * count
    if twins:
        starts = [PhaseState(p, float(eps) * v) for eps in epsilons]
        t_ends = [T / float(eps) for eps in epsilons]
        snaps += _newton_snaps(potential, starts, t_ends, half, step_factors)
        scales += [1.0] * count
        x0s += [s0.x for s0 in starts]
        v0s += [s0.v for s0 in starts]
    Xs, Vs, failures = _lockstep(potential, x0s, v0s, scales, snaps, opts)
    twin_runs, twin_errors = [], {}
    for j in range(count if twins else 0):
        row, eps = 2 * count + j, float(epsilons[j])
        exc = failures.get(row)
        if exc is not None:
            twin_errors[j] = BlowUpError(
                f"physical twin j={j} (eps={eps:g}) blew up: {exc}",
                last_time=exc.last_time, last_state=exc.last_state)
        twin_runs.append(_newton_run(snaps[row], t_ends[j], half, Xs[row], Vs[row], eps,
                                     nodes_only=True))
        Xs[row] = Vs[row] = None  # free the internal states before the runs are joined
    runs, errors = [], {}
    for j, eps in enumerate(epsilons):
        # the forward half runs first in time, so its error is the one reported
        for row, side, sign in ((2 * j, "forward", 1.0), (2 * j + 1, "backward", -1.0)):
            exc = failures.get(row)
            if exc is not None and j not in errors:
                errors[j] = BlowUpError(
                    f"rescaled run blew up on the {side} half (eps={eps:g}); the solution "
                    f"exists globally, so this is an integrator failure: {exc}",
                    last_time=sign * exc.last_time,
                    last_state=(exc.last_state[0], sign * exc.last_state[1]))
        if j in errors:
            runs.append(None)
            continue
        m, dt, steps = snaps[2 * j]
        x_int = np.concatenate([Xs[2 * j + 1][:0:-1], Xs[2 * j]])
        v_int = np.concatenate([-Vs[2 * j + 1][:0:-1], Vs[2 * j]])
        Xs[2 * j] = Xs[2 * j + 1] = Vs[2 * j] = Vs[2 * j + 1] = None  # free the halves
        runs.append(Trajectory(
            kind="rescaled",
            epsilon=eps,
            tau=np.arange(-half, half + 1) * spacing,
            x=x_int[::m].copy(),
            v=v_int[::m].copy(),
            dt=dt,
            tau_int=np.arange(-steps, steps + 1) * dt,
            x_int=x_int,
            v_int=v_int,
        ))
    return runs, errors, twin_runs, twin_errors


def integrate_rescaled(potential, p, v, eps: float, T: float,
                       opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate xdd = -(1/eps^2) grad U(x) on [-T, T] from (p, v).

    The backward half is obtained by running forward from (p, -v) and
    reflecting time, so a single stepper code path covers both halves.
    The solution exists globally for every eps; a blow-up therefore means
    the step size failed to resolve the stiffness and is reported as an
    integrator failure.
    """
    runs, errors, _, _ = rescaled_many(potential, p, v, T, [eps], [opts.step_factor], opts)
    if errors:
        raise errors[0]
    return runs[0]


@dataclass(eq=False)
class EnergyReport:
    """Conservation audit of H = |v|^2/2 + U/eps^2 along a rescaled run.

    ``drift`` is max |H - H(0)| / max(|H(0)|, 1e-300) over every internal
    step; ``values`` carries H on the output grid for serialization.
    """

    epsilon: float
    h0: float
    drift: float
    values: Array


def energy_drift(H: Array) -> float:
    """max |H - H(0)| / max(|H(0)|, 1e-300), with H(0) the middle sample."""
    h0 = float(H[(len(H) - 1) // 2])
    return float(np.max(np.abs(H - h0)) / max(abs(h0), 1e-300))


def energy_audit(traj: Trajectory, potential) -> EnergyReport:
    if traj.kind != "rescaled" or traj.epsilon is None:
        raise InvalidParameterError("energy_audit expects a rescaled trajectory")
    eps = traj.epsilon
    kinetic = 0.5 * np.einsum("ij,ij->i", traj.v_int, traj.v_int)
    H = kinetic + potential.value_many(traj.x_int) / (eps * eps)
    m = (len(traj.tau_int) - 1) // (len(traj.tau) - 1)
    return EnergyReport(epsilon=eps, h0=float(H[(len(H) - 1) // 2]), drift=energy_drift(H),
                        values=H[::m].copy())


@dataclass(eq=False)
class BoundsCheck:
    """Conservation-law confinement verdicts for one rescaled run.

    speed:      max |xd|      <= |v| (1 + slack)
    sublevel:   max U         <= eps^2 |v|^2 / 2 (1 + slack)
    ball:       |x(tau) - p|  <= |tau| |v| (1 + slack) at every node
    """

    epsilon: float
    v_norm: float
    slack: float
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


def confinement_check(traj: Trajectory, potential, v, slack: float = 1e-6) -> BoundsCheck:
    """Check the a-priori speed/sublevel/ball bounds on every internal step."""
    if traj.kind != "rescaled" or traj.epsilon is None:
        raise InvalidParameterError("confinement_check expects a rescaled trajectory")
    eps = traj.epsilon
    v = np.asarray(v, dtype=float)
    vnorm = float(np.linalg.norm(v))
    center = (len(traj.tau_int) - 1) // 2
    p = traj.x_int[center]
    speeds = np.linalg.norm(traj.v_int, axis=1)
    pots = potential.value_many(traj.x_int)
    disps = np.linalg.norm(traj.x_int - p, axis=1)
    taus = np.abs(traj.tau_int)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(taus > 0, disps / np.where(taus > 0, taus * vnorm, 1.0), 0.0)
    if vnorm == 0.0:
        worst_ratio = float(np.max(disps))  # must be identically zero
        ball_ok = worst_ratio == 0.0
    else:
        worst_ratio = float(np.max(ratios))
        ball_ok = worst_ratio <= 1.0 + slack
    max_speed = float(np.max(speeds))
    max_pot = float(np.max(pots))
    return BoundsCheck(
        epsilon=eps,
        v_norm=vnorm,
        slack=slack,
        max_speed=max_speed,
        max_potential=max_pot,
        max_displacement=float(np.max(disps)),
        worst_ball_ratio=worst_ratio,
        speed_ok=max_speed <= vnorm * (1.0 + slack),
        sublevel_ok=max_pot <= 0.5 * eps * eps * vnorm * vnorm * (1.0 + slack),
        ball_ok=ball_ok,
    )


@dataclass(eq=False)
class Scenario:
    """A validated experiment description; the one scenario validator.

    p must lie on the valley floor at a regular point of f, v must be
    tangent to it there, and every number must be finite and of its type.
    The eps schedule eps_j = eps0 * ratio^j is capped below by ``min_eps``
    because step-size adequacy far below 1e-4 has not been studied.
    """

    potential: CompositePotential
    p: Array
    v: Array
    horizon: float = 1.0
    eps0: float = 0.1
    ratio: float = 0.5
    count: int = 6
    options: IntegratorOptions = field(default_factory=IntegratorOptions)
    slack: float = 1e-6
    min_eps: float = 1e-4
    name: str = "scenario"
    out: Optional[str] = None  # output directory named by the scenario file

    def __post_init__(self):
        P = self.potential
        if not isinstance(P, CompositePotential):
            raise ScenarioError("scenario potentials must be composite (g of f)")
        self.p = launch_vector("p", self.p, P.dim)
        self.v = launch_vector("v", self.v, P.dim)
        fval = abs(P.field.value(self.p))
        if not fval <= TOL_ON_M:
            raise ScenarioError(
                f"p is not on the valley floor: |f(p)| = {fval:.3e} > {TOL_ON_M:g}")
        vnorm = float(np.linalg.norm(self.v))
        if vnorm == 0.0:
            raise ScenarioError("v must be nonzero")
        g = P.field.gradient(self.p)
        gn = float(np.linalg.norm(g))
        if not gn > TOL_CRIT:
            raise ScenarioError(f"p is a critical point of f: |grad f(p)| = {gn:.3e}")
        cosine = abs(float(g @ self.v)) / (gn * vnorm)
        if not cosine <= TOL_TANGENT:
            raise ScenarioError(
                f"v is not tangent to the valley floor at p: cosine = {cosine:.3e}")
        self.horizon = _number("horizon", self.horizon)
        self.eps0 = _number("eps0", self.eps0)
        self.ratio = _number("ratio", self.ratio)
        self.count = _number("count", self.count, numbers.Integral)
        self.slack = _number("slack", self.slack)
        self.min_eps = _number("min_eps", self.min_eps)
        if self.horizon <= 0:
            raise ScenarioError("horizon must be positive")
        if self.eps0 <= 0:
            raise ScenarioError("eps0 must be positive")
        if not (0.0 < self.ratio < 1.0):
            raise ScenarioError("ratio must lie in (0, 1)")
        if self.count < 1:
            raise ScenarioError("count must be at least 1")
        if self.slack < 0:
            raise ScenarioError("slack must be nonnegative")
        if not (self.out is None or isinstance(self.out, str)):
            raise ScenarioError(f"out must be a string, got {self.out!r}")
        if self.epsilons[-1] < self.min_eps:
            raise ScenarioError(
                f"smallest eps {self.epsilons[-1]:.3e} is below the cap {self.min_eps:g}; "
                "shorten the schedule or lower min_eps explicitly")

    @property
    def epsilons(self) -> Array:
        return self.eps0 * self.ratio ** np.arange(self.count)


@dataclass(eq=False)
class FamilyResult:
    """Rescaled trajectories for a geometric eps schedule on one output grid,
    with their physical twins.

    ``twins[j]`` is the physical run from (p, eps_j v) to T/eps_j that was
    integrated beside member j (see :func:`rescaled_many`); a twin that blew
    up ends early and has its error in ``twin_errors``.
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
    twins: List[Trajectory]
    twin_errors: Dict[int, BlowUpError]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def twin_distances(self) -> Array:
        """Per member, the sup distance between its twin and its forward half
        on the nodes they share: the two routes to the same discrete map."""
        half = (len(self.tau) - 1) // 2
        return np.array([
            float(np.max(np.linalg.norm(twin.x - member.x[half:half + len(twin.x)], axis=1)))
            for member, twin in zip(self.members, self.twins)])


def family_from_runs(potential, p, v, T, epsilons,
                     opts: IntegratorOptions = IntegratorOptions(),
                     slack: float = 1e-6) -> FamilyResult:
    """Integrate one rescaled run per eps and its physical twin, all in one
    lockstep call, and audit each run.

    A family any of whose members would take more than MAX_STEPS steps
    fails before any member runs; a failing member aborts the family with
    the lowest failing index attached.  A failing twin never does: its
    error waits in ``twin_errors`` for the certificate stage.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    epsilons = np.asarray(list(epsilons), dtype=float)
    members, errors, twins, twin_errors = rescaled_many(
        potential, p, v, T, epsilons, [opts.step_factor] * len(epsilons), opts, twins=True)
    if errors:
        j = min(errors)
        exc = errors[j]
        raise BlowUpError(
            f"family member j={j} (eps={epsilons[j]:g}) failed: {exc}",
            last_time=exc.last_time, last_state=exc.last_state) from exc
    energies = [energy_audit(traj, potential) for traj in members]
    bounds = [confinement_check(traj, potential, v, slack) for traj in members]
    return FamilyResult(
        potential=potential, p=p, v=v, horizon=float(T), options=opts,
        epsilons=epsilons, tau=members[0].tau, members=members,
        energies=energies, bounds=bounds, twins=twins, twin_errors=twin_errors,
    )


def run_family(scenario: Scenario) -> FamilyResult:
    """Run the scenario's eps family with its own options and slack."""
    return family_from_runs(
        scenario.potential, scenario.p, scenario.v, scenario.horizon,
        scenario.epsilons, scenario.options, scenario.slack,
    )


def halving_error(potential, p, v, eps: float, T: float,
                  opts: IntegratorOptions = IntegratorOptions()) -> float:
    """Sup-norm change of a rescaled run when the internal step is halved.

    A cheap a-posteriori discretization error estimate used by the
    two-route consistency checks.
    """
    (coarse, fine), errors, _, _ = rescaled_many(potential, p, v, T, [eps, eps],
                                           [opts.step_factor, opts.step_factor / 2.0], opts)
    if errors:
        raise errors[min(errors)]
    return float(np.max(np.linalg.norm(coarse.x - fine.x, axis=1)))
