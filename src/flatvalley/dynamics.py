"""Newtonian dynamics for valley potentials and its slow-velocity rescaling.

Two Cauchy problems are integrated with the same symplectic core:

* physical:  xdd = -grad U(x),            x(0) = p, xd(0) = eps * v
* rescaled:  xdd = -(1/eps^2) grad U(x),  x(0) = p, xd(0) = v

related by x_resc(tau) = x_phys(tau / eps).  The rescaled family with a
geometric eps schedule is the object the analysis module extracts limits
from; conservation of H = |xd|^2/2 + U/eps^2 gives sharp a-priori bounds
(speed, sublevel confinement, ball confinement) that every run is audited
against.

Each kind of run makes one lockstep call of ``integrators.integrate``:
:func:`family_from_runs` (both halves, the physical twin and the
step-error companion of every member), :func:`integrate_rescaled` (both
halves of one run) and :func:`newton_many` (physical runs, a single one
being a batch of one).

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
interpolation error.

Steps: member 0 of a family steps at dtau = step_factor * eps_0, snapped
to dt_0; member j at dt_0 sqrt(eps_j/eps_0), snapped, and at most GROWTH
times member 0's effective factor (:func:`member_step_factors`).  The
transverse amplitude shrinks like eps^2, so this keeps the members' errors
level (energy drifts of 1.1e-12 to 1.9e-12 on the shipped circle, where
dtau = 0.01 eps_j gave 1.9e-12 down to 4.7e-14 and cost the lockstep
32,000 iterations, now 5,800).  Beside each member's forward half the same
lockstep call runs a companion at half its substeps per output interval;
their sup node distance is the member's recorded step error
(``FamilyResult.step_errors``), which the family stage gates on.

Memory grows with nodes, not steps.  The members and twins of a family
keep only their output nodes: the lockstep call stores every m-th state
of each row and streams every internal state of the members through
their conservation audits (:class:`RunAudits`) as it goes, so no (steps +
1, n) array is allocated per run.  Dense internal states are kept only
where they are read: :func:`integrate_rescaled` (which writes both halves
into one array as the call makes them) and :func:`integrate_newton`
return them, and ``Trajectory.sample`` interpolates them with a cubic
spline.
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
from .integrators import integrate

Array = np.ndarray

#: most steps one ``integrate`` call may take: ten times the largest run a
#: shipped scenario, gallery default or test asks for (10^5 steps)
MAX_STEPS = 10**6
#: most members a scenario's eps schedule may have: ten times the shipped
#: count of 6, checked before the schedule is built
MAX_MEMBERS = 64
#: relative slack of the speed, sublevel and ball bounds: room for rounding only
SLACK = 1e-6
#: largest relative energy drift a family member may show
ENERGY_DRIFT_LIMIT = 1e-8
#: largest step error a family member may show, as a fraction of the limit
#: tolerance (``analysis.limit_tolerance``)
STEP_ERROR_FRACTION = 1e-3
#: most a family member's step factor may exceed member 0's effective one
#: under :func:`member_step_factors`
GROWTH = 8
#: a state with |x|^2 + |v|^2 above twice this radius squared has blown up
BLOWUP_RADIUS = 1e6
_TINY = float(np.finfo(float).tiny)


def _number(name: str, value, kind=numbers.Real, error=ScenarioError):
    """``value`` as a float (an int for numbers.Integral); a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        raise error(f"{name} must be a finite {kind.__name__.lower()} number, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def launch_vector(name: str, value, dim: int) -> Array:
    """``value`` as a float ``dim``-vector; its entries must be finite numbers,
    and so must its squared norm."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != (dim,) or not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} must be a {dim}-vector of finite numbers, got {value!r}")
    arr = arr.astype(float)
    # Python floats: a square or a sum past the largest float is inf, with no
    # warning and no OverflowError
    if not sum(x * x for x in arr.tolist()) < math.inf:
        raise ScenarioError(f"{name} is too large: its squared norm overflows")
    return arr


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
    """Resolution knobs of the one stepper, PEFRL (see :mod:`flatvalley.integrators`).

    ``step_factor`` is the c in dtau = c * eps for a rescaled run; physical
    runs use dt = c directly, so a rescaled run and its physical twin have
    the same resolution per unit of rescaled time.  In a family it is
    member 0's factor: the other members step at the factors
    :func:`member_step_factors` derives from it.
    """

    step_factor: float = 0.01
    n_out: int = 401

    def __post_init__(self):
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
    """A sampled solution, with its internal states when it is dense.

    ``tau``/``x``/``v`` live on the equispaced output grid (401 nodes by
    default).  A dense run (from :func:`integrate_rescaled` or
    :func:`integrate_newton`) also holds every internal step in its
    ``*_int`` arrays; output nodes coincide with internal nodes by
    construction.  The members of a family and their physical twins, and
    the evidence runs cut from the twins, keep only their output nodes:
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

    def __post_init__(self):
        self._sampler = None

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

    def sample(self, taus):
        """Cubic-spline positions and velocities at arbitrary interior times
        of a dense run."""
        if not self.dense:
            raise InvalidParameterError(
                "this run kept only its output nodes; sample a dense run from "
                "integrate_rescaled (or integrate_newton) at the same eps, horizon and options")
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


def member_step_factors(T: float, epsilons: Sequence[float],
                        opts: IntegratorOptions = IntegratorOptions()) -> List[float]:
    """The step factor of every member of a family on [-T, T].

    Member 0 steps at ``opts.step_factor``, which snaps to dt_0 = spacing/m_0.
    Member j targets dt_0 sqrt(eps_j/eps_0): the transverse amplitude shrinks
    like eps^2, so a step proportional to sqrt(eps) keeps the step error of
    the members roughly level, where a step proportional to eps spends most
    of the family's steps on its finest members.  A factor is at most GROWTH
    times member 0's effective factor dt_0/eps_0.
    """
    if T <= 0:
        raise InvalidParameterError("horizon T must be positive")
    if not all(float(eps) > 0 for eps in epsilons):
        raise InvalidParameterError("eps must be positive")
    half = (opts.n_out - 1) // 2
    eps0 = float(epsilons[0])
    base = _snap_step(T / half, opts.step_factor * eps0, half)[1] / eps0
    return [opts.step_factor] + [base * min(math.sqrt(eps0 / float(eps)), GROWTH)
                                 for eps in epsilons[1:]]


def member_steps(T: float, epsilons: Sequence[float],
                 opts: IntegratorOptions = IntegratorOptions()) -> List[Tuple[int, float]]:
    """(substeps per output interval, dt) of every member of a family on
    [-T, T] under :func:`member_step_factors`."""
    half = (opts.n_out - 1) // 2
    return [_snap_step(T / half, factor * float(eps), half)[:2]
            for eps, factor in zip(epsilons, member_step_factors(T, epsilons, opts))]


def _halves(potential, p, v, T: float, epsilons: Sequence[float], opts: IntegratorOptions):
    """p and v as arrays, and the lockstep rows (x0, v0, scale, (m, dt,
    steps)) of the rescaled runs from (p, v) on [-T, T], one per eps, each
    at its :func:`member_steps` step: row 2j is run j's forward half from
    (p, v), row 2j + 1 its backward half from (p, -v), both under xdd =
    -(1/eps_j^2) grad U.  Every step count is checked against MAX_STEPS
    before any run starts."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if p.shape != (potential.dim,) or v.shape != (potential.dim,):
        raise InvalidParameterError("p and v must match the potential dimension")
    half = (opts.n_out - 1) // 2
    batch = []
    for eps, (m, dt) in zip(epsilons, member_steps(T, epsilons, opts)):
        scale = 1.0 / (float(eps) * float(eps))
        batch += [(p, v, scale, (m, dt, half * m)), (p, -v, scale, (m, dt, half * m))]
    return p, v, batch


def _half_error(failures: Dict[int, BlowUpError], j: int, eps) -> Optional[BlowUpError]:
    """The error of rescaled run j, whose halves are rows 2j and 2j + 1, or
    None when neither failed.  The forward half runs first in time, so its
    error is the one reported."""
    for row, side, sign in ((2 * j, "forward", 1.0), (2 * j + 1, "backward", -1.0)):
        exc = failures.get(row)
        if exc is not None:
            return BlowUpError(
                f"rescaled run blew up on the {side} half (eps={eps:g}); the solution "
                f"exists globally, so this is an integrator failure: {exc}",
                last_time=sign * exc.last_time,
                last_state=(exc.last_state[0], sign * exc.last_state[1]))
    return None


def integrate_rescaled(potential, p, v, eps: float, T: float,
                       opts: IntegratorOptions = IntegratorOptions()) -> Trajectory:
    """Integrate xdd = -(1/eps^2) grad U(x) on [-T, T] from (p, v): a dense
    run, with every internal state.

    The backward half is obtained by running forward from (p, -v) and
    reflecting time, so a single stepper code path covers both halves; the
    lockstep call runs both and writes their states, as it makes them,
    into one array.  The solution exists globally for every eps; a blow-up
    therefore means the step size failed to resolve the stiffness and is
    reported as an integrator failure.  A family member at the same eps and
    horizon has this run's nodes, bit for bit, when the options carry the
    member's factor from :func:`member_step_factors`.
    """
    _, _, batch = _halves(potential, p, v, T, [eps], opts)
    half, snap = (opts.n_out - 1) // 2, batch[0][3]
    mid = snap[2]  # the index of tau = 0: the backward half reversed comes first
    x_int = np.empty((2 * mid + 1, potential.dim))
    v_int = np.empty_like(x_int)

    def observe(rows, first, X, V, due):
        # row 1, the backward half, counts its steps down from 0 and has its
        # velocities negated; its state 0 is the forward half's
        for c, r in enumerate(rows.tolist()):
            if r == 0:
                x_int[mid + first:mid + first + due[c]] = X[:due[c], c]
                v_int[mid + first:mid + first + due[c]] = V[:due[c], c]
                continue
            lo = int(first == 0)
            if lo < due[c]:
                at = slice(mid - first - due[c] + 1, mid - first - lo + 1)
                x_int[at] = X[lo:due[c], c][::-1]
                v_int[at] = -V[lo:due[c], c][::-1]

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
    evaluated on the block and folded into running maxima per run, and H
    is kept at the output nodes.  Every quantity is row by row and every
    reduction a maximum, so the reports are the same bits however the
    states are cut into blocks: a family feeds its members chunk by chunk
    as the lockstep integrator makes them, :func:`energy_audit` and
    :func:`confinement_check` feed a dense run as one block.  The block
    holding tau = 0, where H(0) is read, comes first.
    """

    def __init__(self, potential, epsilons, p, v, nodes: int):
        self.potential = potential
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.p = np.asarray(p, dtype=float)
        self.v_norm = float(np.linalg.norm(v))
        runs = len(self.epsilons)
        self.values = np.empty((runs, nodes))  # H at the output nodes
        self.h0 = np.empty(runs)
        self.maxima = np.full((runs, 5), -np.inf)  # |H - H(0)|, |v|, U, |x - p|, ball ratio

    def feed(self, runs, k: Array, x: Array, v: Array, dt, stride) -> None:
        """Audit a block of states: row c of the (cols, steps, n) states
        (x, v) holds states of run ``runs[c]`` at the signed step indices
        ``k[c]`` of a step ``dt[c]`` (tau = k dt), whose output nodes are
        every ``stride[c]``-th step."""
        cols, steps, n = x.shape
        runs = np.asarray(runs)
        dt, stride = np.asarray(dt, dtype=float)[:, None], np.asarray(stride)[:, None]
        eps = self.epsilons[runs][:, None]
        U = self.potential.value_many(x.reshape(-1, n)).reshape(cols, steps)
        flat_v = v.reshape(-1, n)
        H = 0.5 * np.einsum("ij,ij->i", flat_v, flat_v).reshape(cols, steps) + U / (eps * eps)
        zero = k == 0
        self.h0[runs[np.nonzero(zero)[0]]] = H[zero]
        node = k % stride == 0
        self.values[runs[np.nonzero(node)[0]],
                    (self.values.shape[1] - 1) // 2 + (k // stride)[node]] = H[node]
        taus = np.abs(k) * dt
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
                            drift=float(self.maxima[j, 0]) / max(abs(h0), 1e-300),
                            values=self.values[j])

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
                      traj.v_int[steps] if v is None else v, len(traj.tau))
    audit.feed([0], np.arange(-steps, steps + 1)[None], traj.x_int[None], traj.v_int[None],
               [traj.dt], [(len(traj.tau_int) - 1) // (len(traj.tau) - 1)])
    return audit


def energy_audit(traj: Trajectory, potential) -> EnergyReport:
    """Energy conservation on every internal step of a dense rescaled run."""
    return _dense_audit(traj, potential, None, "energy_audit").energy(0)


def confinement_check(traj: Trajectory, potential, v) -> BoundsCheck:
    """Check the a-priori speed/sublevel/ball bounds on every internal step
    of a dense rescaled run."""
    return _dense_audit(traj, potential, v, "confinement_check").bounds(0)


@dataclass(eq=False)
class Scenario:
    """A validated experiment description; the one scenario validator.

    p must lie on the valley floor at a regular point of f, v must be
    tangent to it there, and every number must be finite and of its type.
    The eps schedule eps_j = eps0 * ratio^j, j < count <= MAX_MEMBERS, is
    capped below by ``min_eps`` > 0, and both are checked before the
    schedule is built, as are the squares the stages take: the smallest
    eps squared and the squared output spacing must not fall below the
    smallest normal float, and the energy budget's eps0^2 |v|^2 must not
    overflow.  Every family records each member's step error and the family
    stage gates on it; down to eps = 2e-4 (the shipped circle and ellipsoid
    at count 10) the recorded step errors stay at or below 1.3e-9 and
    2.8e-12, two and six orders of magnitude under their limits.
    Once GROWTH caps a member's factor its step count grows like 1/eps
    (64,000 lockstep iterations on the circle at eps = 2e-4), and the cap
    bounds that cost.
    """

    potential: CompositePotential
    p: Array
    v: Array
    horizon: float = 1.0
    eps0: float = 0.1
    ratio: float = 0.5
    count: int = 6
    options: IntegratorOptions = field(default_factory=IntegratorOptions)
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
        self.min_eps = _number("min_eps", self.min_eps)
        if self.horizon <= 0:
            raise ScenarioError("horizon must be positive")
        if self.eps0 <= 0:
            raise ScenarioError("eps0 must be positive")
        if not (0.0 < self.ratio < 1.0):
            raise ScenarioError("ratio must lie in (0, 1)")
        if self.count < 1:
            raise ScenarioError("count must be at least 1")
        if self.count > MAX_MEMBERS:
            raise ScenarioError(f"count must be at most MAX_MEMBERS = {MAX_MEMBERS}, "
                                f"got {self.count}")
        if not self.min_eps > 0:
            raise ScenarioError(f"min_eps must be positive, got {self.min_eps:g}")
        if not isinstance(self.name, str):
            raise ScenarioError(f"name must be a string, got {self.name!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ScenarioError(f"out must be a string, got {self.out!r}")
        smallest = self.eps0 * self.ratio ** (self.count - 1)  # the schedule's last entry
        if smallest < self.min_eps:
            raise ScenarioError(
                f"smallest eps {smallest:.3e} is below the cap {self.min_eps:g}; "
                "shorten the schedule or lower min_eps explicitly")
        # a member's force scale is 1/eps^2, the coordinates' second
        # differences divide by the squared spacing, and the confinement
        # bounds take the budget eps^2 |v|^2 / 2
        if not smallest * smallest >= _TINY:
            raise ScenarioError(
                f"eps0 {self.eps0:g} is too small: the smallest eps {smallest:.3e} squared "
                "is below the smallest normal float")
        spacing = self.horizon / ((self.options.n_out - 1) // 2)
        if not spacing * spacing >= _TINY:
            raise ScenarioError(
                f"horizon {self.horizon:g} is too small: the squared output spacing "
                f"{spacing * spacing:.3e} is below the smallest normal float")
        if not self.eps0 * self.eps0 * vnorm * vnorm < math.inf:
            raise ScenarioError(
                f"eps0 {self.eps0:g} is too large for |v| = {vnorm:g}: "
                "eps0^2 |v|^2 overflows")

    @property
    def epsilons(self) -> Array:
        return self.eps0 * self.ratio ** np.arange(self.count)


@dataclass(eq=False)
class FamilyResult:
    """Rescaled trajectories for a geometric eps schedule on one output grid,
    with their physical twins.

    Members and twins keep only their output nodes; ``energies`` and
    ``bounds`` audited every internal state of each member as it ran (see
    :class:`RunAudits`), and a member's dense run is
    :func:`integrate_rescaled` at its eps, the horizon and the options with
    its :func:`member_step_factors` factor.
    ``twins[j]`` is the physical run from (p, eps_j v) to T/eps_j that was
    integrated beside member j (see :func:`family_from_runs`); a twin that
    blew up ends early and has its error in ``twin_errors``.  Member j steps
    at ``members[j].dt``, ``substeps[j]`` steps per output interval (see
    :func:`member_steps`), and ``step_errors[j]`` is the sup node distance
    of its forward half from the same run at half its substeps.
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
    step_errors: Array

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def substeps(self) -> List[int]:
        spacing = float(self.tau[1] - self.tau[0])
        return [round(spacing / member.dt) for member in self.members]

    @property
    def twin_distances(self) -> Array:
        """Per member, the sup distance between its twin and its forward half
        on the nodes they share: the two routes to the same discrete map."""
        half = (len(self.tau) - 1) // 2
        return np.array([
            float(np.max(np.linalg.norm(twin.x - member.x[half:half + len(twin.x)], axis=1)))
            for member, twin in zip(self.members, self.twins)])


def family_from_runs(potential, p, v, T, epsilons,
                     opts: IntegratorOptions = IntegratorOptions()) -> FamilyResult:
    """Integrate one rescaled run per eps at its :func:`member_steps` step,
    its physical twin and its step-error companion, all in one lockstep
    call, and audit every internal state of each run as it is made.

    Rows 2j and 2j + 1 of the call are member j's halves.  Row 2 count + j,
    the twin, solves xdd = -grad U from (p, eps_j v) to T/eps_j on the
    forward half's ``half`` output intervals at the member's m_j substeps
    per interval: it takes the member's step count, so the lockstep loop
    runs no longer, its nodes are those of the :func:`integrate_newton` run
    to T/eps_j with n_out = half + 1 at the member's factor, bit for bit,
    and its node i is the physical state at the time of member j's node
    half + i.  Row 3 count + j, the companion, is member j's forward half
    at ceil(m_j/2) substeps per interval (2 when m_j = 1): the sup distance
    of its nodes from the forward half's is member j's step error (inf when
    the companion blew up).  Every row keeps only its output nodes.

    A family any of whose members would take more than MAX_STEPS steps
    fails before any member runs; a failing member aborts the family with
    the lowest failing index attached.  A failing twin or companion touches
    no member: a twin keeps the nodes it reached, and its error waits in
    ``twin_errors`` for the certificate stage.
    """
    epsilons = np.asarray(list(epsilons), dtype=float)
    p, v, batch = _halves(potential, p, v, T, epsilons, opts)
    count, half = len(epsilons), (opts.n_out - 1) // 2
    spacing = T / half
    forward = batch[::2]
    batch += [(p, float(eps) * v, 1.0, (m, T / float(eps) / half / m, half * m))
              for eps, (_, _, _, (m, _, _)) in zip(epsilons, forward)]
    for _, _, scale, (m, _, _) in forward:
        c = 2 if m == 1 else (m + 1) // 2
        batch.append((p, v, scale, (c, spacing / c, half * c)))
    audits = RunAudits(potential, epsilons, p, v, opts.n_out)

    def observe(rows, first, X, V, due):
        # the members' halves feed their audits as run j; row 2j + 1, the
        # backward half, counts its steps down from 0, and the audited
        # quantities are even in v
        member = [c for c, r in enumerate(rows.tolist()) if r < 2 * count and due[c]]
        for length in set(due[c] for c in member):  # one length but in a row's last chunk
            cols = [c for c in member if due[c] == length]
            rs = rows[cols]
            k = (1 - 2 * (rs % 2))[:, None] * (first + np.arange(length))
            audits.feed(rs // 2, k, X[:length].transpose(1, 0, 2)[cols],
                        V[:length].transpose(1, 0, 2)[cols], [batch[r][3][1] for r in rs],
                        [batch[r][3][0] for r in rs])

    Xs, Vs, failures = _lockstep(potential, batch, dense=False, observe=observe)
    for j, eps in enumerate(epsilons):
        exc = _half_error(failures, j, eps)
        if exc is not None:
            raise BlowUpError(
                f"family member j={j} (eps={eps:g}) failed: {exc}",
                last_time=exc.last_time, last_state=exc.last_state) from exc
    members, twins, twin_errors, step_errors = [], [], {}, []
    for j, eps in enumerate(epsilons):
        twin, companion = 2 * count + j, 3 * count + j
        exc = failures.get(twin)
        if exc is not None:
            twin_errors[j] = BlowUpError(
                f"physical twin j={j} (eps={eps:g}) blew up: {exc}",
                last_time=exc.last_time, last_state=exc.last_state)
        twins.append(_run("physical", float(eps), 0, T / float(eps) / half, Xs[twin], Vs[twin],
                          batch[twin][3], dense=False))
        step_errors.append(
            np.inf if companion in failures
            else float(np.max(np.linalg.norm(Xs[companion] - Xs[2 * j], axis=1))))
        x_nodes = np.concatenate([Xs[2 * j + 1][:0:-1], Xs[2 * j]])
        v_nodes = np.concatenate([-Vs[2 * j + 1][:0:-1], Vs[2 * j]])
        Xs[2 * j] = Xs[2 * j + 1] = Vs[2 * j] = Vs[2 * j + 1] = None  # free the halves
        members.append(_run("rescaled", eps, -half, spacing, x_nodes, v_nodes, batch[2 * j][3],
                            dense=False))
    return FamilyResult(
        potential=potential, p=p, v=v, horizon=float(T), options=opts,
        epsilons=epsilons, tau=members[0].tau, members=members,
        energies=[audits.energy(j) for j in range(count)],
        bounds=[audits.bounds(j) for j in range(count)],
        twins=twins, twin_errors=twin_errors, step_errors=np.array(step_errors),
    )


def run_family(scenario: Scenario) -> FamilyResult:
    """Run the scenario's eps family with its own options."""
    return family_from_runs(scenario.potential, scenario.p, scenario.v, scenario.horizon,
                            scenario.epsilons, scenario.options)

