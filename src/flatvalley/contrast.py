"""Stability-contrast demos: potentials whose equilibria are NOT unstable.

The oscillating-bump potentials (``painleve``, ``laloy``) have critical
points that are not minima, yet arbitrarily close to the origin the
potential rises to a positive barrier, so every low-energy motion stays
trapped.  These runs are the foil for the valley potentials, where no such
barrier exists and trajectories escape along the floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import dynamics
from .dynamics import (  # noqa: F401 (integrate_newton: flatbench/tracer.py patches it here)
    PROBE_FRACTION,
    PhaseState,
    integrate_newton,
    newton_many,
)
from .errors import InvalidParameterError
from .scenario import IntegratorOptions

Array = np.ndarray

#: half-width of the barrier scan: U is scanned on [-BARRIER_WINDOW, BARRIER_WINDOW]
BARRIER_WINDOW = 0.25
#: points of the barrier scan
BARRIER_GRID = 40001
#: the golden-section search refining each peak stops once its bracket is
#: this narrow relative to max(|x|, 1): a flat maximum is located only to
#: about sqrt(machine eps) of its scale, so narrower brackets refine noise
BARRIER_XTOL = float(np.sqrt(np.finfo(float).eps))
#: integrator settings of every trapped-motion probe: dt = 0.2 (at most; the
#: gallery's t = 100, t = 1000 and laloy's t = 12 take it exactly, 500,
#: 5,000 and 60 steps) on one interior output node, at t/2, the fewest
#: n_out allows, as the check reads only the streamed maxima and each run's
#: dt and steps.  PEFRL's energy error
#: stays O(dt^4) over long times, so the step is set by the drift gate
#: below, not by the excursion: measured on ten painleve probes, drift/gap
#: is 4.0e-6, 1.3e-5, 4.0e-5, 1.9e-4, 2.3e-3 and 2.3e-2 at energy fractions
#: 0.3, 0.5, 0.7, 0.9, 0.99 and 0.999, at t = 100 and t = 1000, and a probe
#: reading more than PROBE_FRACTION of its budget re-runs finer
#: (trapped_motion_check).  Against dt = 0.01, a verdict's max |x| rises by
#: at most 2.7e-8 and falls by at most 9.4e-6 at those fractions: it is a
#: maximum over the visited states, which can straddle a turning point and
#: miss it by up to |U'| (dt/2)^2 / 2, about 1.2e-4 here
TRAP_OPTIONS = IntegratorOptions(n_out=3, step_factor=0.2)
#: largest energy drift a trapped run may show, as a fraction of its gap
#: below the barrier: conservation is what keeps a 1-d motion inside
TRAP_DRIFT_FRACTION = 1e-3
#: initial velocity of every coordinate past the first
COMPANION_SPEED = 1e-3
#: most motions one trapped-motion check may launch: a hundred times the
#: gallery's default of 10, checked before any run's array is built
MAX_TRAJECTORIES = 1000


@dataclass(frozen=True)
class BarrierInfo:
    """A positive barrier bracketing the origin, found by grid scan."""

    x_left: float
    x_right: float
    height: float


def locate_barrier(potential) -> BarrierInfo:
    """Scan U on [-BARRIER_WINDOW, BARRIER_WINDOW] and return the tallest barrier pair.

    The scan takes the global maximum of U on each side of the origin and
    golden-section refines it to float resolution (BARRIER_XTOL); the
    barrier height is the smaller of the two peaks, which is what bounds
    crossings in one dimension.
    """
    if potential.dim != 1:
        raise InvalidParameterError("barrier location is a 1-d diagnostic")
    xs = np.linspace(-BARRIER_WINDOW, BARRIER_WINDOW, BARRIER_GRID)
    us = potential.value_many(xs[:, None])

    def refine(lo: float, hi: float) -> tuple:
        phi = 0.5 * (np.sqrt(5.0) - 1.0)
        a, b = lo, hi
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc = potential.value(np.array([c]))
        fd = potential.value(np.array([d]))
        while b - a > BARRIER_XTOL * max(abs(0.5 * (a + b)), 1.0):
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = potential.value(np.array([d]))
            else:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = potential.value(np.array([c]))
        x = 0.5 * (a + b)
        return x, potential.value(np.array([x]))

    side = {}
    for name, mask in (("left", xs < 0), ("right", xs > 0)):
        sub = np.where(mask)[0]
        i = sub[np.argmax(us[sub])]
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, BARRIER_GRID - 1)]
        side[name] = refine(lo, hi)
    height = min(side["left"][1], side["right"][1])
    if height <= 0:
        raise InvalidParameterError(
            f"no positive barrier inside the window {BARRIER_WINDOW}: peak height {height:g}")
    return BarrierInfo(x_left=side["left"][0], x_right=side["right"][0],
                       height=float(height))


@dataclass(eq=False)
class TrapRecord:
    x0: float
    v0: float
    energy: float
    max_excursion: float
    trapped: bool
    companion_excursion: float  # largest |x_i| of the other coordinates; 0.0 in 1-d
    energy_drift: float  # max |E1 - energy| over every internal state
    dt: float  # the internal step the verdict was read at
    steps: int  # the internal steps of that run


@dataclass(eq=False)
class TrapReport:
    """Verdicts for a batch of sub-barrier motions."""

    barrier: BarrierInfo
    t_end: float
    records: List[TrapRecord]
    call_steps: List[int]  # the steps of each lockstep call, the probe's first

    @property
    def all_trapped(self) -> bool:
        return all(r.trapped for r in self.records)

    def gap(self, record: TrapRecord) -> float:
        """How far the record's energy lies below the barrier height."""
        return self.barrier.height - record.energy


def _streamed_runs(potential, starts, energies: Array, t_end: float, opts: IntegratorOptions):
    """The runs from ``starts`` to ``t_end``, in one lockstep call at
    ``opts``, and per run its largest |x_i| over every internal state, per
    coordinate i, and its largest |E1 - energy|, streamed as the call makes
    the states."""
    dim = potential.dim
    reach = np.zeros((len(starts), dim))
    drift = np.zeros(len(starts))

    def observe(rows, first, X, V, due):
        valid = np.arange(len(X))[:, None] < np.asarray(due)
        reach[rows] = np.maximum(reach[rows], np.max(np.abs(X), axis=0, where=valid[:, :, None],
                                                     initial=0.0))
        axis = np.zeros((np.count_nonzero(valid), dim))  # (x1, 0, ...)
        axis[:, 0] = X[..., 0][valid]
        v1 = V[..., 0][valid]
        error = np.zeros(valid.shape)
        error[valid] = np.abs(0.5 * v1 * v1 + potential.value_many(axis)
                              - np.broadcast_to(energies[rows], valid.shape)[valid])
        drift[rows] = np.maximum(drift[rows], error.max(axis=0))

    runs = newton_many(potential, starts, [t_end] * len(starts), opts, observe=observe)
    return runs, reach, drift


def trapped_motion_check(potential, barrier: BarrierInfo, n_traj: int = 10,
                         t_end: float = 1e3, energy_fraction: float = 0.5) -> TrapReport:
    """Launch sub-barrier motions along the first coordinate and verify that
    it never crosses the barrier, each run stepped from its drift budget.

    Each motion starts at x0 with the speed that puts its energy at
    ``energy_fraction`` of the barrier height; the other coordinates start
    at 0 with velocity COMPANION_SPEED.  Conservation keeps a 1-d motion
    with energy below the barrier inside it.  In the 2-d contrast (``laloy``)
    the first coordinate decouples and stays trapped the same way, while the
    second is repelled and grows exponentially (keep ``t_end`` short); the
    largest |x_i| of the other coordinates is ``companion_excursion``.

    The proof rests on conservation, so the verdict does too: a run is
    trapped when its excursion stays inside the barrier and its
    ``energy_drift``, the largest |E1 - energy| over every internal state of
    the first-coordinate energy E1 = v1^2/2 + U(x1, 0, ...) (H itself in
    1-d, the decoupled x-energy for ``laloy``), is at most
    TRAP_DRIFT_FRACTION of its gap below the barrier.

    Every run is probed in one lockstep call at TRAP_OPTIONS, m substeps
    per output interval.  A run whose drift is at most PROBE_FRACTION of
    its budget keeps its probe.  Every other run re-runs in one second call
    at :func:`flatvalley.dynamics.fourth_order_substeps` from m, r the
    worst drift-to-target ratio among them, clipped to the finest step
    MAX_STEPS allows; its verdict, drift and excursion are
    read from the re-run.  A re-run clipped to the probe's own step would
    repeat the probe, so it is left out.
    """
    if not (0.0 < energy_fraction < 1.0):
        raise InvalidParameterError("energy_fraction must lie in (0, 1)")
    if not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise InvalidParameterError(
            f"n_traj must lie in [1, MAX_TRAJECTORIES = {MAX_TRAJECTORIES}], got {n_traj}")
    inner = 0.6 * min(-barrier.x_left, barrier.x_right)
    x0s = np.linspace(-inner, inner, n_traj)
    target = energy_fraction * barrier.height
    rest = potential.dim - 1
    starts = [np.array([x0] + [0.0] * rest) for x0 in x0s]
    u0s = [potential.value(start) for start in starts]  # for laloy, the 1-d bump alone
    v0s = [float(np.sqrt(max(0.0, 2.0 * (target - u0)))) for u0 in u0s]
    energies = np.array([0.5 * v0 * v0 + u0 for v0, u0 in zip(v0s, u0s)])
    states = [PhaseState(start, [v0] + [COMPANION_SPEED] * rest)
              for start, v0 in zip(starts, v0s)]
    runs, reach, drift = _streamed_runs(potential, states, energies, t_end, TRAP_OPTIONS)
    call_steps = [runs[0].steps]
    drift_target = PROBE_FRACTION * TRAP_DRIFT_FRACTION * (barrier.height - energies)
    rerun = np.flatnonzero(drift > drift_target)
    if rerun.size:
        intervals = TRAP_OPTIONS.n_out - 1
        m = runs[0].steps // intervals
        r = float(np.max(drift[rerun] / drift_target[rerun]))
        plan = dynamics.fourth_order_substeps(m, r, dynamics.MAX_STEPS // intervals)
        if plan > m:
            spacing = t_end / intervals
            opts = IntegratorOptions(n_out=TRAP_OPTIONS.n_out, step_factor=spacing / plan)
            again, reach[rerun], drift[rerun] = _streamed_runs(
                potential, [states[i] for i in rerun], energies[rerun], t_end, opts)
            for i, run in zip(rerun, again):
                runs[i] = run
            call_steps.append(again[0].steps)
    records = []
    for x0, v0, energy, (exc, *others), run_drift, run in zip(
            x0s, v0s, energies.tolist(), reach.tolist(), drift.tolist(), runs):
        inside = barrier.x_left < -exc and exc < barrier.x_right
        records.append(TrapRecord(
            x0=float(x0), v0=v0, energy=energy, max_excursion=exc,
            trapped=bool(inside and run_drift <= TRAP_DRIFT_FRACTION * (barrier.height - energy)),
            companion_excursion=max(others, default=0.0), energy_drift=run_drift,
            dt=run.dt, steps=run.steps))
    return TrapReport(barrier=barrier, t_end=t_end, records=records, call_steps=call_steps)
