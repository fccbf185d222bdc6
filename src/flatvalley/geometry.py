"""Tubular geometry around the valley floor M = {f = 0}.

The unit-rate transversal flow (the flow of grad f / |grad f|^2) increments
f at exactly one unit per unit time, so it fibres a tube around M:

* ``foot_point`` projects x onto M by flowing back for time f(x), and
  ``check_regular_value`` reads |grad f| at the feet of a batch of seeds,
* an :class:`MChart` parametrises M near p as a graph over its tangent
  plane, and the tube map Psi(r, y) = flow(r, psi(y)) yields coordinates
  (r, y) in which r equals f and the potential depends on r alone,
* ``frame_data`` differentiates Psi numerically to get scale factors,
  versors and their duals,
* ``curvilinear_residual`` plugs a trajectory's (r, y) trace into the
  tangential equations of motion, whose residual must vanish.

Numerical discipline: everything downstream differentiates these maps with
small central differences, so every evaluation must be a *smooth* function
of its inputs.  All iteration counts are therefore fixed (never adapted to
a tolerance mid-stencil), and flow step counts are chosen once per stencil
and shared by all of its evaluations.

Batches: every map is one kernel over an (N, n) batch of rows
(``flow_many``, ``foot_many``, ``MChart.surface_many``/``tube_many``/
``coords_many``), and the single-point functions are batches of one.  Flow
step counts, times, f-values and chart coordinates are per row (a scalar
count stands for every row; without one, each row takes ``flow_steps_for``
of its flow time, given or read as f).  ``flow_many`` marches the coarse and
the fine RK4 pass of every row in one lockstep loop, ordered by substep
count, so a batch costs max(2n) iterations of four gradient batches however
many rows and counts it holds.  Each row rounds exactly as it would alone
(elementwise arithmetic, ``np.vecdot`` and per-row ``matmul`` only), so a
batch and a loop of single points agree bit for bit.  A kernel returns its
rows and ``{row: error}`` for the rows that failed, each error what that
row alone would raise; ``raise_first`` raises the lowest-index one, which
is the error a loop over the rows would have stopped at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import (
    ChartDomainError,
    FlatValleyError,
    FlowDomainError,
    InvalidParameterError,
    NewtonConvergenceError,
)
from .fields import TOL_CRIT, TOL_ON_M, TOL_TANGENT, ScalarField, _as_point

Array = np.ndarray

#: target substep of the transversal flow for frame stencils, ``transversal_flow``
#: and ``tube_point``: ``frame_data`` takes second differences of the tube map
#: over ``chart.stencil_step`` (about 2e-4), which divide a flow's error by h^2
FLOW_BASE_STEP = 2.5e-3
#: target substep of every position read (``flow_steps_for``) and of the
#: metric estimate's first differences: at this step the
#: Richardson-combined RK4 already reads a position to rounding
FLOW_COARSE_STEP = 1e-2
#: largest |f(flow(t, x)) - t - f(x)| / (1 + |t|) a flow may leave
FLOW_IDENTITY_TOL = 1e-6
#: |f| the foot-point polish must reach, within this many Newton steps
FOOT_TOL = 1e-12
FOOT_MAX_ITER = 50
#: fixed Newton steps of the chart's graph solve and its residual bound
CHART_NEWTON_ITERS = 12
CHART_NEWTON_TOL = 1e-12
#: largest distance between a foot point and the chart's point over the foot's
#: chart coordinates.  On one sheet of M the two differ by their solves'
#: residuals (|f| of about 1e-12) over |grad f|: at most 1.3e-15 on every
#: shipped node.  Past a fold of the tangent-plane projection the chart's
#: point lies on another sheet, as far off as the chart is wide (about 2 on
#: the circle at horizon 3).  1e-6 sits nine orders above the one and six
#: below the other.
CHART_FOLD_TOL = 1e-6


def raise_first(failures: Dict[int, FlatValleyError]) -> None:
    """Raise the error of the lowest-index failed row, if any row failed."""
    if failures:
        raise failures[min(failures)]


def _single(rows: Array, failures: Dict[int, FlatValleyError]) -> Array:
    """The one row of a batch of one, or its error."""
    raise_first(failures)
    return rows[0]


def default_flow_steps(t: float) -> int:
    return max(8, int(math.ceil(abs(t) / FLOW_BASE_STEP)))


def flow_steps_for(r_values) -> Array:
    """Flow substeps of each row of a batch with flow times ``r_values``:
    ``max(8, ceil((|r| + 1e-3) / FLOW_COARSE_STEP))``, per row, so a point
    near M takes no more than the floor of 8 whatever its batch holds.

    This is the law of position reads and the batch kernels' default: RK4
    at n and 2n substeps, Richardson-combined, reads the shipped nodes' y at
    this step within 1e-15 of a flow with 8x the substeps, i.e. to rounding.
    Frame stencils, which difference over about 2e-4, keep FLOW_BASE_STEP."""
    r = np.abs(np.asarray(r_values, dtype=float)) + 1e-3
    return np.maximum(8, np.ceil(r / FLOW_COARSE_STEP)).astype(int)


def flow_many(fld, X, t, n_steps=None):
    """Flow each row of X along grad f / |grad f|^2 for its own time t[i].

    Fixed-step RK4 with ``n_steps`` substeps per row (a scalar stands for
    every row; by default ``flow_steps_for(t)``), run at n and 2n substeps
    and Richardson-combined; rows with t = 0 are copied.  Both passes of
    every row march in one lockstep loop: the passes are ordered by substep
    count and a finished pass drops off the end of the live prefix, so the
    loop runs max(2n) times.  Each pass rounds as it would alone, with its
    own step t/n or t/2n.  The four slopes and the stage point are buffers
    allocated once per call and sliced to the live prefix, so an iteration
    allocates only the field's gradients and their squared norms.  The step
    columns h, h/2 and h/6 are spread over the coordinate columns once per
    call and sliced with those buffers, so each RK4 product multiplies
    same-shape operands (a broadcast (N, 1) column costs 3-5 times as much
    on thousands of rows); only the division by |grad f|^2, computed afresh
    at every stage, still broadcasts.  A row fails (FlowDomainError) where
    |grad f| drops to TOL_CRIT, or when its result violates the exact
    identity f(flow(t, x)) = t + f(x) by more than FLOW_IDENTITY_TOL
    (1 + |t|), which means its path grazed the critical set; a row that
    fails in both passes reports its coarse pass's error.
    Returns the flowed rows and {row: error}.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(t, dtype=float)
    counts = np.broadcast_to(flow_steps_for(t) if n_steps is None else n_steps, t.shape)
    if counts.dtype.kind not in "iu" or (counts.size and counts.min() < 1):
        raise InvalidParameterError("per-row flow step counts must be integers of at least 1")
    out = X.copy()
    failures: Dict[int, FlatValleyError] = {}
    rows = np.flatnonzero(t != 0.0)
    if rows.size == 0:
        return out, failures
    m = rows.size
    t, counts = t[rows], counts[rows]
    # passes 0 .. m-1 are the coarse ones, m .. 2m-1 the fine ones
    n = np.concatenate([counts, 2 * counts])
    order = np.argsort(-n, kind="stable")
    h = (np.concatenate([t, t]) / n)[order]
    # each pass's step, half step and sixth of a step, spread over the
    # coordinate columns (no broadcasting in the loop, as in integrators.integrate)
    dim = X.shape[1]
    h, half, sixth = (np.repeat(c[:, None], dim, axis=1) for c in (h, 0.5 * h, h / 6.0))
    n = n[order].tolist()
    source = rows[order % m]  # the row each pass flows
    row_of = source.tolist()
    pass_of = (order >= m).astype(int).tolist()  # 0 coarse, 1 fine
    errors = ({}, {})  # each pass's first error per row

    def rhs(Z, out):  # the slopes of the rows of Z, written into out
        G = fld.grad_many(Z)
        gg = np.vecdot(G, G)
        if gg.min() > TOL_CRIT * TOL_CRIT:  # also false when a row is NaN
            np.divide(G, gg[:, None], out=out)
            return
        bad = ~(gg > TOL_CRIT * TOL_CRIT)
        for i in np.flatnonzero(bad):
            errors[pass_of[i]].setdefault(row_of[i], FlowDomainError(
                f"transversal flow approached the critical set (|grad f|^2 = {gg[i]:.3e})",
                state=Z[i].copy()))
        np.divide(G, np.where(bad, 1.0, gg)[:, None], out=out)
        out[bad] = 0.0  # a failed row stands still

    Z = X[source]
    # each in-place update is the operation the plain RK4 expressions do
    buffers = [Z, h, half, sixth] + [np.empty_like(Z) for _ in range(5)]
    z, hh, hf, h6, k1, k2, k3, k4, s = buffers
    live = len(n)
    for k in range(n[0]):
        if n[live - 1] <= k:  # finished passes drop off the end of the live prefix
            while n[live - 1] <= k:
                live -= 1
            z, hh, hf, h6, k1, k2, k3, k4, s = (b[:live] for b in buffers)
        rhs(z, k1)
        rhs(np.add(z, np.multiply(hf, k1, out=s), out=s), k2)
        rhs(np.add(z, np.multiply(hf, k2, out=s), out=s), k3)
        rhs(np.add(z, np.multiply(hh, k3, out=s), out=s), k4)
        # z + sixth (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(z, np.multiply(h6, k1, out=k1), out=z)
    Z = Z[np.argsort(order, kind="stable")]
    coarse, fine = Z[:m], Z[m:]
    end = fine + (fine - coarse) / 15.0
    failures.update(errors[0])
    for i, exc in errors[1].items():
        failures.setdefault(i, exc)
    err = np.abs(fld.f_many(end) - t - fld.f_many(X[rows]))
    for i in np.flatnonzero(~(err <= FLOW_IDENTITY_TOL * (1.0 + np.abs(t)))):
        failures.setdefault(int(rows[i]), FlowDomainError(
            f"flow identity violated by {err[i]:.3e} after time {t[i]:g}; "
            "the path likely grazed the critical set", state=end[i].copy()))
    out[rows] = end
    return out, failures


def transversal_flow(fld, x0, t: float, n_steps: Optional[int] = None) -> Array:
    """Flow x0 along grad f / |grad f|^2 for time t: :func:`flow_many` on one
    row, with ``default_flow_steps(t)`` substeps unless ``n_steps`` is given."""
    n = n_steps if n_steps is not None else default_flow_steps(t)
    return _single(*flow_many(fld, np.asarray(x0, dtype=float)[None], np.array([t], float), n))


def foot_many(fld, X, n_steps=None):
    """Project each row of X onto {f = 0}: flow back by -f(x) with
    ``n_steps`` substeps per row (a scalar stands for every row, by default
    ``flow_steps_for(f(x))``; all rows flow in one :func:`flow_many`
    lockstep), then Newton-polish along grad f to |f| <= FOOT_TOL within
    FOOT_MAX_ITER steps per row, or that row fails.  Returns the feet and
    {row: error}."""
    X = np.asarray(X, dtype=float)
    return _feet(fld, X, fld.f_many(X), n_steps)


def _feet(fld, X, r, n_steps):
    """:func:`foot_many` of the rows X, whose f-values ``r`` are known."""
    Y, failures = flow_many(fld, X, -r, n_steps)
    live = np.array([i for i in range(len(X)) if i not in failures], dtype=int)
    for _ in range(FOOT_MAX_ITER):
        fv = fld.f_many(Y[live])
        unsettled = ~(np.abs(fv) <= FOOT_TOL)
        live, fv = live[unsettled], fv[unsettled]
        if live.size == 0:
            return Y, failures
        G = fld.grad_many(Y[live])
        gg = np.vecdot(G, G)
        ok = gg > TOL_CRIT * TOL_CRIT
        for i in live[~ok]:
            failures[int(i)] = FlowDomainError(
                "foot-point polish hit the critical set", state=Y[i].copy())
        live = live[ok]
        Y[live] = Y[live] - (fv[ok] / gg[ok])[:, None] * G[ok]
    for i in live:
        failures[int(i)] = NewtonConvergenceError(
            f"foot-point polish did not reach |f| <= {FOOT_TOL:g} in {FOOT_MAX_ITER} iterations")
    return Y, failures


def foot_point(fld, x, n_steps: Optional[int] = None) -> Array:
    """Project x onto {f = 0}: :func:`foot_many` on one row."""
    return _single(*foot_many(fld, np.asarray(x, dtype=float)[None], n_steps))


@dataclass(eq=False)
class RegularityReport:
    """Evidence that 0 is (or is not) a regular value of a field."""

    tol: float
    grad_norms: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def min_grad_norm(self) -> float:
        return float(min(self.grad_norms)) if self.grad_norms else float("nan")

    @property
    def passed(self) -> bool:
        return bool(self.grad_norms) and self.min_grad_norm > self.tol and not self.notes


#: smallest |grad f| on the floor for 0 to count as a regular value of f
REGULAR_VALUE_TOL = 1e-3


def check_regular_value(fld: ScalarField, seeds) -> RegularityReport:
    """Project seeds onto {f = 0} in one ``foot_many`` batch and report the
    smallest gradient norm found (it must exceed REGULAR_VALUE_TOL).

    A projection that dies approaching the critical set is itself evidence
    against regularity: the gradient norm at the failure point is recorded
    and the verdict fails.  A polish that does not converge raises, the
    lowest seed's first.  No seeds give a report that does not pass.
    """
    report = RegularityReport(tol=REGULAR_VALUE_TOL)
    X = np.array([_as_point(seed, fld.dim) for seed in seeds]).reshape(-1, fld.dim)
    if not len(X):
        return report
    where, failures = foot_many(fld, X)
    stuck = [i for i in sorted(failures) if isinstance(failures[i], NewtonConvergenceError)]
    if stuck:
        i = stuck[0]
        raise NewtonConvergenceError(
            f"seed {X[i].tolist()} failed to project onto the zero set: {failures[i]}"
        ) from failures[i]
    for i, exc in failures.items():  # FlowDomainError: it approached the critical set
        where[i] = X[i] if exc.state is None else exc.state
    G = fld.grad_many(where)
    report.grad_norms = np.sqrt(np.vecdot(G, G)).tolist()
    for i in sorted(failures):
        report.notes.append(
            f"projection of seed {X[i].tolist()} approached the critical set "
            f"(|grad f| = {report.grad_norms[i]:.3e})"
        )
    return report


@dataclass(frozen=True)
class TubularCoords:
    """Tube coordinates of a point: r is the f-value, y the foot's chart coords."""

    r: float
    y: Array


def _unit(vec: Array, what: str) -> Array:
    n = float(np.linalg.norm(vec))
    if not (n > 0.0) or not np.isfinite(n):
        raise ChartDomainError(f"degenerate {what} (norm {n})")
    return vec / n


@dataclass(eq=False)
class MChart:
    """Graph chart of M centred at p.

    ``basis`` rows span the tangent plane (orthonormal, first row along the
    scenario velocity when one was given); ``normal`` is the unit gradient.
    ``surface_point`` solves the graph equation f(p + y.basis + s normal) = 0
    for s; ``tube_point`` composes it with the transversal flow.
    ``w`` is the chart velocity: surface_point'(0) w equals the velocity the
    chart was built with.  The ``*_many`` methods are the batch kernels
    (see the module docstring); the single-point methods are batches of one.
    """

    field: ScalarField
    p: Array
    normal: Array
    basis: Array
    w: Array
    delta: float

    @property
    def dim(self) -> int:
        return self.p.size

    @property
    def stencil_step(self) -> float:
        """Default central-difference step of the tube map: 1e-4 (1 + |p|)."""
        return 1e-4 * (1.0 + float(np.linalg.norm(self.p)))

    def surface_many(self, Y):
        """Points of M over the chart coordinates Y, one (dim-1,) row each.

        Each row solves f(p + y.basis + s normal) = 0 for s with
        CHART_NEWTON_ITERS Newton steps from s = 0 and must leave
        |f| <= CHART_NEWTON_TOL (1 + |y|) with |y| <= delta.  Returns the
        points and {row: error}.
        """
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim - 1:
            raise InvalidParameterError(f"chart coordinates must be {self.dim - 1}-vectors")
        fld = self.field
        failures: Dict[int, FlatValleyError] = {}
        norms = np.sqrt(np.vecdot(Y, Y))
        live = ~(norms > self.delta)
        for i in np.flatnonzero(~live):
            failures[int(i)] = ChartDomainError(
                f"|y| = {norms[i]:.4g} exceeds the chart radius {self.delta:.4g}")
        base = self.p + (Y[:, None, :] @ self.basis)[:, 0]
        s = np.zeros(len(Y))
        for _ in range(CHART_NEWTON_ITERS):
            Q = base + s[:, None] * self.normal
            fv = fld.f_many(Q)
            dv = np.vecdot(fld.grad_many(Q), self.normal)
            bad = live & ~(np.isfinite(fv) & np.isfinite(dv) & (dv != 0.0))
            for i in np.flatnonzero(bad):
                failures[int(i)] = ChartDomainError(
                    f"graph solve degenerate at y = {Y[i].tolist()} (df/ds = {dv[i]})")
            live &= ~bad
            s = s - np.divide(fv, dv, out=np.zeros_like(s), where=live)
        Q = base + s[:, None] * self.normal
        resid = np.abs(fld.f_many(Q))
        for i in np.flatnonzero(live & ~(resid <= CHART_NEWTON_TOL * (1.0 + norms))):
            failures[int(i)] = ChartDomainError(
                f"graph solve failed at y = {Y[i].tolist()}: |f| = {resid[i]:.3e}; "
                "the chart radius is too large here")
        return Q, failures

    def surface_point(self, y) -> Array:
        return _single(*self.surface_many(np.atleast_1d(np.asarray(y, dtype=float))[None]))

    def tube_many(self, r, Y, flow_steps=None):
        """Psi(r, y) per row: flow the surface point for time r with
        ``flow_steps`` substeps per row (a scalar stands for every row, by
        default ``flow_steps_for(r)``), then pin f(x) = r with three Newton
        steps (rows with r = 0 are the surface points)."""
        r = np.asarray(r, dtype=float)
        fld = self.field
        X, failures = self.surface_many(Y)
        move = r != 0.0
        move[list(failures)] = False
        X, flow_failures = flow_many(fld, X, np.where(move, r, 0.0), flow_steps)
        failures.update(flow_failures)
        move[list(flow_failures)] = False
        rows = np.flatnonzero(move)
        x, rr = X[rows], r[rows]
        for _ in range(3):
            fv = fld.f_many(x) - rr
            G = fld.grad_many(x)
            x = x - (fv / np.vecdot(G, G))[:, None] * G
        X[rows] = x
        return X, failures

    def tube_point(self, r: float, y, flow_steps: Optional[int] = None) -> Array:
        """Psi(r, y): flow the surface point for time r, then pin f(x) = r."""
        n = flow_steps if flow_steps is not None else default_flow_steps(r)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return _single(*self.tube_many(np.array([r], float), y[None], n))

    def coords_many(self, X, flow_steps=None):
        """Tube coordinates of the rows of X: r = f(x), read once, and y
        the chart coordinates of the foot (:func:`foot_many` by r, with
        ``flow_steps`` substeps per row, by default ``flow_steps_for(r)``).
        The foot must lie within delta, and the chart must map y back to it:
        a foot farther than CHART_FOLD_TOL from ``surface_many(y)`` sits past
        a fold of the tangent-plane projection, where y is no coordinate.
        Returns r, y and {row: error}."""
        X = np.asarray(X, dtype=float)
        r = self.field.f_many(X)
        feet, failures = _feet(self.field, X, r, flow_steps)
        y = (self.basis @ (feet - self.p)[:, :, None])[:, :, 0]
        norms = np.sqrt(np.vecdot(y, y))
        for i in np.flatnonzero(norms > self.delta):
            failures.setdefault(int(i), ChartDomainError(
                f"foot point left the chart: |y| = {norms[i]:.4g} > {self.delta:.4g}"))
        rows = np.array([i for i in range(len(X)) if i not in failures], dtype=int)
        surface, surface_failures = self.surface_many(y[rows])
        gaps = np.sqrt(np.vecdot(surface - feet[rows], surface - feet[rows]))
        for i, exc in surface_failures.items():
            failures[int(rows[i])] = exc
        for i in np.flatnonzero(~(gaps <= CHART_FOLD_TOL)):
            failures.setdefault(int(rows[i]), ChartDomainError(
                f"chart coordinates fold: the chart maps y = {y[rows[i]].tolist()} to a "
                f"point {gaps[i]:.3e} from the foot"))
        return r, y, failures

    def coords_of(self, x, flow_steps: Optional[int] = None) -> TubularCoords:
        """Tube coordinates (r, y) of a point: :meth:`coords_many` on one row."""
        r, y, failures = self.coords_many(np.asarray(x, dtype=float)[None], flow_steps)
        raise_first(failures)
        return TubularCoords(r=float(r[0]), y=y[0])


def build_m_chart(fld, p, v=None, *, delta: float) -> MChart:
    """Build the graph chart of M at p with radius delta, first tangent axis along v.

    Requires |f(p)| <= TOL_ON_M, a noncritical gradient, and v (when given)
    tangent at p to within cosine TOL_TANGENT: the limits a scenario's
    launch point and velocity are validated against.
    """
    p = np.asarray(p, dtype=float)
    fp = abs(float(fld.f(p)))
    if fp > TOL_ON_M:
        raise ChartDomainError(f"chart centre is off the surface: |f(p)| = {fp:.3e}")
    g = np.asarray(fld.grad(p), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn <= TOL_CRIT:
        raise ChartDomainError(f"gradient nearly vanishes at p (|grad f| = {gn:.3e})")
    normal = g / gn
    n = p.size
    if n < 2:
        raise ChartDomainError("charts need ambient dimension >= 2")
    columns = []
    w = np.zeros(n - 1)
    if v is not None:
        v = np.asarray(v, dtype=float)
        vnorm = float(np.linalg.norm(v))
        if vnorm > 0.0:
            cosine = abs(float(g @ v)) / (gn * vnorm)
            if cosine > TOL_TANGENT:
                raise ChartDomainError(
                    f"v is not tangent to the surface at p (cosine = {cosine:.3e})")
            v_t = v - float(v @ normal) * normal
            columns.append(_unit(v_t, "tangent direction"))
            w[0] = float(np.linalg.norm(v_t))
    for e in np.eye(n):
        if len(columns) == n - 1:
            break
        cand = e - float(e @ normal) * normal
        for b in columns:
            cand = cand - float(cand @ b) * b
        if float(np.linalg.norm(cand)) > 1e-8:
            columns.append(cand / float(np.linalg.norm(cand)))
    if len(columns) != n - 1:
        raise ChartDomainError("failed to complete an orthonormal tangent basis")
    return MChart(field=fld, p=p, normal=normal, basis=np.array(columns), w=w,
                  delta=float(delta))


@dataclass(eq=False)
class FrameData:
    """Scale factors, versors, duals, and curvature data of the tube map at (r, y).

    All derivatives are central finite differences of Psi with step ``step``;
    second derivatives are nested first differences (the map is only C^2, so
    no higher-order stencils are assumed).
    """

    r: float
    y: Array
    step: float
    h_r: float
    h_tan: Array          # (n-1,)
    e_r: Array            # (n,)
    e_tan: Array          # (n-1, n)
    dual_r: Array         # (n,)
    dual_tan: Array       # (n-1, n)
    d2psi_tan: Array      # (n-1, n-1, n): d^2 Psi / dy_a dy_b
    de_r_dr: Array        # (n,)
    de_r_dy: Array        # (n-1, n)


def frame_data(chart: MChart, rc: TubularCoords, h_step: Optional[float] = None) -> FrameData:
    """Differentiate the tube map numerically at the given coordinates.

    The whole stencil (13 points in 2-D, 23 in 3-D) is one batch of
    ``chart.tube_many``; its rows are listed, and then consumed, in the
    order the differences below use them.
    """
    h = h_step if h_step is not None else chart.stencil_step
    if h <= 0:
        raise InvalidParameterError("frame step must be positive")
    r = rc.r
    y = np.asarray(rc.y, dtype=float)
    k = y.size
    n_flow = default_flow_steps(abs(r) + 2.5 * h)
    ey = np.eye(k)
    plus_y = [y + h * ey[a] for a in range(k)]
    minus_y = [y - h * ey[a] for a in range(k)]
    stencil = [(r, y)] + [(r, yy) for yy in plus_y + minus_y]
    for rr, yy in [(r, y), (r + h, y), (r - h, y)] + [
            (r, yy) for pair in zip(plus_y, minus_y) for yy in pair]:
        stencil += [(rr + h, yy), (rr - h, yy)]          # dPsi/dr at (rr, yy)
    for a in range(k):
        for b in range(a + 1, k):
            stencil += [(r, y + h * ey[a] + h * ey[b]), (r, y + h * ey[a] - h * ey[b]),
                        (r, y - h * ey[a] + h * ey[b]), (r, y - h * ey[a] - h * ey[b])]
    points, failures = chart.tube_many(np.array([s[0] for s in stencil]),
                                       np.array([s[1] for s in stencil]), n_flow)
    raise_first(failures)
    psi = iter(points)

    def dpsi_dr():
        return (next(psi) - next(psi)) / (2.0 * h)

    center = next(psi)
    plus = [next(psi) for _ in range(k)]
    minus = [next(psi) for _ in range(k)]
    d_r = dpsi_dr()
    h_r = float(np.linalg.norm(d_r))
    e_r = _unit(d_r, "radial versor")
    d_tan = np.array([(plus[a] - minus[a]) / (2.0 * h) for a in range(k)])
    h_tan = np.linalg.norm(d_tan, axis=1)
    if np.any(h_tan <= 0.0) or h_r <= 0.0:
        raise ChartDomainError("vanishing scale factor: frame degenerate")
    e_tan = d_tan / h_tan[:, None]

    de_r_dr = (_unit(dpsi_dr(), "radial versor")
               - _unit(dpsi_dr(), "radial versor")) / (2.0 * h)
    de_r_dy = np.array([
        (_unit(dpsi_dr(), "radial versor") - _unit(dpsi_dr(), "radial versor")) / (2.0 * h)
        for _ in range(k)
    ])

    d2 = np.empty((k, k, chart.dim))
    for a in range(k):
        d2[a, a] = (plus[a] - 2.0 * center + minus[a]) / (h * h)
        for b in range(a + 1, k):
            pp, pm, mp, mm = (next(psi) for _ in range(4))
            d2[a, b] = d2[b, a] = (pp - pm - mp + mm) / (4.0 * h * h)

    frame = np.vstack([e_r[None, :], e_tan])
    gram = frame @ frame.T
    if np.linalg.cond(gram) > 1e8:
        raise ChartDomainError("frame Gram matrix is ill conditioned (condition > 1e8)")
    duals = np.linalg.solve(gram, frame)
    return FrameData(
        r=r, y=y, step=h, h_r=h_r, h_tan=h_tan, e_r=e_r, e_tan=e_tan,
        dual_r=duals[0], dual_tan=duals[1:], d2psi_tan=d2,
        de_r_dr=de_r_dr, de_r_dy=de_r_dy,
    )


@dataclass(eq=False)
class MetricMinEstimate:
    """Grid estimate of the smallest eigenvalue of dPsi^T dPsi on a region.

    A geometry tool for inspecting a chart, not a certified minimum: the
    pipeline reads no value of it.
    """

    value: float
    y_box: Array
    n_grid: int
    argmin_r: float
    argmin_y: Array


def pullback_metric_min(chart: MChart, r_range: tuple, y_box,
                        n_grid: int = 7) -> MetricMinEstimate:
    """Minimum of |dPsi(u)|^2 over unit u and the region r in ``r_range``,
    |y_a| <= ``y_box`` (a scalar or one bound per tangent axis).

    Pointwise, min over unit u of |dPsi u|^2 is the smallest eigenvalue of
    J^T J with J the Jacobian of Psi by central differences of step
    ``chart.stencil_step``.  All 2 + 2k stencil points of every grid point
    are one batch of ``chart.tube_many``; ties keep the first grid point in
    r-major order.
    """
    y_box = np.atleast_1d(np.asarray(y_box, dtype=float))
    k = chart.dim - 1
    if y_box.size == 1:
        y_box = np.full(k, float(y_box[0]))
    h = chart.stencil_step
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    n_flow = max(4, int(math.ceil((max(abs(r_lo), abs(r_hi)) + 2.5 * h) / FLOW_COARSE_STEP)))
    axes = [np.linspace(-b, b, n_grid) for b in y_box]
    ys = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    rs = np.repeat(np.linspace(r_lo, r_hi, n_grid), len(ys))
    ys = np.tile(ys, (n_grid, 1))
    # per grid point: Psi(r +- h, y), then Psi(r, y +- h e_a) for each axis a
    ey = np.eye(k)
    stencil_r = [rs + h, rs - h] + [rs] * (2 * k)
    stencil_y = [ys, ys] + [yy for a in range(k) for yy in (ys + h * ey[a], ys - h * ey[a])]
    width = len(stencil_r)
    points, failures = chart.tube_many(np.stack(stencil_r, axis=1).ravel(),
                                       np.stack(stencil_y, axis=1).reshape(-1, k), n_flow)
    points = points.reshape(len(rs), width, chart.dim)
    J = np.stack([(points[:, 2 * c] - points[:, 2 * c + 1]) / (2.0 * h)
                  for c in range(width // 2)], axis=2)
    # a loop over the grid would check the points before the first failed row
    J = J[:min(failures, default=len(rs) * width) // width]
    lam = np.linalg.eigvalsh(np.swapaxes(J, 1, 2) @ J)[:, 0]
    degenerate = np.flatnonzero(lam <= 0.0)
    if degenerate.size:
        i = degenerate[0]
        raise ChartDomainError(
            f"pullback metric degenerate at (r, y) = ({rs[i]:.4g}, {ys[i].tolist()})")
    raise_first(failures)
    i = int(np.argmin(lam))
    return MetricMinEstimate(value=float(lam[i]), y_box=y_box, n_grid=n_grid,
                             argmin_r=float(rs[i]), argmin_y=ys[i].copy())


def curvilinear_residual(chart: MChart, traj, tau_samples, trace_step: Optional[float] = None,
                         frame_step: Optional[float] = None) -> Array:
    """Residual of the tangential equations of motion along a dense run.

    Each sample tau is snapped to the nearest internal step of the run, and
    ``trace_step`` (default: half the run's output spacing) to the nearest
    whole number of its steps, at least one.  The run's own states at the
    snapped tau and one snapped step either side are read in tube
    coordinates, (rdot, ydot, yddot) are formed from them by central
    differences, the frame is evaluated at the centre coordinates, and the
    combination

        (h_r/h_k) <e^k, de_r/dr> rdot^2
      + (1/h_k)   <e^k, d2Psi/dy_a dy_b> ydot_a ydot_b
      + 2 (h_r/h_k) <e^k, de_r/dy_a> ydot_a rdot
      + yddot_k

    is returned per tangent index k.  It vanishes on exact solutions, so
    what comes back is pure discretization error.
    """
    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    if trace_step is None:
        trace_step = 0.5 * float(traj.tau[1] - traj.tau[0])
    if not trace_step > 0:
        raise InvalidParameterError("trace step must be positive")
    h = max(1, round(trace_step / traj.dt))
    H = h * traj.dt
    out = np.empty((taus.size, chart.dim - 1))
    for i, t0 in enumerate(taus):
        c = round((t0 - float(traj.tau_int[0])) / traj.dt)
        if c - h < 0 or c + h > traj.steps:
            raise ChartDomainError(
                f"sample tau = {t0:g} is too close to the grid boundary for step {H:g}")
        if not traj.dense:
            raise InvalidParameterError(
                "this run kept only its output nodes; take the residual of a dense run "
                "from integrate_rescaled at the same eps, horizon and options")
        xs = traj.x_int[[c - h, c, c + h]]
        r, y, failures = chart.coords_many(xs)
        raise_first(failures)
        rdot = (r[2] - r[0]) / (2.0 * H)
        ydot = (y[2] - y[0]) / (2.0 * H)
        yddot = (y[2] - 2.0 * y[1] + y[0]) / (H * H)
        fr = frame_data(chart, TubularCoords(r=float(r[1]), y=y[1]), h_step=frame_step)
        for k in range(chart.dim - 1):
            dual = fr.dual_tan[k]
            hk = fr.h_tan[k]
            term_rr = (fr.h_r / hk) * float(dual @ fr.de_r_dr) * rdot * rdot
            term_yy = float(ydot @ (fr.d2psi_tan @ dual) @ ydot) / hk
            term_cross = 2.0 * (fr.h_r / hk) * float((fr.de_r_dy @ dual) @ ydot) * rdot
            out[i, k] = term_rr + term_yy + term_cross + yddot[k]
    return out


def residual_convergence(chart: MChart, traj, tau_samples) -> dict:
    """Residuals at the default steps and at half of them, with the shrink factor.

    The coarse trace step is the even number of the run's steps nearest to
    half its output spacing (ties up), at least two, and the fine one half
    of it, so both are whole steps; the frame steps are ``chart.stencil_step``
    and half of it.  Second-order stencils should shrink the residual by
    about 4 when all steps are halved; a factor well below that flags a
    noise floor.  The factor is None when the halved-step residual is 0.
    """
    per_interval = round(float(traj.tau[1] - traj.tau[0]) / traj.dt)
    H = 2 * max(1, math.floor(per_interval / 4 + 0.5)) * traj.dt
    hf = chart.stencil_step
    coarse = curvilinear_residual(chart, traj, tau_samples, trace_step=H, frame_step=hf)
    fine = curvilinear_residual(chart, traj, tau_samples, trace_step=H / 2.0, frame_step=hf / 2.0)
    cmax = float(np.max(np.abs(coarse)))
    fmax = float(np.max(np.abs(fine)))
    return {
        "coarse": coarse,
        "fine": fine,
        "coarse_max": cmax,
        "fine_max": fmax,
        "shrink_factor": cmax / fmax if fmax > 0 else None,
    }
