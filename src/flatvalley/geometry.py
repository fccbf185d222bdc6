"""Tubular geometry around the valley floor M = {f = 0}.

The unit-rate transversal flow (the flow of grad f / |grad f|^2) increments
f at exactly one unit per unit time, so it fibres a tube around M:

* ``foot_point`` projects x onto M by flowing back for time f(x),
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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

import numpy as np

from .errors import (
    ChartDomainError,
    FlowDomainError,
    InvalidParameterError,
    NewtonConvergenceError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .fields import ScalarField

Array = np.ndarray

#: target substep of the transversal flow for high-accuracy (frame) work
FLOW_BASE_STEP = 2.5e-3
#: coarser substep for first-derivative-only diagnostics (metric estimates)
FLOW_COARSE_STEP = 1e-2
#: |grad f| guard below which the flow refuses to continue
TOL_CRIT = 1e-7
#: largest |f(flow(t, x)) - t - f(x)| / (1 + |t|) a flow may leave
FLOW_IDENTITY_TOL = 1e-6
#: |f| the foot-point polish must reach, within this many Newton steps
FOOT_TOL = 1e-12
FOOT_MAX_ITER = 50
#: fixed Newton steps of the chart's graph solve and its residual bound
CHART_NEWTON_ITERS = 12
CHART_NEWTON_TOL = 1e-12
#: largest |f(p)| for a point to count as on the valley floor (scenarios, charts)
TOL_ON_M = 1e-9
#: largest cosine between a launch velocity and grad f(p) (scenarios, charts)
TOL_TANGENT = 1e-8


def _flow_rhs(fld):
    grad = fld.grad

    def rhs(x):
        g = np.asarray(grad(x), dtype=float)
        gg = float(g @ g)
        if not (gg > TOL_CRIT * TOL_CRIT):
            raise FlowDomainError(
                f"transversal flow approached the critical set (|grad f|^2 = {gg:.3e})",
                state=np.asarray(x, dtype=float),
            )
        return g / gg

    return rhs


def _rk4(rhs, x, h: float, n: int) -> Array:
    for _ in range(n):
        k1 = rhs(x)
        k2 = rhs(x + (0.5 * h) * k1)
        k3 = rhs(x + (0.5 * h) * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def default_flow_steps(t: float) -> int:
    return max(8, int(math.ceil(abs(t) / FLOW_BASE_STEP)))


def flow_steps_for(r_values) -> int:
    """Flow substeps shared by a batch of points with f-values ``r_values``:
    enough for the farthest of them from M, with a 1e-3 margin."""
    return default_flow_steps(float(np.max(np.abs(r_values))) + 1e-3)


def transversal_flow(fld, x0, t: float, n_steps: Optional[int] = None) -> Array:
    """Flow x0 along grad f / |grad f|^2 for time t.

    Fixed-step RK4 run at n and 2n substeps, Richardson-combined.  Since
    f(flow(t, x)) = t + f(x) holds exactly in continuous time, the result is
    rejected (FlowDomainError) if it violates that identity by more than
    FLOW_IDENTITY_TOL; a violation means the path grazed the critical set.
    """
    x0 = np.asarray(x0, dtype=float)
    if t == 0.0:
        return x0.copy()
    rhs = _flow_rhs(fld)
    n = n_steps if n_steps is not None else default_flow_steps(t)
    coarse = _rk4(rhs, x0, t / n, n)
    fine = _rk4(rhs, x0, t / (2 * n), 2 * n)
    out = fine + (fine - coarse) / 15.0
    err = abs(fld.f(out) - t - fld.f(x0))
    if not (err <= FLOW_IDENTITY_TOL * (1.0 + abs(t))):
        raise FlowDomainError(
            f"flow identity violated by {err:.3e} after time {t:g}; "
            "the path likely grazed the critical set",
            state=out,
        )
    return out


def flow_identity_residual(fld, x0, t: float) -> float:
    """|f(flow(t, x0)) - t - f(x0)|: the exactness defect of the flow."""
    x0 = np.asarray(x0, dtype=float)
    end = transversal_flow(fld, x0, t)
    return abs(float(fld.f(end)) - t - float(fld.f(x0)))


def foot_point(fld, x, n_steps: Optional[int] = None) -> Array:
    """Project x onto {f = 0}: flow back by -f(x), then Newton-polish.

    The flow lands on M up to integration error; the polish steps along
    grad f remove it, leaving |f(result)| <= FOOT_TOL.
    """
    x = np.asarray(x, dtype=float)
    r = float(fld.f(x))
    y = x.copy() if r == 0.0 else transversal_flow(fld, x, -r, n_steps=n_steps)
    for _ in range(FOOT_MAX_ITER):
        fv = float(fld.f(y))
        if abs(fv) <= FOOT_TOL:
            return y
        g = np.asarray(fld.grad(y), dtype=float)
        gg = float(g @ g)
        if not (gg > TOL_CRIT * TOL_CRIT):
            raise FlowDomainError(
                "foot-point polish hit the critical set", state=y)
        y = y - (fv / gg) * g
    raise NewtonConvergenceError(
        f"foot-point polish did not reach |f| <= {FOOT_TOL:g} in {FOOT_MAX_ITER} iterations")


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
    chart was built with.
    """

    field: "ScalarField"
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

    def surface_point(self, y) -> Array:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim - 1,):
            raise InvalidParameterError(f"chart coordinates must be {self.dim - 1}-vectors")
        if float(np.linalg.norm(y)) > self.delta:
            raise ChartDomainError(
                f"|y| = {np.linalg.norm(y):.4g} exceeds the chart radius {self.delta:.4g}")
        base = self.p + y @ self.basis
        fld = self.field
        s = 0.0
        for _ in range(CHART_NEWTON_ITERS):
            q = base + s * self.normal
            fv = float(fld.f(q))
            dv = float(np.asarray(fld.grad(q), float) @ self.normal)
            if not np.isfinite(fv) or not np.isfinite(dv) or dv == 0.0:
                raise ChartDomainError(
                    f"graph solve degenerate at y = {y.tolist()} (df/ds = {dv})")
            s -= fv / dv
        q = base + s * self.normal
        if not (abs(float(fld.f(q))) <= CHART_NEWTON_TOL * (1.0 + float(np.linalg.norm(y)))):
            raise ChartDomainError(
                f"graph solve failed at y = {y.tolist()}: |f| = {abs(fld.f(q)):.3e}; "
                "the chart radius is too large here")
        return q

    def tube_point(self, r: float, y, flow_steps: Optional[int] = None) -> Array:
        """Psi(r, y): flow the surface point for time r, then pin f(x) = r."""
        x = self.surface_point(y)
        if r == 0.0:
            return x
        x = transversal_flow(self.field, x, r, n_steps=flow_steps)
        fld = self.field
        for _ in range(3):
            fv = float(fld.f(x)) - r
            g = np.asarray(fld.grad(x), dtype=float)
            x = x - (fv / float(g @ g)) * g
        return x

    def coords_of(self, x, flow_steps: Optional[int] = None) -> TubularCoords:
        """Tube coordinates (r, y) of an ambient point: r = f(x), y from the foot."""
        x = np.asarray(x, dtype=float)
        r = float(self.field.f(x))
        foot = foot_point(self.field, x, n_steps=flow_steps)
        y = self.basis @ (foot - self.p)
        if float(np.linalg.norm(y)) > self.delta:
            raise ChartDomainError(
                f"foot point left the chart: |y| = {np.linalg.norm(y):.4g} > {self.delta:.4g}")
        return TubularCoords(r=r, y=y)


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
    """Differentiate the tube map numerically at the given coordinates."""
    h = h_step if h_step is not None else chart.stencil_step
    if h <= 0:
        raise InvalidParameterError("frame step must be positive")
    r = rc.r
    y = np.asarray(rc.y, dtype=float)
    k = y.size
    n_flow = max(8, int(math.ceil((abs(r) + 2.5 * h) / FLOW_BASE_STEP)))

    def psi(rr, yy):
        return chart.tube_point(rr, yy, flow_steps=n_flow)

    center = psi(r, y)

    def dpsi_dr(rr, yy):
        return (psi(rr + h, yy) - psi(rr - h, yy)) / (2.0 * h)

    ey = np.eye(k)
    plus = [psi(r, y + h * ey[a]) for a in range(k)]
    minus = [psi(r, y - h * ey[a]) for a in range(k)]

    d_r = dpsi_dr(r, y)
    h_r = float(np.linalg.norm(d_r))
    e_r = _unit(d_r, "radial versor")
    d_tan = np.array([(plus[a] - minus[a]) / (2.0 * h) for a in range(k)])
    h_tan = np.linalg.norm(d_tan, axis=1)
    if np.any(h_tan <= 0.0) or h_r <= 0.0:
        raise ChartDomainError("vanishing scale factor: frame degenerate")
    e_tan = d_tan / h_tan[:, None]

    de_r_dr = (_unit(dpsi_dr(r + h, y), "radial versor")
               - _unit(dpsi_dr(r - h, y), "radial versor")) / (2.0 * h)
    de_r_dy = np.array([
        (_unit(dpsi_dr(r, y + h * ey[a]), "radial versor")
         - _unit(dpsi_dr(r, y - h * ey[a]), "radial versor")) / (2.0 * h)
        for a in range(k)
    ])

    d2 = np.empty((k, k, chart.dim))
    for a in range(k):
        d2[a, a] = (plus[a] - 2.0 * center + minus[a]) / (h * h)
        for b in range(a + 1, k):
            pp = psi(r, y + h * ey[a] + h * ey[b])
            pm = psi(r, y + h * ey[a] - h * ey[b])
            mp = psi(r, y - h * ey[a] + h * ey[b])
            mm = psi(r, y - h * ey[a] - h * ey[b])
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

    A diagnostic lower bound for the pullback metric, not a certified
    minimum; used to scale velocity bounds in the coordinate reports.
    """

    value: float
    r_range: tuple
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
    ``chart.stencil_step``.
    """
    y_box = np.atleast_1d(np.asarray(y_box, dtype=float))
    k = chart.dim - 1
    if y_box.size == 1:
        y_box = np.full(k, float(y_box[0]))
    h = chart.stencil_step
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    n_flow = max(4, int(math.ceil((max(abs(r_lo), abs(r_hi)) + 2.5 * h) / FLOW_COARSE_STEP)))
    rs = np.linspace(r_lo, r_hi, n_grid)
    axes = [np.linspace(-b, b, n_grid) for b in y_box]
    grids = np.meshgrid(*axes, indexing="ij") if k else []
    ys = (np.stack([g.ravel() for g in grids], axis=1)
          if k else np.zeros((1, 0)))
    ey = np.eye(k)
    best = math.inf
    arg = (rs[0], ys[0])
    for r in rs:
        for y in ys:
            cols = [(chart.tube_point(r + h, y, n_flow) - chart.tube_point(r - h, y, n_flow))
                    / (2.0 * h)]
            for a in range(k):
                cols.append(
                    (chart.tube_point(r, y + h * ey[a], n_flow)
                     - chart.tube_point(r, y - h * ey[a], n_flow)) / (2.0 * h))
            J = np.stack(cols, axis=1)
            lam = float(np.linalg.eigvalsh(J.T @ J)[0])
            if lam <= 0.0:
                raise ChartDomainError(
                    f"pullback metric degenerate at (r, y) = ({r:.4g}, {y.tolist()})")
            if lam < best:
                best = lam
                arg = (float(r), y.copy())
    return MetricMinEstimate(value=best, r_range=(r_lo, r_hi), y_box=y_box,
                             n_grid=n_grid, argmin_r=arg[0], argmin_y=arg[1])


def curvilinear_residual(chart: MChart, traj, tau_samples, trace_step: Optional[float] = None,
                         frame_step: Optional[float] = None) -> Array:
    """Residual of the tangential equations of motion along a trajectory.

    At each sample the trajectory is read in tube coordinates, (rdot, ydot,
    yddot) are formed by central differences with step ``trace_step``
    (default: half the trajectory's output spacing), the frame is evaluated
    at the centre coordinates, and the combination

        (h_r/h_k) <e^k, de_r/dr> rdot^2
      + (1/h_k)   <e^k, d2Psi/dy_a dy_b> ydot_a ydot_b
      + 2 (h_r/h_k) <e^k, de_r/dy_a> ydot_a rdot
      + yddot_k

    is returned per tangent index k.  It vanishes on exact solutions, so
    what comes back is pure discretization error.

    ``traj`` may be a trajectory or a coordinate trace carrying one.
    """
    traj = getattr(traj, "trajectory", traj)
    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    H = trace_step if trace_step is not None else 0.5 * float(traj.tau[1] - traj.tau[0])
    if H <= 0:
        raise InvalidParameterError("trace step must be positive")
    lo, hi = float(traj.tau_int[0]), float(traj.tau_int[-1])
    out = np.empty((taus.size, chart.dim - 1))
    for i, t0 in enumerate(taus):
        if t0 - H < lo or t0 + H > hi:
            raise ChartDomainError(
                f"sample tau = {t0:g} is too close to the grid boundary for step {H:g}")
        stencil = np.array([t0 - H, t0, t0 + H])
        xs, _ = traj.sample(stencil)
        rvals = [float(chart.field.f(x)) for x in xs]
        n_flow = flow_steps_for(rvals)
        coords = [chart.coords_of(x, flow_steps=n_flow) for x in xs]
        rdot = (coords[2].r - coords[0].r) / (2.0 * H)
        ydot = (coords[2].y - coords[0].y) / (2.0 * H)
        yddot = (coords[2].y - 2.0 * coords[1].y + coords[0].y) / (H * H)
        fr = frame_data(chart, coords[1], h_step=frame_step)
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

    The default steps are half the trajectory's output spacing for the trace
    and ``chart.stencil_step`` for the frame.  Second-order stencils should
    shrink the residual by about 4 when all steps are halved; a factor well
    below that flags a noise floor.
    """
    traj = getattr(traj, "trajectory", traj)
    H = 0.5 * float(traj.tau[1] - traj.tau[0])
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
        "shrink_factor": cmax / max(fmax, 1e-300),
    }
