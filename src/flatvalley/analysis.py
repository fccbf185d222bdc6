"""Limit extraction and instability evidence for rescaled families.

The pipeline here is: read each family member in tube coordinates
(``coordinate_traces``), check the transverse coordinate shrinks at the
conservation-law rate and the coordinate accelerations stay bounded
uniformly in eps (``coordinate_report`` records these bounds and names the
first that fails; the measured coordinate speeds are recorded, not gated
on), extract the uniform limit curve from the smallest-eps member
(``extract_limit``) with a Cauchy diagnostic standing in for compactness,
and finally assemble an :class:`InstabilityCertificate`: concrete
evidence that trajectories launched with initial speeds eps_j |v| (going
to zero) still reach distance R/2 from the equilibrium point p at
physical time tau*/eps_j.

That evidence comes from physical integrations independent of the
rescaled members: the family's physical runs (see
:mod:`flatvalley.dynamics`), each integrated in the lockstep call of its
member at a different step from it, which is what makes them the
members' step-error reference too.  ``physical_evidence_runs`` only cuts
each physical run at tau*/eps_j, a node of its grid, so the certificate
stage integrates nothing.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    SLACK,
    FamilyResult,
    Trajectory,
    _tube_half_width,
    energy_drift,
    integrate_newton,  # noqa: F401 (flatbench/tracer.py patches it here)
    limit_tolerance,
)
from .errors import (
    ChartDomainError,
    DegenerateLimitError,
    FlowDomainError,
    IndeterminateCertificateError,
    InvalidParameterError,
    ScheduleTooShortError,
    UnverifiedLimitError,
)
from .geometry import (
    MChart,
    foot_many,
    foot_point,  # noqa: F401 (flatbench/tracer.py patches it here)
    pullback_metric_min,  # noqa: F401 (flatbench/tracer.py patches it here)
    raise_first,
)

Array = np.ndarray


@dataclass(eq=False)
class CoordinateTrace:
    """One family member in tube coordinates, with FD derivatives.

    First derivatives are second-order central differences (one-sided at the
    endpoints); the second derivative is NaN at the two boundary samples,
    which consumers must exclude.
    """

    epsilon: float
    tau: Array
    r: Array             # (N,)
    y: Array             # (N, n-1)
    rdot: Array
    ydot: Array
    yddot: Array         # NaN at endpoints


def coordinate_traces(chart: MChart, family: FamilyResult) -> List[CoordinateTrace]:
    """Read every member through the chart on the family's common grid.

    Every member's nodes are one ``chart.coords_many`` batch, which reads r
    and flows each row back by it, all in one lockstep; the batch is then
    split per member.  The first failed row, in member order, raises,
    naming its member j and tau.
    """
    X = np.concatenate([traj.x for traj in family.members])
    starts = np.cumsum([0] + [len(traj.x) for traj in family.members])
    rs, ys, failures = chart.coords_many(X)
    if failures:
        i = min(failures)
        exc = failures[i]
        j = int(np.searchsorted(starts, i, side="right")) - 1
        tau = family.members[j].tau[i - starts[j]]
        if isinstance(exc, (ChartDomainError, FlowDomainError)):
            raise ChartDomainError(f"tube violation at member j={j}, tau={tau:g}: {exc}") from exc
        raise exc
    return [coordinate_trace(traj.epsilon, traj.tau, r, y) for traj, r, y in
            zip(family.members, np.split(rs, starts[1:-1]), np.split(ys, starts[1:-1]))]


def coordinate_trace(epsilon: float, tau: Array, r: Array, y: Array) -> CoordinateTrace:
    """One member's r and y on its equispaced grid ``tau``, with their
    finite-difference derivatives: what the coordinates stage reads and
    what file revalidation rebuilds from ``coords_eps<j>.csv``."""
    spacing = float(tau[1] - tau[0])
    rdot = np.gradient(r, spacing, edge_order=2)
    ydot = np.gradient(y, spacing, axis=0, edge_order=2)
    yddot = np.full_like(y, np.nan)
    yddot[1:-1] = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (spacing * spacing)
    return CoordinateTrace(epsilon=epsilon, tau=tau, r=r, y=y, rdot=rdot, ydot=ydot,
                           yddot=yddot)


#: second differences of O(1) coordinates on the common grid cannot be
#: trusted below this scale (rounding alone contributes ~4 eps / spacing^2)
_ACCEL_NOISE_FLOOR = 1e-8
#: largest ratio of per-member acceleration maxima of a uniform family
ACCEL_RATIO_BOUND = 4.0


@dataclass(eq=False)
class CoordinateReport:
    """The proof bounds of the tube coordinates, report.json's ``coordinates``
    block field for field: per member, sup |r| stays below g^-1(eps^2 |v|^2 / 2)
    (``r_bounds_ok``) and shrinks with eps (``shrinking``), and the largest
    interior |y''| stays within ACCEL_RATIO_BOUND of the smallest member's
    (``acceleration_uniform_ok``; the ratio is vacuous, None, when every
    acceleration is below measurement noise).  The largest coordinate speeds
    ``max_rdot`` and ``max_ydot`` are recorded, not gated on.
    """

    sup_r: Array
    r_bounds: Array
    r_bounds_ok: bool
    shrinking: bool
    max_rdot: Array
    max_ydot: Array
    acceleration_per_member: Array
    acceleration_bound: float
    acceleration_ratio: Optional[float]
    acceleration_uniform_ok: bool


def coordinate_report(traces: List[CoordinateTrace], potential,
                      v) -> Tuple[CoordinateReport, str]:
    """The traces' :class:`CoordinateReport` and why the run stops on it:
    '' when every bound holds, else the first failing bound (the tube, the
    shrinking of sup |r| with eps, then acceleration uniformity) with its
    first failing member j and eps."""
    eps = np.array([t.epsilon for t in traces])
    sup_r = np.array([float(np.abs(t.r).max()) for t in traces])
    bounds = np.array([_tube_half_width(potential, v, e) for e in eps])
    accel = np.array([float(np.linalg.norm(t.yddot[1:-1], axis=1).max()) for t in traces])
    # below the noise floor every ratio is at most 1: nothing breaks uniformity
    ratios = accel / max(float(accel.min()), _ACCEL_NOISE_FLOOR)
    outside = ~(sup_r <= bounds * (1.0 + SLACK))
    growing = np.concatenate([[False], ~(sup_r[1:] <= sup_r[:-1] * (1.0 + 1e-9) + 1e-15)])
    breaking = ~(ratios <= ACCEL_RATIO_BOUND)
    report = CoordinateReport(
        sup_r=sup_r, r_bounds=bounds, r_bounds_ok=not outside.any(), shrinking=not growing.any(),
        max_rdot=np.array([float(np.abs(t.rdot).max()) for t in traces]),
        max_ydot=np.array([float(np.abs(t.ydot).max()) for t in traces]),
        acceleration_per_member=accel, acceleration_bound=float(accel.max()),
        acceleration_ratio=None if accel.max() <= _ACCEL_NOISE_FLOOR else float(ratios.max()),
        acceleration_uniform_ok=not breaking.any())
    if outside.any():
        j = int(np.argmax(outside))
        return report, (f"member j={j} (eps={eps[j]:g}) leaves the conservation tube: sup |r| = "
                        f"{sup_r[j]:.6g} > g^-1(eps^2 |v|^2 / 2) = {bounds[j]:.6g}")
    if growing.any():
        j = int(np.argmax(growing))
        return report, (f"member j={j} (eps={eps[j]:g}) does not shrink: sup |r| = "
                        f"{sup_r[j]:.6g} > {sup_r[j - 1]:.6g} of member j={j - 1}")
    if breaking.any():
        j = int(np.argmax(breaking))
        return report, (f"member j={j} (eps={eps[j]:g}) breaks acceleration uniformity: "
                        f"max |y''| = {accel[j]:.6g} is {ratios[j]:.6g} times the smallest "
                        f"member maximum, above {ACCEL_RATIO_BOUND:g}")
    return report, ""


@dataclass(eq=False)
class LimitCurve:
    """The uniform limit of the family, represented by its best member.

    Positions are the smallest-eps member projected onto the valley floor
    (no extrapolation: the convergence rate is unknown, so extrapolating
    would be unjustified).  ``verified`` records the Cauchy verdict.
    """

    tau: Array
    x: Array
    xdot0: Array
    p: Array
    verified: bool
    source_epsilon: float
    initial_velocity_error: float


@dataclass(eq=False)
class ConvergenceReport:
    """Cauchy diagnostic for the family on its fixed grid.

    ``distances[j]`` is the sup distance between members j and j+1.  The
    verdict passes when the distances are non-increasing from j = 1 on
    (one pre-asymptotic pair is allowed), up to the rounding the members
    carry, and the last one is below ``tol_limit``.  ``rate_estimates`` are
    the measured consecutive ratios, reported without asserting any order
    of convergence; a ratio is NaN (null in report.json) when either of its
    distances is at or below the rounding floor the monotone check allows.
    """

    epsilons: Array
    distances: Array
    monotone: List[bool]
    tol_limit: float
    cauchy_ok: bool
    violation_max: Array
    rate_estimates: Array


def check_limit_shape(count: int, n_out: int) -> None:
    """Raise InvalidParameterError unless a family of ``count`` members on
    ``n_out`` output nodes is one :func:`extract_limit` can read."""
    if count < 3:
        raise InvalidParameterError("limit extraction needs at least 3 family members")
    if n_out < 5:
        raise InvalidParameterError(
            f"limit extraction needs at least 5 output nodes (n_out >= 5) for its xdot(0) "
            f"stencil, got n_out = {n_out}")


def extract_limit(family: FamilyResult, tol_limit: Optional[float] = None):
    """Extract the limit curve and its convergence diagnostic.

    Needs at least 3 members and 5 output nodes (:func:`check_limit_shape`):
    the xdot(0) stencil reads nodes c - 2 to c + 2.  The default
    ``tol_limit`` is :func:`limit_tolerance` of the family.
    """
    check_limit_shape(family.count, len(family.tau))
    fld = family.potential.field
    eps = family.epsilons
    members = family.members
    d = np.array([
        float(np.max(np.linalg.norm(members[j].x - members[j + 1].x, axis=1)))
        for j in range(len(members) - 1)
    ])
    # rounding floor of a distance: one unit roundoff of the position scale
    # per internal step of the finest member
    best = members[-1]
    floor = np.finfo(float).eps * best.steps * float(np.abs(best.x).max())
    monotone = [bool(d[j] <= d[j - 1] * (1.0 + 1e-3) + floor) for j in range(1, len(d))]
    if tol_limit is None:
        tol_limit = limit_tolerance(family.potential, family.p, family.v, eps)
    cauchy_ok = bool(all(monotone) and d[-1] <= tol_limit)

    x_lim, failures = foot_many(fld, best.x)
    raise_first(failures)
    resid = float(np.abs(fld.value_many(x_lim)).max())
    if resid > 1e-10:
        raise FlowDomainError(f"projection left |f| = {resid:.3e} > 1e-10 on the limit")
    spacing = float(best.tau[1] - best.tau[0])
    c = (len(best.tau) - 1) // 2
    xdot0 = (-x_lim[c + 2] + 8.0 * x_lim[c + 1] - 8.0 * x_lim[c - 1] + x_lim[c - 2]) / (12.0 * spacing)
    limit = LimitCurve(
        tau=best.tau, x=x_lim, xdot0=xdot0, p=family.p,
        verified=cauchy_ok, source_epsilon=float(eps[-1]),
        initial_velocity_error=float(np.linalg.norm(xdot0 - family.v)))
    violations = np.array([float(np.abs(fld.value_many(m.x)).max()) for m in members])
    report = ConvergenceReport(
        epsilons=eps, distances=d, monotone=monotone, tol_limit=float(tol_limit),
        cauchy_ok=cauchy_ok, violation_max=violations,
        rate_estimates=np.array([d[j] / d[j + 1] if min(d[j], d[j + 1]) > floor else np.nan
                                 for j in range(len(d) - 1)]))
    return limit, report


def escape_point(tau: Array, x: Array, p) -> Tuple[int, float, float]:
    """Index k, radius R = |x[k] - p| and time tau* = tau[k] at which x strays
    farthest from p over tau >= 0 (``tau`` is symmetric, 0 at its middle)."""
    c = (len(tau) - 1) // 2
    dist = np.linalg.norm(x[c:] - p, axis=1)
    i = int(np.argmax(dist))
    return c + i, float(dist[i]), float(tau[c + i])


def limit_escape(family: FamilyResult, limit: LimitCurve) -> Tuple[int, float, float, float]:
    """The limit curve's :func:`escape_point` (k, R, tau*) and tol_r, the
    noise ball of ten output steps at speed |v|.  Raises DegenerateLimitError,
    before any run is cut at tau*, when R <= tol_r: the limit shows no escape."""
    spacing = float(limit.tau[1] - limit.tau[0])
    tol_r = 10.0 * spacing * float(np.linalg.norm(family.v))
    k, radius, tau_star = escape_point(limit.tau, limit.x, family.p)
    if radius <= tol_r:
        raise DegenerateLimitError(
            f"limit curve never leaves the noise ball: R = {radius:.3e} <= tol {tol_r:.3e}")
    return k, radius, tau_star, tol_r


def physical_evidence_runs(family: FamilyResult, tau_star: float) -> List[Trajectory]:
    """The physical runs with initial speed eps_j |v|, each up to tau*/eps_j.

    Run j is the family's physical run j (from (p, eps_j v), integrated
    beside member j) cut at its node i, where tau* = tau[half + i] is a
    node of the family grid: that node is the physical state at
    tau*/eps_j, so nothing is integrated or interpolated here.  Raises
    InvalidParameterError unless tau* is a positive node of the grid, and
    the BlowUpError of the lowest j whose physical run blew up before
    reaching node i, the error a run integrated to tau*/eps_j would raise.
    """
    half = (len(family.tau) - 1) // 2
    spacing = float(family.tau[1] - family.tau[0])
    i = round(tau_star / spacing) if 0 < tau_star < np.inf else 0
    if not (0 < i <= half
            and abs(family.tau[half + i] - tau_star) <= 1e-9 * max(1.0, tau_star)):
        raise InvalidParameterError(
            f"tau_star = {tau_star:g} is not a positive node of the family grid")
    runs = []
    for j, run in enumerate(family.physical):
        if len(run.tau) <= i:
            raise family.physical_errors[j]
        tau, x, v = run.tau[:i + 1], run.x[:i + 1], run.v[:i + 1]
        runs.append(Trajectory(kind="physical", epsilon=run.epsilon, tau=tau, x=x, v=v,
                               dt=run.dt, tau_int=tau, x_int=x, v_int=v))
    return runs


@dataclass(eq=False)
class InstabilityCertificate:
    """Checkable escape evidence for the equilibrium (p, 0).

    ``escape_radius`` R is the largest distance the limit curve reaches
    from p on [0, T], at rescaled time ``tau_star``; from index ``j0`` on,
    every member sits within R/2 of the limit there, so each physical
    trajectory, despite its initial speed eps_j |v| -> 0, is at distance
    at least R/2 from p at time tau*/eps_j.
    """

    verdict: str
    escape_radius: float
    tau_star: float
    threshold: float
    j0: int
    epsilons: Array
    member_distances: Array
    evidence: List[dict]
    tol_r: float
    p: Array
    v: Array


def certify_instability(family: FamilyResult, limit: LimitCurve,
                        physical_runs: List[Trajectory]) -> InstabilityCertificate:
    """Assemble the certificate, or raise an indeterminate-certificate error.

    Preconditions: the limit passed its convergence diagnostic, and
    ``physical_runs[j]`` is the physical solution with initial velocity
    eps_j v integrated exactly to tau*/eps_j.
    """
    if not limit.verified:
        raise UnverifiedLimitError()
    p = family.p
    vnorm = float(np.linalg.norm(family.v))
    k, radius, tau_star, tol_r = limit_escape(family, limit)
    member_d = np.array([float(np.linalg.norm(m.x[k] - limit.x[k])) for m in family.members])
    close = member_d < 0.5 * radius
    j0 = None
    for j in range(len(close)):
        if np.all(close[j:]):
            j0 = j
            break
    if j0 is None:
        raise ScheduleTooShortError(
            "no index from which every member stays within R/2 of the limit at tau*; "
            "extend the eps schedule")
    if len(physical_runs) != family.count:
        raise InvalidParameterError("need one physical run per family member")
    evidence = []
    for j in range(j0, family.count):
        eps = float(family.epsilons[j])
        run = physical_runs[j]
        t_end = float(run.tau[-1])
        if abs(t_end * eps - tau_star) > 1e-9 * max(1.0, tau_star):
            raise InvalidParameterError(
                f"physical run j={j} ends at t={t_end:g}, expected tau*/eps = {tau_star / eps:g}")
        disp = float(np.linalg.norm(run.x[-1] - p))
        if disp < 0.5 * radius:
            raise IndeterminateCertificateError(
                f"physical displacement at j={j} is {disp:.6g} < R/2 = {0.5 * radius:.6g}")
        evidence.append({
            "j": j,
            "eps": eps,
            "initial_speed": eps * vnorm,
            "escape_time": tau_star / eps,
            "displacement": disp,
        })
    return InstabilityCertificate(
        verdict="UNSTABLE", escape_radius=radius, tau_star=tau_star,
        threshold=0.5 * radius, j0=j0, epsilons=family.epsilons,
        member_distances=member_d, evidence=evidence, tol_r=float(tol_r),
        p=p.copy(), v=family.v.copy())


#: relative tolerance of revalidation: numbers are recomputed as they were
#: first computed and CSVs round-trip float64, so only a changed number fails
REVALIDATION_RTOL = 1e-12


def check_certificate(claims: Mapping, tau: Array, limit_x: Array,
                      members_x: Sequence[Array],
                      physical_ends: Mapping[int, Array],
                      drifts: Sequence[float], members_h: Sequence[Array]) -> Dict[str, bool]:
    """Re-derive a certificate from arrays: one boolean per named check.

    ``claims`` are the certificate fields by name (``vars`` of an
    :class:`InstabilityCertificate`, or report.json's ``certificate``);
    positions lie on the grid ``tau``.  The evidence displacements are
    re-derived from the physical runs' final states ``physical_ends``, by
    member j.  ``drifts`` are the members' claimed energy
    drifts and ``members_h`` their H on the output grid: the output grid is
    a subset of the internal steps each claim was taken over, so a claim
    below the drift re-derived from H is false.
    """
    def close(value, claim):
        return abs(value - claim) <= REVALIDATION_RTOL * max(1.0, abs(value))

    p = np.asarray(claims["p"], dtype=float)
    k, radius, tau_star = escape_point(tau, limit_x, p)
    threshold, j0, claimed = claims["threshold"], claims["j0"], claims["member_distances"]
    dist = [float(np.linalg.norm(x[k] - limit_x[k])) for x in members_x]
    # from j0 on, each member is within R/2 of the limit at tau* and, being
    # the physical state at tau*/eps, at least R/2 away from p
    members = (len(claimed) == len(dist) and all(map(close, dist, claimed))
               and all(d < threshold <= float(np.linalg.norm(x[k] - p))
                       for d, x in zip(dist[j0:], members_x[j0:])))
    # one evidence row for every member from j0 on
    evidence = [row["j"] for row in claims["evidence"]] == list(range(j0, len(dist)))
    for row in claims["evidence"]:
        moved = float(np.linalg.norm(physical_ends[row["j"]] - p))
        evidence = (evidence and close(moved, row["displacement"]) and moved >= threshold
                    and row["displacement"] >= threshold)
    return {
        "escape_radius": close(radius, claims["escape_radius"]),
        "tau_star": close(tau_star, claims["tau_star"]),
        "threshold": close(0.5 * radius, threshold),
        "members": members,
        "evidence": evidence,
        "j0_covers_schedule": 0 <= j0 < len(claims["epsilons"]),
        "energy_drift": (len(drifts) == len(members_h)
                         and all(energy_drift(h) <= d for d, h in zip(drifts, members_h))),
    }


def revalidate_certificate(cert: InstabilityCertificate, family: FamilyResult,
                           limit: LimitCurve, physical_runs: List[Trajectory]) -> bool:
    """Re-derive every certificate number from the in-memory trajectories."""
    checks = check_certificate(vars(cert), limit.tau, limit.x, [m.x for m in family.members],
                               {j: run.x[-1] for j, run in enumerate(physical_runs)},
                               [e.drift for e in family.energies],
                               [e.values for e in family.energies])
    return all(checks.values())
