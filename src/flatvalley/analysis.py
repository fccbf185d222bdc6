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
physical time tau*/eps_j.  ``instability_certificate`` states that law
once, on arrays: ``certify_instability`` applies it to the run objects,
and ``check_certificate`` rebuilds the certificate with it and compares
every claimed field bit for bit.

That evidence comes from physical integrations independent of the
rescaled members: the family's physical runs (see
:mod:`flatvalley.dynamics`), each integrated in the lockstep call of its
member at a different step from it, which is what makes them the
members' step-error reference too.  ``physical_evidence_runs`` only cuts
each physical run at tau*/eps_j, a node of its grid, so the certificate
stage integrates nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (
    SLACK,
    FamilyResult,
    Trajectory,
    _tube_half_width,
    integrate_newton,  # noqa: F401 (flatbench/tracer.py patches it here)
    limit_tolerance,
)
from .errors import (
    ChartDomainError,
    DegenerateLimitError,
    FlatValleyError,
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
    ``max_rdot`` and ``max_ydot`` are recorded, not gated on.  sup |r| itself
    is not: r = f at the nodes, so it is :class:`ConvergenceReport`'s
    ``violation_max``.
    """

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
        r_bounds=bounds, r_bounds_ok=not outside.any(), shrinking=not growing.any(),
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
    verified: bool


@dataclass(eq=False)
class ConvergenceReport:
    """Cauchy diagnostic for the family on its fixed grid, report.json's
    ``convergence`` block field for field.

    ``distances[j]`` is the sup distance between members j and j+1.  The
    verdict passes when the distances are non-increasing from j = 1 on
    (one pre-asymptotic pair is allowed), up to the rounding the members
    carry, and the last one is below ``tol_limit``.  ``rate_estimates`` are
    the measured consecutive ratios, reported without asserting any order
    of convergence; a ratio is None (null in report.json) when either of its
    distances is at or below the rounding floor the monotone check allows.
    ``violation_max[j]`` is member j's largest |f|; ``initial_velocity_error``
    is |xdot(0) - v| of the limit curve.
    """

    distances: Array
    monotone: List[bool]
    tol_limit: float
    cauchy_ok: bool
    violation_max: Array
    rate_estimates: List[Optional[float]]
    initial_velocity_error: float


def check_limit_shape(count: int, n_out: int) -> None:
    """Raise InvalidParameterError unless a family of ``count`` members on
    ``n_out`` output nodes is one :func:`extract_limit` can read."""
    if count < 3:
        raise InvalidParameterError("limit extraction needs at least 3 family members")
    if n_out < 5:
        raise InvalidParameterError(
            f"limit extraction needs at least 5 output nodes (n_out >= 5) for its xdot(0) "
            f"stencil, got n_out = {n_out}")


def initial_velocity(tau: Array, x: Array) -> Array:
    """xdot(0) of nodes ``x`` on the grid ``tau``: the stencil of nodes c - 2 to c + 2."""
    spacing = float(tau[1] - tau[0])
    c = (len(tau) - 1) // 2
    return (-x[c + 2] + 8.0 * x[c + 1] - 8.0 * x[c - 1] + x[c - 2]) / (12.0 * spacing)


def convergence_report(potential, tau: Array, members_x: Sequence[Array], limit_x: Array,
                       p, v, epsilons, steps: int,
                       tol_limit: Optional[float] = None) -> ConvergenceReport:
    """The :class:`ConvergenceReport` of the members' and the limit's nodes
    on the grid ``tau``, the scenario's p, v and eps schedule and ``steps``,
    the finest member's internal step count (it sets the rounding floor),
    as the limit stage records it and file revalidation rebuilds it.  The
    default ``tol_limit`` is :func:`limit_tolerance` of the scenario."""
    d = np.array([float(np.max(np.linalg.norm(a - b, axis=1)))
                  for a, b in zip(members_x[:-1], members_x[1:])])
    # rounding floor of a distance: one unit roundoff of the position scale
    # per internal step of the finest member
    floor = np.finfo(float).eps * steps * float(np.abs(members_x[-1]).max())
    monotone = [bool(d[j] <= d[j - 1] * (1.0 + 1e-3) + floor) for j in range(1, len(d))]
    if tol_limit is None:
        tol_limit = limit_tolerance(potential, p, v, epsilons)
    return ConvergenceReport(
        distances=d, monotone=monotone, tol_limit=float(tol_limit),
        cauchy_ok=bool(all(monotone) and d[-1] <= tol_limit),
        violation_max=np.array([float(np.abs(potential.field.value_many(x)).max())
                                for x in members_x]),
        rate_estimates=[float(d[j] / d[j + 1]) if min(d[j], d[j + 1]) > floor else None
                        for j in range(len(d) - 1)],
        initial_velocity_error=float(np.linalg.norm(initial_velocity(tau, limit_x) - v)))


def extract_limit(family: FamilyResult, tol_limit: Optional[float] = None):
    """Extract the limit curve and its :func:`convergence_report`.

    Needs at least 3 members and 5 output nodes (:func:`check_limit_shape`):
    the xdot(0) stencil reads nodes c - 2 to c + 2.  The default
    ``tol_limit`` is :func:`limit_tolerance` of the family.
    """
    check_limit_shape(family.count, len(family.tau))
    best = family.members[-1]
    x_lim, failures = foot_many(family.potential.field, best.x)
    raise_first(failures)
    report = convergence_report(family.potential, best.tau, [m.x for m in family.members],
                                x_lim, family.p, family.v, family.epsilons, best.steps,
                                tol_limit)
    limit = LimitCurve(tau=best.tau, x=x_lim, xdot0=initial_velocity(best.tau, x_lim),
                       verified=report.cauchy_ok)
    return limit, report


def escape_point(tau: Array, x: Array, p) -> Tuple[int, float, float]:
    """Index k, radius R = |x[k] - p| and time tau* = tau[k] at which x strays
    farthest from p over tau >= 0 (``tau`` is symmetric, 0 at its middle)."""
    c = (len(tau) - 1) // 2
    dist = np.linalg.norm(x[c:] - p, axis=1)
    i = int(np.argmax(dist))
    return c + i, float(dist[i]), float(tau[c + i])


def noise_ball(tau: Array, v) -> float:
    """tol_r, the noise ball of ten output steps of the grid ``tau`` at speed |v|."""
    return 10.0 * float(tau[1] - tau[0]) * float(np.linalg.norm(v))


def limit_escape(tau: Array, limit_x: Array, p, v) -> Tuple[int, float, float, float]:
    """The limit curve's :func:`escape_point` (k, R, tau*) and its
    :func:`noise_ball` tol_r.  Raises DegenerateLimitError, before any run
    is cut at tau*, when R <= tol_r: the limit shows no escape."""
    tol_r = noise_ball(tau, v)
    k, radius, tau_star = escape_point(tau, limit_x, p)
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
    InvalidParameterError unless tau* is a positive node, i T/half bit for
    bit, and the BlowUpError of the lowest j whose physical run blew up
    before reaching node i, the error a run integrated to tau*/eps_j would
    raise.
    """
    half = (len(family.tau) - 1) // 2
    i = round(tau_star / (family.horizon / half)) if 0 < tau_star < np.inf else 0
    if not (0 < i <= half and family.tau[half + i] == tau_star):
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
    """Checkable escape evidence for the equilibrium (p, 0), report.json's
    ``certificate`` block field for field: the limit curve strays farthest
    from p on [0, T], to ``escape_radius`` R, at rescaled time ``tau_star``;
    every member from ``j0`` on sits within R/2 of the limit there; so each
    physical run from j0 on, despite its initial speed eps_j |v| -> 0, ends
    at least R/2 from p at time tau*/eps_j (``evidence`` row {j,
    displacement}).
    """

    verdict: str
    escape_radius: float
    tau_star: float
    threshold: float
    j0: int
    member_distances: List[float]
    evidence: List[dict]
    tol_r: float


def instability_certificate(p, v, tau: Array, limit_x: Array, members_x: Sequence[Array],
                            ends: Sequence[Array]) -> InstabilityCertificate:
    """The certificate law: the :class:`InstabilityCertificate` of a run
    from (p, v) whose limit and members have nodes ``limit_x`` and
    ``members_x`` on the grid ``tau``, and whose physical run j is at
    ``ends[j]`` at tau*/eps_j.

    Raises DegenerateLimitError when the limit never leaves its noise ball
    (:func:`limit_escape`), ScheduleTooShortError when no j0 puts every
    member from j0 on within R/2 of the limit at tau* (j0 is the smallest
    that does), and IndeterminateCertificateError at the first physical
    run from j0 on that ends less than R/2 from p.  Members from j0 on
    also lie at least R/2 from p at tau*, with no check of their own:
    |x_j - p| >= |x_lim - p| - |x_j - x_lim| = R - d_j > R/2.
    """
    k, radius, tau_star, tol_r = limit_escape(tau, limit_x, p, v)
    threshold = 0.5 * radius
    member_d = [float(np.linalg.norm(x[k] - limit_x[k])) for x in members_x]
    j0 = next((j for j in range(len(member_d)) if all(d < threshold for d in member_d[j:])),
              None)
    if j0 is None:
        raise ScheduleTooShortError(
            "no index from which every member stays within R/2 of the limit at tau*; "
            "extend the eps schedule")
    evidence = []
    for j in range(j0, len(member_d)):
        disp = float(np.linalg.norm(ends[j] - p))
        if disp < threshold:
            raise IndeterminateCertificateError(
                f"physical displacement at j={j} is {disp:.6g} < R/2 = {threshold:.6g}")
        evidence.append({"j": j, "displacement": disp})
    return InstabilityCertificate(
        verdict="UNSTABLE", escape_radius=radius, tau_star=tau_star, threshold=threshold,
        j0=j0, member_distances=member_d, evidence=evidence, tol_r=tol_r)


def evidence_times(tau_star: float, T: float, half: int, epsilons) -> Array:
    """Run j's time at tau*/eps_j as it computes it, i (T/eps_j/half), tau* = i T/half."""
    return round(tau_star / (T / half)) * (T / np.asarray(epsilons, dtype=float) / half)


def certify_instability(family: FamilyResult, limit: LimitCurve,
                        physical_runs: List[Trajectory]) -> InstabilityCertificate:
    """The :func:`instability_certificate` of the family, its limit and
    ``physical_runs[j]``, the physical solution with initial velocity
    eps_j v integrated exactly to tau*/eps_j.

    Raises UnverifiedLimitError unless the limit passed its convergence
    diagnostic, and InvalidParameterError unless there is one run per
    member, each ending at tau*/eps_j (:func:`evidence_times`, bit for bit).
    """
    if not limit.verified:
        raise UnverifiedLimitError()
    _, _, tau_star, _ = limit_escape(limit.tau, limit.x, family.p, family.v)
    if len(physical_runs) != family.count:
        raise InvalidParameterError("need one physical run per family member")
    half = (len(family.tau) - 1) // 2
    for j, (t, run) in enumerate(zip(evidence_times(tau_star, family.horizon, half,
                                                     family.epsilons), physical_runs)):
        if not run.tau[-1] == t:
            raise InvalidParameterError(f"physical run j={j} ends at t = "
                                        f"{float(run.tau[-1])!r}, not tau*/eps_j = {float(t)!r}")
    return instability_certificate(family.p, family.v, limit.tau, limit.x,
                                   [m.x for m in family.members],
                                   [run.x[-1] for run in physical_runs])


def check_certificate(claims: Mapping, p, v, tau: Array, limit_x: Array,
                      members_x: Sequence[Array],
                      physical_ends: Sequence[Array]) -> Dict[str, bool]:
    """Rebuild the certificate with :func:`instability_certificate` from
    the arrays it takes and compare it with ``claims``, its fields by name
    (``vars`` of an :class:`InstabilityCertificate`, or report.json's
    ``certificate``): one check per field, named after it, that its claim
    is the rebuilt field bit for bit; a rebuild that raises fails them all.
    """
    try:
        rebuilt = vars(instability_certificate(p, v, tau, limit_x, members_x, physical_ends))
    except FlatValleyError:
        rebuilt = {}
    return {field.name: field.name in rebuilt and claims.get(field.name) == rebuilt[field.name]
            for field in fields(InstabilityCertificate)}


def revalidate_certificate(cert: InstabilityCertificate, family: FamilyResult,
                           limit: LimitCurve, physical_runs: List[Trajectory]) -> bool:
    """Re-derive every certificate number from the in-memory trajectories."""
    checks = check_certificate(vars(cert), family.p, family.v, limit.tau, limit.x,
                               [m.x for m in family.members],
                               [run.x[-1] for run in physical_runs])
    return all(checks.values())
