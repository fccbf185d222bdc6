"""Command line: the pipeline, its subcommands and artifact emission.

``family``, ``limit`` and ``certify`` parse the scenario file once (its
format is in :mod:`flatvalley.scenario`) and run stages of
:func:`run_pipeline` (``family -> coordinates -> limit -> certificate``,
then ``emit``): ``family`` runs ``family`` (``family --count 1 --eps0 E``
is the single rescaled run at eps = E), ``limit`` runs ``family`` and
``limit``, and ``certify`` runs all four.  Each writes the files of the
stages it ran (traj_eps<j>.csv, coords_eps<j>.csv, limit.csv, evidence.csv,
figures/*.svg) and report.json into ``--out``, else the file's ``out``,
else ``out_<name>``.

The family stage integrates every member and a physical run beside it in
lockstep calls, a probe and the re-runs it asks for, each member at the
substeps its gates choose and at most its ceiling, the scenario's
``step_factor`` (see :mod:`flatvalley.dynamics`); the physical run is the
member's step-error reference, and the certificate stage cuts its
evidence from it and integrates nothing.

Exit codes of all three: 0 when every stage passed (the certificate verdict
is UNSTABLE for ``certify``), 2 when a stage's audit stopped the run with an
INDETERMINATE verdict (a member failed its confinement audit, drifted in
energy by more than ``dynamics.ENERGY_DRIFT_LIMIT`` = 1e-8 or showed a step
error above ``dynamics.STEP_ERROR_FRACTION`` = 1e-3 of the limit
tolerance, a proof bound of the tube coordinates failed, the limit failed
its Cauchy diagnostic, a degenerate limit, a schedule too short, a failed
in-memory revalidation),
1 on hard errors, bad input and malformed command lines included: every
failure is a ``FlatValleyError``, reported on one ``error: ...`` line.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import List, Sequence

import numpy as np

from .analysis import (
    certify_instability,
    check_limit_shape,
    coordinate_report,
    coordinate_traces,
    extract_limit,
    limit_escape,
    physical_evidence_runs,
    revalidate_certificate,
)
from .contrast import (
    MAX_TRAJECTORIES,
    TRAP_DRIFT_FRACTION,
    locate_barrier,
    trapped_motion_check,
)
from .dynamics import (
    SLACK,
    _tube_half_width,
    integrate_rescaled,
    member_failures,
    member_substeps,
    run_family,
)
from .errors import (
    FlatValleyError,
    IndeterminateCertificateError,
    InvalidParameterError,
    UnverifiedLimitError,
)
from .fields import fd_gradient_check, gallery_lookup
from .geometry import (
    build_m_chart,
    check_regular_value,
    flow_many,
    foot_point,  # noqa: F401 (flatbench/tracer.py patches it here)
    raise_first,
    residual_convergence,
)
from .reporting import (
    certificate_payload,
    convergence_payload,
    family_payload,
    scenario_payload,
    write_coords_csv,
    write_evidence_csv,
    write_limit_csv,
    write_report_json,
    write_trajectory_csv,
)
from .scenario import Scenario, parse_scenario
from .svgplot import line_plot

#: most samples ``residual --samples`` may ask for: a hundred times its
#: default of 20, checked before any array is built
MAX_SAMPLES = 2000


def chart_for_scenario(scn: Scenario):
    """Chart sized to the ball the trajectories are confined to."""
    delta = 1.05 * scn.horizon * float(np.linalg.norm(scn.v))
    return build_m_chart(scn.potential.field, scn.p, scn.v, delta=delta)


#: the analysis stages of :func:`run_pipeline`, in the order they run
STAGES = ("family", "coordinates", "limit", "certificate")


@dataclass(eq=False)
class RunReport:
    """Pipeline outcome: per-stage status/wall-clock, file manifest, verdict.

    ``verdict`` is UNSTABLE when the certificate stage passes, OK when every
    stage run passed short of it, and INDETERMINATE or ERROR when a stage
    stopped the run.  ``results`` holds what the stages computed by name.
    """

    out_dir: str
    stages: List[dict] = field(default_factory=list)
    manifest: List[str] = field(default_factory=list)
    verdict: str = "OK"
    reason: str = ""
    exit_code: int = 0
    results: dict = field(default_factory=dict)

    def stage(self, name: str, status: str, seconds: float) -> None:
        self.stages.append({"name": name, "status": status, "seconds": seconds})


def run_pipeline(scenario: Scenario, out_dir: str, svg: bool = True,
                 stages: Sequence[str] = STAGES) -> RunReport:
    """family -> coordinates -> limit -> certificate, then the files.

    ``stages`` picks the analysis stages to run, in pipeline order; every
    stage needs ``family`` and the certificate needs ``limit``.  Each stage
    records its data and then gates on its own audit, so the files of the
    stages that finished are written even when a later one stops the run.
    A schedule the limit stage could not read is refused before any stage.
    """
    if not (set(stages) <= set(STAGES) and "family" in stages
            and ("certificate" not in stages or "limit" in stages)):
        raise InvalidParameterError(
            f"stages {tuple(stages)!r} must be drawn from {STAGES}, include 'family', "
            "and include 'limit' with 'certificate'")
    if "limit" in stages:
        check_limit_shape(scenario.count, scenario.options.n_out)
    report = RunReport(out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)
    payload = {"scenario": scenario_payload(scenario)}
    state = report.results

    def run_stage(name, fn):
        t0 = time.perf_counter()
        try:
            fn()
        except IndeterminateCertificateError as exc:
            report.stage(name, "indeterminate", time.perf_counter() - t0)
            report.verdict = "INDETERMINATE"
            report.reason = str(exc)
            report.exit_code = 2
            payload["certificate"] = {"verdict": "INDETERMINATE", "reason": str(exc)}
            return False
        except FlatValleyError as exc:
            report.stage(name, "error", time.perf_counter() - t0)
            report.verdict = "ERROR"
            report.reason = f"{type(exc).__name__}: {exc}"
            report.exit_code = 1
            payload.setdefault("errors", []).append(
                {"stage": name, "error": report.reason})
            return False
        report.stage(name, "ok", time.perf_counter() - t0)
        return True

    def stage_family():
        fam = state["family"] = run_family(scenario)
        payload["family"] = family_payload(fam)
        failures = state["member_failures"] = member_failures(fam)
        for reason in failures:
            if reason:
                raise IndeterminateCertificateError(reason)

    def stage_coordinates():
        fam = state["family"]
        chart = chart_for_scenario(scenario)
        traces = coordinate_traces(chart, fam)
        coords, reason = coordinate_report(traces, scenario.potential, scenario.v)
        state.update(chart=chart, traces=traces, coordinates=coords)
        payload["coordinates"] = dict(vars(coords))
        if reason:
            raise IndeterminateCertificateError(reason)

    def stage_limit():
        limit, conv = extract_limit(state["family"])
        state.update(limit=limit, convergence=conv)
        payload["convergence"] = convergence_payload(conv, limit)
        if not conv.cauchy_ok:
            raise UnverifiedLimitError()

    def stage_certificate():
        fam, limit = state["family"], state["limit"]
        _, _, tau_star, _ = limit_escape(fam, limit)  # the noise ball, before the cut
        runs = state["physical_runs"] = physical_evidence_runs(fam, tau_star)
        cert = certify_instability(fam, limit, runs)
        ok = revalidate_certificate(cert, fam, limit, runs)
        state["certificate"] = cert
        payload["certificate"] = certificate_payload(cert)
        payload["certificate"]["revalidated_in_memory"] = bool(ok)
        if not ok:
            raise IndeterminateCertificateError(
                "the certificate failed its in-memory revalidation")
        report.verdict = cert.verdict

    def stage_emit():
        fam = state.get("family")
        for j in range(fam.count if fam is not None else 0):
            name = os.path.join(out_dir, f"traj_eps{j}.csv")
            write_trajectory_csv(name, fam.members[j], fam.energies[j].values)
            report.manifest.append(name)
        for j, trace in enumerate(state.get("traces", [])):
            name = os.path.join(out_dir, f"coords_eps{j}.csv")
            write_coords_csv(name, trace)
            report.manifest.append(name)
        if "limit" in state:
            name = os.path.join(out_dir, "limit.csv")
            write_limit_csv(name, state["limit"])
            report.manifest.append(name)
        if "physical_runs" in state:
            name = os.path.join(out_dir, "evidence.csv")
            write_evidence_csv(name, state["physical_runs"])
            report.manifest.append(name)
        if svg:
            report.manifest.extend(_figures(out_dir, scenario, state))
        report.manifest.sort()
        payload["manifest"] = [os.path.relpath(m, out_dir) for m in sorted(report.manifest)]
        name = os.path.join(out_dir, "report.json")
        write_report_json(name, payload)
        report.manifest.append(name)

    run = {"family": stage_family, "coordinates": stage_coordinates,
           "limit": stage_limit, "certificate": stage_certificate}
    for name in STAGES:
        if name in stages and not run_stage(name, run[name]):
            break
    run_stage("emit", stage_emit)
    return report


def _figures(out_dir: str, scn: Scenario, state: dict) -> List[str]:
    fig_dir = os.path.join(out_dir, "figures")
    os.makedirs(fig_dir, exist_ok=True)
    written = []
    fam = state.get("family")
    if fam is None:
        return written
    series = [{"x": m.x[:, 0], "y": m.x[:, 1], "label": f"eps={fam.epsilons[j]:.4g}"}
              for j, m in enumerate(fam.members)]
    if "limit" in state:
        series.append({"x": state["limit"].x[:, 0], "y": state["limit"].x[:, 1],
                       "label": "limit", "color": "#000000"})
    name = os.path.join(fig_dir, "trajectories.svg")
    line_plot(name, series, title=f"{scn.name}: rescaled trajectories",
              xlabel="x0", ylabel="x1")
    written.append(name)
    if "convergence" in state:
        conv = state["convergence"]
        name = os.path.join(fig_dir, "convergence.svg")
        line_plot(name, [{"x": np.arange(len(conv.distances)), "y": conv.distances,
                          "label": "sup distance", "marker": True}],
                  title=f"{scn.name}: consecutive-member distances",
                  xlabel="pair index j", ylabel="log10 sup distance", logy=True)
        written.append(name)
        bound = [_tube_half_width(scn.potential, scn.v, e) for e in fam.epsilons]
        series = [{"x": fam.epsilons, "y": conv.violation_max, "label": "max |f|",
                   "marker": True}, {"x": fam.epsilons, "y": bound, "label": "budget bound"}]
        name = os.path.join(fig_dir, "violation.svg")
        line_plot(name, series, title=f"{scn.name}: floor violation vs eps",
                  xlabel="log10 eps", ylabel="log10 max |f|", logx=True, logy=True)
        written.append(name)
    return written


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _scenario_from_args(args) -> Scenario:
    overrides = {
        "eps0": args.eps0,
        "ratio": args.ratio,
        "count": args.count,
        "horizon": args.horizon,
        "step_factor": args.step_factor,
    }
    # this module's gallery_lookup, which flatbench/tracer.py patches to count field calls
    return parse_scenario(args.scenario, overrides, lookup=gallery_lookup)


def _cmd_pipeline(args) -> int:
    """family, limit and certify: the command's stages of run_pipeline."""
    scn = _scenario_from_args(args)
    report = run_pipeline(scn, args.out or scn.out or f"out_{scn.name}", svg=args.svg,
                          stages=args.stages)
    fam = report.results.get("family")
    if fam is not None:
        print(f"speed bound |v| (1 + slack) = {fam.bounds[0].v_norm * (1 + SLACK):.9f}")
        print(f"{'j':>2} {'eps':>10} {'drift':>10} {'max|xd|':>12} {'maxU':>12} {'m':>4} "
              f"{'ceil':>4} {'pass':>5}")
        failures = report.results["member_failures"]
        for j, (e, b, m) in enumerate(zip(fam.energies, fam.bounds, fam.substeps)):
            print(f"{j:>2} {fam.epsilons[j]:>10.4g} {e.drift:>10.2e} {b.max_speed:>12.9f} "
                  f"{b.max_potential:>12.4e} {m:>4} {fam.plan.ceilings[j]:>4} "
                  f"{str(not failures[j]):>5}")
        print(f"lockstep iterations = {fam.plan.iterations} (probe call included)")
    conv = report.results.get("convergence")
    if conv is not None:
        print("consecutive sup distances:", ", ".join(f"{d:.3e}" for d in conv.distances))
        print(f"cauchy_ok = {conv.cauchy_ok} (tol {conv.tol_limit:.3e})")
        print(f"|xdot(0) - v| = {report.results['limit'].initial_velocity_error:.3e}")
    for st in report.stages:
        print(f"stage {st['name']:<12} {st['status']:<14} {st['seconds']:.2f}s")
    print(f"verdict: {report.verdict}" + (f" ({report.reason})" if report.reason else ""))
    print(f"artifacts in {report.out_dir}")
    if report.exit_code == 1:
        print(f"error: {report.reason}", file=sys.stderr)
    return report.exit_code


def _cmd_residual(args) -> int:
    scn = _scenario_from_args(args)
    if not 0 <= args.member < scn.count:
        raise InvalidParameterError(
            f"--member must name one of the {scn.count} members (0 to {scn.count - 1}), "
            f"got {args.member}")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise InvalidParameterError(
            f"--samples must lie in [1, MAX_SAMPLES = {MAX_SAMPLES}], got {args.samples}")
    eps = float(scn.epsilons[args.member])
    # the member's dense run at its eps and its ceiling, whatever step the
    # family chose, so the residual does not move with the probe
    ceiling = member_substeps(scn.horizon, scn.epsilons, scn.options,
                              exponent=scn.potential.profile.exponent)[0][args.member]
    spacing = scn.horizon / ((scn.options.n_out - 1) // 2)
    traj = integrate_rescaled(scn.potential, scn.p, scn.v, eps, scn.horizon,
                              replace(scn.options, step_factor=spacing / ceiling / eps))
    chart = chart_for_scenario(scn)
    taus = np.linspace(-0.85 * scn.horizon, 0.85 * scn.horizon, args.samples)
    result = residual_convergence(chart, traj, taus)
    print(f"member j={args.member} (eps={eps:g}), {args.samples} interior samples")
    print(f"  max residual        = {result['coarse_max']:.3e}")
    print(f"  max at halved steps = {result['fine_max']:.3e}")
    shrink = result["shrink_factor"]
    print(f"  shrink factor       = {'undefined' if shrink is None else f'{shrink:.2f}'}")
    return 0


def _cmd_check(args) -> int:
    scn = _scenario_from_args(args)
    P = scn.potential
    fld = P.field
    rng = np.random.default_rng(20240611)
    failures = 0

    def verdict(name, ok, detail):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")

    scale = 1.0 + float(np.linalg.norm(scn.p))
    pts = scn.p + rng.uniform(-0.5 * scale, 0.5 * scale, size=(50, fld.dim))
    worst = max(fd_gradient_check(P, x) for x in pts)
    verdict("gradient-vs-central-differences", worst <= 1e-6, f"max discrepancy {worst:.2e}")

    pts = scn.p + rng.uniform(-scale, scale, size=(10000, fld.dim))
    umin = float(P.value_many(pts).min())
    verdict("potential-nonnegative", umin >= 0.0, f"min U = {umin:.2e}")

    vnorm = float(np.linalg.norm(scn.v))
    r_box = 2.0 * _tube_half_width(P, scn.v, scn.eps0)
    chart = chart_for_scenario(scn)
    draws = [(rng.uniform(-0.4, 0.4, size=fld.dim - 1) * scn.horizon * vnorm,
              float(rng.uniform(-r_box, r_box)), float(rng.uniform(-0.3, 0.3)))
             for _ in range(200)]
    y, r, t = (np.array(column) for column in zip(*draws))
    # one batch per map, each row at the flow steps the map's law gives it
    x, errors = chart.tube_many(r, y)
    raise_first(errors)
    end, errors = flow_many(fld, x, t)
    raise_first(errors)
    worst_flow = float(np.max(np.abs(fld.f_many(end) - t - fld.f_many(x))))
    worst_sep = float(np.max(np.abs(P.value_many(x) - P.profile.g(r))))
    rc, yc, errors = chart.coords_many(x)
    raise_first(errors)
    back, errors = chart.tube_many(rc, yc)
    raise_first(errors)
    worst_round = float(np.max(np.linalg.norm(back - x, axis=1)))
    verdict("flow-identity", worst_flow <= 1e-9, f"max residual {worst_flow:.2e}")
    verdict("potential-separation", worst_sep <= 1e-9, f"max |U - g(r)| {worst_sep:.2e}")
    verdict("tube-roundtrip", worst_round <= 1e-8, f"max roundtrip {worst_round:.2e}")

    seeds = scn.p + rng.uniform(-0.2 * scale, 0.2 * scale, size=(20, fld.dim))
    reg = check_regular_value(fld, seeds)
    verdict("regular-value", reg.passed, f"min |grad f| on floor = {reg.min_grad_norm:.3g}")
    return 0 if failures == 0 else 2


def _cmd_gallery(args) -> int:
    # each flag is checked before locate_barrier's scan
    if not 1 <= args.trajectories <= MAX_TRAJECTORIES:
        raise InvalidParameterError(
            f"--trajectories must lie in [1, MAX_TRAJECTORIES = {MAX_TRAJECTORIES}], "
            f"got {args.trajectories}")
    if not 0.0 < args.energy_fraction < 1.0:
        raise InvalidParameterError(
            f"--energy-fraction must lie in (0, 1), got {args.energy_fraction:g}")
    if not np.isfinite(args.horizon):
        raise InvalidParameterError(f"--horizon must be finite, got {args.horizon:g}")
    if not args.horizon > 0:
        raise InvalidParameterError(f"--horizon must be positive, got {args.horizon:g}")
    potential = gallery_lookup(args.name, {})
    # laloy's first coordinate moves in the painleve bump alone
    barrier = locate_barrier(gallery_lookup("painleve", {}))
    # laloy's second coordinate runs away exponentially: keep its horizon short
    t_end = args.horizon if potential.dim == 1 else min(args.horizon, 12.0)
    rep = trapped_motion_check(potential, barrier, n_traj=args.trajectories, t_end=t_end,
                               energy_fraction=args.energy_fraction)
    b = rep.barrier
    print(f"{args.name}: barrier height {b.height:.6e} at [{b.x_left:.6f}, {b.x_right:.6f}]")
    for r in rep.records:
        print(f"  x0={r.x0:+.4f} v0={r.v0:.5f} E={r.energy:.3e} "
              f"max|x|={r.max_excursion:.6f} drift/gap={r.energy_drift / rep.gap(r):.1e} "
              f"dt={r.dt:.4g} trapped={r.trapped}")
    for i, r in enumerate(rep.records):
        if not r.trapped:
            print(f"run {i} (x0={r.x0:+.6f}) is not trapped: max|x| = {r.max_excursion:.6f} "
                  f"against the barrier at |x| = {min(-b.x_left, b.x_right):.6f}, energy drift "
                  f"{r.energy_drift:.3e} against its budget {TRAP_DRIFT_FRACTION:g} x gap = "
                  f"{TRAP_DRIFT_FRACTION * rep.gap(r):.3e}")
    print(f"lockstep steps = {' + '.join(map(str, rep.call_steps))} (probe call first)")
    print(f"all trapped over t in [0, {rep.t_end:g}]: {rep.all_trapped}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        payload = {
            "name": args.name,
            "barrier": {"x_left": b.x_left, "x_right": b.x_right, "height": b.height},
            "t_end": rep.t_end,
            "records": [vars(r) for r in rep.records],
            "all_trapped": rep.all_trapped,
        }
        write_report_json(os.path.join(args.out, "gallery_report.json"), payload)
    return 0 if rep.all_trapped else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InvalidParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser of every subcommand."""
    parser = _Parser(
        prog="flatvalley",
        description="Escape-from-a-flat-valley laboratory: rescaled dynamics, "
                    "limit curves, and instability certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and must be at least 1; every run "
                             "is serial (the family runs in lockstep batches), so it "
                             "changes nothing")
    common.add_argument("--eps0", type=float, default=None)
    common.add_argument("--ratio", type=float, default=None)
    common.add_argument("--count", type=int, default=None)
    common.add_argument("--horizon", type=float, default=None)
    common.add_argument("--step-factor", dest="step_factor", type=float, default=None)
    common.add_argument("--svg", action=argparse.BooleanOptionalAction, default=True)

    for name, stages, text in (("family", ("family",), "run the eps family"),
                               ("limit", ("family", "limit"), "family plus limit extraction"),
                               ("certify", STAGES, "full pipeline")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(fn=_cmd_pipeline, stages=stages)
    p = sub.add_parser("residual", parents=[common],
                       help="tangential equation-of-motion residual")
    p.add_argument("--member", type=int, default=1)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(fn=_cmd_residual)
    sub.add_parser("check", parents=[common],
                   help="field and flow property suite").set_defaults(fn=_cmd_check)
    p = sub.add_parser("gallery", help="stability-contrast demos (trapped orbits)")
    p.add_argument("--name", default="painleve", choices=["painleve", "laloy"])
    p.add_argument("--trajectories", type=int, default=10)
    p.add_argument("--horizon", type=float, default=1000.0)
    p.add_argument("--energy-fraction", dest="energy_fraction", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gallery)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise InvalidParameterError(f"--jobs must be at least 1, got {args.jobs}")
        return args.fn(args)
    except FlatValleyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
