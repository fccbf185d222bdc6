"""CSV/JSON artifact emission and file-based certificate revalidation.

CSV columns use '.' decimals and 17 significant digits, which round-trips
float64 exactly: revalidation from files reproduces in-memory numbers to
the bit.  report.json contains only deterministic content (no wall-clock),
so identical scenarios produce identical bytes, and it is strict JSON (RFC
8259): a non-finite number is an error, never a bare NaN token.  Every
block the file checks read back is built here, beside those checks.
"""
from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np

from .analysis import check_certificate, coordinate_report, coordinate_trace
from .dynamics import (
    SLACK,
    BoundsCheck,
    RunAudits,
    lockstep_iterations,
    member_substeps,
    planned_substeps,
    step_calls,
    step_error_limit,
)
from .errors import FlatValleyError, NonFiniteEvaluationError
from .fields import gallery_lookup
from .integrators import METHOD
from .scenario import IntegratorOptions

Array = np.ndarray

_FMT = "%.17g"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_table(path, header, columns) -> None:
    """Write the columns side by side: each a (rows,) array or a (rows, k)
    block of k columns.  The table is one float array, formatted by one
    ``%.17g`` row template per file."""
    table = np.column_stack(columns)
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def write_trajectory_csv(path, traj, h_values) -> None:
    """One rescaled member: tau, positions, velocities, energy."""
    n = traj.dim
    header = (["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)] + ["H"])
    _write_table(path, header, [traj.tau, traj.x, traj.v, h_values])


def write_coords_csv(path, trace) -> None:
    """One coordinate trace: tau, r, tangential chart coordinates."""
    header = ["tau", "r"] + [f"y{i + 1}" for i in range(trace.y.shape[1])]
    _write_table(path, header, [trace.tau, trace.r, trace.y])


def write_limit_csv(path, limit) -> None:
    header = ["tau"] + [f"x{i}" for i in range(limit.x.shape[1])]
    _write_table(path, header, [limit.tau, limit.x])


def write_evidence_csv(path, runs) -> None:
    """The physical evidence: each run's state at its end, tau*/eps_j."""
    header = ["j", "eps", "t"] + [f"x{i}" for i in range(runs[0].dim)]
    _write_table(path, header, [np.arange(len(runs)), [run.epsilon for run in runs],
                                [run.tau[-1] for run in runs], [run.x[-1] for run in runs]])


def write_report_json(path, payload: dict) -> None:
    try:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteEvaluationError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_csv_columns(path) -> Dict[str, Array]:
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


#: the BoundsCheck fields report.json records per member beside its eps:
#: the maxima the confinement audit measured, then the verdicts they imply
_MAXIMA = ("max_speed", "max_potential", "max_displacement", "worst_ball_ratio")
_VERDICTS = ("speed_ok", "sublevel_ok", "ball_ok")


def scenario_payload(scn) -> dict:
    """report.json's ``scenario``: what ``_member_steps_hold`` re-derives from."""
    return {
        "name": scn.name,
        "potential": scn.potential.spec_record or {"kind": scn.potential.name},
        "p": scn.p,
        "v": scn.v,
        "horizon": scn.horizon,
        "eps0": scn.eps0,
        "ratio": scn.ratio,
        "count": scn.count,
        "integrator": METHOD,
        "step_factor": scn.options.step_factor,
        "n_out": scn.options.n_out,
        "slack": SLACK,
    }


def family_payload(fam) -> dict:
    """report.json's ``family``: each member's step, audits and confinement
    claims (read back by ``_member_steps_hold`` and ``_bounds_hold``), and
    how the substeps were chosen (see ``dynamics.family_for_gates``)."""
    plan = fam.plan
    return {
        "epsilons": fam.epsilons,
        "dt": [m.dt for m in fam.members],
        "substeps": fam.substeps,
        # strict JSON: the infinite step error of a blown-up physical run is null
        "step_errors": [float(e) if np.isfinite(e) else None for e in fam.step_errors],
        "energy_drifts": [e.drift for e in fam.energies],
        "bounds": [{"eps": b.epsilon, **{k: getattr(b, k) for k in _MAXIMA + _VERDICTS}}
                   for b in fam.bounds],
        "ceilings": plan.ceilings,
        "probe": {
            "substeps": plan.probe,
            "step_errors": [float(e) if np.isfinite(e) else None
                            for e in plan.probe_step_errors],
            "energy_drifts": plan.probe_drifts,
            "confined": plan.probe_confined,
        },
        "lockstep_iterations": plan.iterations,
    }


def certificate_payload(cert) -> dict:
    """Every certificate field by name: what ``check_certificate`` reads back."""
    return dict(vars(cert))


def convergence_payload(report, limit) -> dict:
    payload = dict(vars(report))
    # strict JSON: a rate with a distance at the rounding floor is null
    payload["rate_estimates"] = [None if np.isnan(r) else r for r in report.rate_estimates.tolist()]
    payload["initial_velocity_error"] = limit.initial_velocity_error
    payload["source_epsilon"] = limit.source_epsilon
    payload["verified"] = limit.verified
    return payload


def _bounds_hold(claims: List[dict], potential, scn: dict, epsilons, steps,
                members: List[Dict[str, Array]]) -> bool:
    """The family's confinement claims (``report.json["family"]["bounds"]``)
    against its member files.

    Member j's output nodes, the columns of its file, are audited by
    :class:`flatvalley.dynamics.RunAudits` at their step indices (node i at
    step (i - half) m_j of ``steps[j]``), as the family audited every
    internal state: the nodes are a subset of those states, so a claimed
    maximum of |v|, U, |x - p| or the ball ratio below its node maximum is
    false.  Each claim's verdicts must also hold and follow from its
    claimed maxima against their SLACK bounds.
    """
    def states(var):  # (members, nodes, n)
        return np.stack([np.stack([cols[f"{var}{i}"] for i in range(len(scn["p"]))], axis=1)
                         for cols in members])

    x, v = states("x"), states("v")
    half = (x.shape[1] - 1) // 2
    m = np.array([m for m, _ in steps])
    audits = RunAudits(potential, epsilons, scn["p"], scn["v"], x.shape[1])
    audits.feed(np.arange(len(members)), m[:, None] * np.arange(-half, half + 1), x, v,
                [dt for _, dt in steps], m)

    def holds(j, claim):
        claimed = vars(BoundsCheck.from_maxima(float(epsilons[j]), audits.v_norm,
                                               *(claim[k] for k in _MAXIMA)))
        at_nodes = vars(audits.bounds(j))
        # a NaN node maximum exceeds nothing: non-finite cells are the finite check's
        return (claim["eps"] == epsilons[j]
                and all(claim[k] is True and claimed[k] for k in _VERDICTS)
                and not any(at_nodes[k] > claim[k] for k in _MAXIMA))

    return len(claims) == len(members) and all(map(holds, range(len(claims)), claims))


def _member_steps_hold(fam: dict, scn: dict, potential, epsilons):
    """Every member's (substeps, dt), re-derived from the scenario and the
    probe readings ``report.json["family"]`` records, and whether the
    family's step claims hold.

    The ceilings and probe substeps follow from the scenario
    (:func:`flatvalley.dynamics.member_substeps`), and
    :func:`flatvalley.dynamics.planned_substeps` maps the probe readings
    to each member's plan.  A re-run member recorded at its ceiling where
    the plan was finer is a fallback, and
    :func:`flatvalley.dynamics.step_calls` gives the lockstep calls this
    implies: each member's substeps are those of its last call, a member
    that only the probe ran must record its probe readings as its own, and
    the recorded lockstep iterations must be those of the calls.
    """
    opts = IntegratorOptions(step_factor=scn["step_factor"], n_out=scn["n_out"])
    T, half = scn["horizon"], (scn["n_out"] - 1) // 2
    ceilings, probe = member_substeps(T, epsilons, opts, exponent=potential.profile.exponent)
    readings = fam["probe"]
    plan = planned_substeps(probe, ceilings, readings["step_errors"], readings["energy_drifts"],
                            readings["confined"],
                            step_error_limit(potential, scn["p"], scn["v"], epsilons))
    calls = step_calls(probe, plan, ceilings,
                       [j for j, (m, c) in enumerate(zip(fam["substeps"], ceilings)) if m == c])
    # the probe call runs every member in order, and later calls overwrite
    chosen = list({j: m for js, substeps in calls for j, m in zip(js, substeps)}.values())
    moved = {j for js, _ in calls[1:] for j in js}
    holds = (scn["integrator"] == METHOD and scn["count"] == len(epsilons)
             and fam["ceilings"] == ceilings and readings["substeps"] == probe
             and fam["substeps"] == chosen and fam["dt"] == [T / half / m for m in chosen]
             and all(fam[key][j] == readings[key][j]
                     for key in ("step_errors", "energy_drifts")
                     for j in range(len(probe)) if j not in moved)
             and fam["lockstep_iterations"] == lockstep_iterations(half, calls))
    return [(m, T / half / m) for m in chosen], holds


def revalidate_from_dir(out_dir) -> dict:
    """Re-derive the certificate from the emitted files alone.

    Reads report.json, limit.csv, every traj_eps<j>.csv and coords_eps<j>.csv
    and evidence.csv, and runs :func:`flatvalley.analysis.check_certificate`
    on them, energy drifts (re-derived from each member's H column) and
    evidence displacements (re-derived from the physical end states)
    included.  The
    ``step_plan`` check re-derives every member's ``dt`` and
    ``substeps`` in ``report.json["family"]`` from ``report.json["scenario"]``
    and the recorded probe readings (see ``_member_steps_hold``; it
    requires the scenario's integrator to be PEFRL, the one stepper), the
    ``bounds`` check re-derives the family's confinement claims from the
    member files (see ``_bounds_hold``), the ``coordinates`` check rebuilds
    every member's trace from its coords_eps<j>.csv and requires
    :func:`flatvalley.analysis.coordinate_report` of them to equal
    ``report.json["coordinates"]`` and to name no failing bound, and the
    ``finite`` check fails on any non-finite cell of the CSVs it reads.
    Returns a dict with an ``ok`` flag and the per-check booleans, or
    ``ok: False`` and a ``reason`` when a file is missing or malformed;
    never re-runs any integration and never raises on what the files hold.
    """
    try:
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        cert = report.get("certificate")
        if not cert or cert.get("verdict") != "UNSTABLE":
            return {"ok": False, "reason": "no UNSTABLE certificate in report.json"}
        n = len(cert["p"])
        tables = []

        def table(name):
            cols = read_csv_columns(os.path.join(out_dir, name))
            tables.append(cols)
            return cols

        def columns(name):
            cols = table(name)
            return cols, np.stack([cols[f"x{i}"] for i in range(n)], axis=1)

        limit_cols, limit_x = columns("limit.csv")
        members = [columns(f"traj_eps{j}.csv") for j in range(len(cert["epsilons"]))]
        evidence_cols, ends = columns("evidence.csv")
        checks = check_certificate(cert, limit_cols["tau"], limit_x, [x for _, x in members],
                                   dict(zip(evidence_cols["j"].tolist(), ends)),
                                   report["family"]["energy_drifts"],
                                   [cols["H"] for cols, _ in members])
        scn, fam = report["scenario"], report["family"]
        spec = scn["potential"]
        potential = gallery_lookup(spec["kind"], spec.get("params"))
        epsilons = scn["eps0"] * scn["ratio"] ** np.arange(len(cert["epsilons"]))
        steps, checks["step_plan"] = _member_steps_hold(fam, scn, potential, epsilons)
        checks["bounds"] = _bounds_hold(fam["bounds"], potential, scn, epsilons, steps,
                                        [cols for cols, _ in members])
        coords = [table(f"coords_eps{j}.csv") for j in range(len(epsilons))]
        record, reason = coordinate_report(
            [coordinate_trace(eps, cols["tau"], cols["r"],
                              np.stack([cols[f"y{i}"] for i in range(1, n)], axis=1))
             for eps, cols in zip(epsilons, coords)], potential, scn["v"])
        checks["coordinates"] = not reason and _jsonable(vars(record)) == report["coordinates"]
        checks["finite"] = all(bool(np.all(np.isfinite(column)))
                               for cols in tables for column in cols.values())
    except OSError as exc:
        return {"ok": False, "reason": f"cannot read the run's files: {exc}"}
    except (LookupError, TypeError, ValueError, AttributeError, FlatValleyError) as exc:
        return {"ok": False, "reason": f"malformed run files: {type(exc).__name__}: {exc}"}
    return {"ok": all(checks.values()), "checks": checks}
