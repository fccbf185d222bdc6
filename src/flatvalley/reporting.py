"""CSV/JSON artifact emission and file-based certificate revalidation.

CSV columns use '.' decimals and 17 significant digits, which round-trips
float64 exactly: revalidation from files reproduces in-memory numbers to
the bit.  report.json contains only deterministic content (no wall-clock),
so identical scenarios produce identical bytes, and it is strict JSON (RFC
8259): a non-finite number is an error, never a bare NaN token.
"""
from __future__ import annotations

import json
import os
from typing import Dict, List

import numpy as np

from .analysis import check_certificate
from .dynamics import BoundsCheck, IntegratorOptions, RunAudits, member_steps
from .errors import FlatValleyError, NonFiniteEvaluationError
from .fields import gallery_lookup
from .integrators import METHOD

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


def bounds_payload(bounds) -> List[dict]:
    return [{
        "eps": b.epsilon,
        "max_speed": b.max_speed,
        "max_potential": b.max_potential,
        "max_displacement": b.max_displacement,
        "worst_ball_ratio": b.worst_ball_ratio,
        "speed_ok": b.speed_ok,
        "sublevel_ok": b.sublevel_ok,
        "ball_ok": b.ball_ok,
    } for b in bounds]


def certificate_payload(cert) -> dict:
    """Every certificate field by name: what ``check_certificate`` reads back."""
    return dict(vars(cert))


def convergence_payload(report, limit) -> dict:
    payload = dict(vars(report))
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
    maxima = ("max_speed", "max_potential", "max_displacement", "worst_ball_ratio")
    verdicts = ("speed_ok", "sublevel_ok", "ball_ok")

    def holds(j, claim):
        claimed = vars(BoundsCheck.from_maxima(float(epsilons[j]), audits.v_norm,
                                               *(claim[k] for k in maxima)))
        at_nodes = vars(audits.bounds(j))
        # a NaN node maximum exceeds nothing: non-finite cells are the finite check's
        return (claim["eps"] == epsilons[j]
                and all(claim[k] is True and claimed[k] for k in verdicts)
                and not any(at_nodes[k] > claim[k] for k in maxima))

    return len(claims) == len(members) and all(map(holds, range(len(claims)), claims))


def revalidate_from_dir(out_dir) -> dict:
    """Re-derive the certificate from the emitted files alone.

    Reads report.json, limit.csv, every traj_eps<j>.csv and evidence.csv
    and runs :func:`flatvalley.analysis.check_certificate` on them, energy
    drifts (re-derived from each member's H column) and evidence
    displacements (re-derived from the physical end states) included.  The
    ``member_steps`` check re-derives every member's ``dt`` and
    ``substeps`` in ``report.json["family"]`` from ``report.json["scenario"]``
    through :func:`flatvalley.dynamics.member_step_factors` (and requires
    the scenario's integrator to be PEFRL, the one stepper), the
    ``bounds`` check re-derives the family's confinement claims from the
    member files (see ``_bounds_hold``), and the ``finite`` check fails
    on any non-finite cell of the CSVs it reads.
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

        def columns(name):
            cols = read_csv_columns(os.path.join(out_dir, name))
            tables.append(cols)
            return cols, np.stack([cols[f"x{i}"] for i in range(n)], axis=1)

        limit_cols, limit_x = columns("limit.csv")
        members = [columns(f"traj_eps{j}.csv") for j in range(len(cert["epsilons"]))]
        evidence_cols, ends = columns("evidence.csv")
        checks = check_certificate(cert, limit_cols["tau"], limit_x, [x for _, x in members],
                                   dict(zip(evidence_cols["j"].tolist(), ends)),
                                   report["family"]["energy_drifts"],
                                   [cols["H"] for cols, _ in members])
        checks["finite"] = all(bool(np.all(np.isfinite(column)))
                               for cols in tables for column in cols.values())
        scn, fam = report["scenario"], report["family"]
        opts = IntegratorOptions(step_factor=scn["step_factor"], n_out=scn["n_out"])
        epsilons = scn["eps0"] * scn["ratio"] ** np.arange(len(cert["epsilons"]))
        steps = member_steps(scn["horizon"], epsilons, opts)
        checks["member_steps"] = (scn["integrator"] == METHOD and scn["count"] == len(epsilons)
                                  and [m for m, _ in steps] == fam["substeps"]
                                  and [dt for _, dt in steps] == fam["dt"])
        spec = scn["potential"]
        checks["bounds"] = _bounds_hold(
            fam["bounds"], gallery_lookup(spec["kind"], spec.get("params")), scn, epsilons,
            steps, [cols for cols, _ in members])
    except OSError as exc:
        return {"ok": False, "reason": f"cannot read the run's files: {exc}"}
    except (LookupError, TypeError, ValueError, AttributeError, FlatValleyError) as exc:
        return {"ok": False, "reason": f"malformed run files: {type(exc).__name__}: {exc}"}
    return {"ok": all(checks.values()), "checks": checks}
