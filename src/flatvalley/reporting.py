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
from .dynamics import IntegratorOptions, member_steps
from .errors import FlatValleyError, NonFiniteEvaluationError

Array = np.ndarray

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


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


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_trajectory_csv(path, traj, h_values) -> None:
    """One rescaled member: tau, positions, velocities, energy."""
    n = traj.dim
    header = (["tau"] + [f"x{i}" for i in range(n)] + [f"v{i}" for i in range(n)] + ["H"])
    _write_csv(path, header, ([traj.tau[k], *traj.x[k], *traj.v[k], h_values[k]]
                              for k in range(len(traj.tau))))


def write_coords_csv(path, trace) -> None:
    """One coordinate trace: tau, r, tangential chart coordinates."""
    header = ["tau", "r"] + [f"y{i + 1}" for i in range(trace.y.shape[1])]
    _write_csv(path, header, ([trace.tau[i], trace.r[i], *trace.y[i]]
                              for i in range(len(trace.tau))))


def write_limit_csv(path, limit) -> None:
    header = ["tau"] + [f"x{i}" for i in range(limit.x.shape[1])]
    _write_csv(path, header, ([limit.tau[i], *limit.x[i]] for i in range(len(limit.tau))))


def write_evidence_csv(path, runs) -> None:
    """The physical evidence: each run's state at its end, tau*/eps_j."""
    header = ["j", "eps", "t"] + [f"x{i}" for i in range(runs[0].dim)]
    _write_csv(path, header, ([j, run.epsilon, run.tau[-1], *run.x[-1]]
                              for j, run in enumerate(runs)))


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


def revalidate_from_dir(out_dir) -> dict:
    """Re-derive the certificate from the emitted files alone.

    Reads report.json, limit.csv, every traj_eps<j>.csv and evidence.csv
    and runs :func:`flatvalley.analysis.check_certificate` on them, energy
    drifts (re-derived from each member's H column) and evidence
    displacements (re-derived from the physical end states) included.  The
    ``member_steps`` check re-derives every member's ``dt`` and
    ``substeps`` in ``report.json["family"]`` from ``report.json["scenario"]``
    through :func:`flatvalley.dynamics.member_step_factors`, and the
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
        opts = IntegratorOptions(method=scn["integrator"], step_factor=scn["step_factor"],
                                 n_out=scn["n_out"])
        epsilons = scn["eps0"] * scn["ratio"] ** np.arange(len(cert["epsilons"]))
        steps = member_steps(scn["horizon"], epsilons, opts)
        checks["member_steps"] = (scn["count"] == len(epsilons)
                                  and [m for m, _ in steps] == fam["substeps"]
                                  and [dt for _, dt in steps] == fam["dt"])
    except OSError as exc:
        return {"ok": False, "reason": f"cannot read the run's files: {exc}"}
    except (LookupError, TypeError, ValueError, AttributeError, FlatValleyError) as exc:
        return {"ok": False, "reason": f"malformed run files: {type(exc).__name__}: {exc}"}
    return {"ok": all(checks.values()), "checks": checks}
