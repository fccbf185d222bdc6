"""CSV/JSON artifact emission and file-based certificate revalidation.

CSV columns use '.' decimals and 17 significant digits, which round-trips
float64 exactly: revalidation from files reproduces in-memory numbers to
the bit.  Each value is written once: a member file holds tau, x and v
(revalidation audits H from x and v), a coords file only its chart
coordinates y (its tau and its r = f(x) are its member's, and
revalidation re-derives its y from x), and a run formats its tau grid
once for every file that starts with it.
report.json contains only deterministic content (no wall-clock), so
identical scenarios produce identical bytes, and it is strict JSON (RFC
8259): a non-finite number is an error, never a bare NaN token.  Each of
its blocks is built here or is an analysis record, field for field.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Tuple

import numpy as np

from .analysis import (
    chart_for_scenario,
    check_certificate,
    convergence_report,
    coordinate_report,
    coordinate_trace,
    evidence_times,
)
from .dynamics import (
    BoundsCheck,
    RunAudits,
    lockstep_iterations,
    member_substeps,
    planned_substeps,
    step_calls,
    step_error_limit,
)
from .errors import FlatValleyError, NonFiniteEvaluationError
from .geometry import foot_many, raise_first
from .integrators import METHOD
from .scenario import read_scenario

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


def _headers(n: int) -> Dict[str, list]:
    """Each CSV's header by file kind, for states in n dimensions, as its
    writer writes it (the ``columns`` check of :func:`revalidate_from_dir`)."""
    x, v = ([f"{var}{i}" for i in range(n)] for var in "xv")
    return {"traj": ["tau", *x, *v], "coords": [f"y{i}" for i in range(1, n)],
            "limit": ["tau", *x], "evidence": ["j", "eps", "t", *x]}


def grid_cells(tau) -> list:
    """The cells of a tau grid, each node's ``%.17g`` text: formatted once
    per run and handed to every file on that grid."""
    return [_FMT % t for t in np.asarray(tau, dtype=float).tolist()]


def _write_table(path, header, columns, lead=None) -> None:
    """Write the columns side by side: each a (rows,) array or a (rows, k)
    block of k columns, after ``lead``, if given, a first column of cells
    already formatted (:func:`grid_cells`).  The columns are one float
    table, formatted by one ``%.17g`` row template per file that takes
    each row's lead cell as it is."""
    table = np.column_stack(columns)
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    if lead is not None:
        floats, table = table, np.empty((len(table), table.shape[1] + 1), dtype=object)
        table[:, 0], table[:, 1:] = lead, floats
        row = "%s," + row
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def write_trajectory_csv(path, traj, tau_cells) -> None:
    """One rescaled member: tau (``tau_cells``, its grid's :func:`grid_cells`),
    positions, velocities."""
    _write_table(path, _headers(traj.dim)["traj"], [traj.x, traj.v], tau_cells)


def write_coords_csv(path, trace) -> None:
    """One coordinate trace: its tangential chart coordinates, one row per
    row of its member's file (whose tau and r = f(x) it shares)."""
    _write_table(path, _headers(trace.y.shape[1] + 1)["coords"], [trace.y])


def write_limit_csv(path, limit, tau_cells) -> None:
    """The limit curve: tau (``tau_cells``, its grid's :func:`grid_cells`), positions."""
    _write_table(path, _headers(limit.x.shape[1])["limit"], [limit.x], tau_cells)


def write_evidence_csv(path, runs) -> None:
    """The physical evidence: each run's state at its end, tau*/eps_j."""
    _write_table(path, _headers(runs[0].dim)["evidence"],
                 [np.arange(len(runs)), [run.epsilon for run in runs],
                  [run.tau[-1] for run in runs], [run.x[-1] for run in runs]])


def write_report_json(path, payload: dict) -> None:
    try:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteEvaluationError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_csv_columns(path) -> Dict[str, Array]:
    """The columns of a CSV file by header name, read from one handle; a
    row of another width than the header is malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path} has {data.shape[1]} columns under a header of {len(names)}")
    return {name: data[:, i] for i, name in enumerate(names)}


#: the BoundsCheck fields report.json records per member: the maxima the
#: confinement audit measured, then the verdicts they imply
_MAXIMA = ("max_speed", "max_potential", "max_displacement", "worst_ball_ratio")
_VERDICTS = ("speed_ok", "sublevel_ok", "ball_ok")


def scenario_payload(scn) -> dict:
    """report.json's ``scenario``: a scenario file (see :mod:`flatvalley.scenario`),
    which file revalidation reads back through ``read_scenario``."""
    potential = scn.potential.spec_record or {"kind": scn.potential.name}
    return {"name": scn.name, "potential": potential, "p": scn.p, "v": scn.v,
            "horizon": scn.horizon, "eps0": scn.eps0, "ratio": scn.ratio, "count": scn.count,
            "min_eps": scn.min_eps, "step_factor": scn.options.step_factor,
            "n_out": scn.options.n_out}


def family_payload(fam) -> dict:
    """report.json's ``family``: the stepper, each member's step, audits and
    confinement claims (read back by ``_member_steps_hold`` and ``_audits_hold``),
    and how the substeps were chosen (see ``dynamics.family_for_gates``)."""
    plan = fam.plan
    return {
        "integrator": METHOD,
        "dt": [m.dt for m in fam.members],
        "substeps": fam.substeps,
        # strict JSON: the infinite step error of a blown-up physical run is null
        "step_errors": [float(e) if np.isfinite(e) else None for e in fam.step_errors],
        "energy_drifts": [e.drift for e in fam.energies],
        "bounds": [{k: getattr(b, k) for k in _MAXIMA + _VERDICTS} for b in fam.bounds],
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


#: 1 + 16u, u the unit roundoff: the rounding a displacement claim may show
#: above worst_ball_ratio T |v| (see ``_audits_hold``)
_REACH_ROUNDING = 1.0 + 8.0 * float(np.finfo(float).eps)


def _audits_hold(fam: dict, scn, steps, x: Array, vel: Array) -> Tuple[bool, bool]:
    """``bounds`` and ``energy_drift``: the family's confinement and energy
    drift claims (``fam["bounds"]`` and ``fam["energy_drifts"]``) against
    its member files, ``x`` and ``vel``, each (members, nodes, n).

    Member j's output nodes, the rows of its file, are audited by
    :class:`flatvalley.dynamics.RunAudits` at their step indices (node i at
    step (i - half) m_j of ``steps[j]``), as the family audited every
    internal state: the nodes are a subset of those states, so a claimed
    maximum of |v|, U, |x - p| or the ball ratio below its node maximum is
    false, and so is a claimed drift below the drift of the audit's H at
    the nodes, read from their own x and v.  Each claim's verdicts
    must also hold and follow from its claimed maxima against their SLACK
    bounds, and its ``max_displacement`` must be at most
    ``worst_ball_ratio`` T |v| (1 + 16u), u the unit roundoff: the family
    read each state at |tau| = |k dt| <= T (1 + u)^3, dt = (T / half) / m
    and |k| <= half m, and rounded its ratio |x - p| / (|tau| |v|) twice,
    so |x - p| <= ratio T |v| (1 + u)^4 / (1 - u); the bound here, three
    products, rounds to at least (1 - u)^3 of its value, and (1 + u)^4 /
    (1 - u)^4 < 1 + 16u.
    """
    half = (x.shape[1] - 1) // 2
    m = np.array([m for m, _ in steps])
    audits = RunAudits(scn.potential, scn.epsilons, scn.p, scn.v)
    audits.feed(np.arange(len(x)), m[:, None] * np.arange(-half, half + 1), x, vel,
                [dt for _, dt in steps])

    def holds(j, claim):
        claimed = vars(BoundsCheck.from_maxima(float(audits.epsilons[j]), audits.v_norm,
                                               *(claim[k] for k in _MAXIMA)))
        at_nodes = vars(audits.bounds(j))
        reach = claim["worst_ball_ratio"] * scn.horizon * audits.v_norm * _REACH_ROUNDING
        # a NaN node maximum exceeds nothing: non-finite cells are the finite check's
        return (all(claim[k] is True and claimed[k] for k in _VERDICTS)
                and not any(at_nodes[k] > claim[k] for k in _MAXIMA)
                and claim["max_displacement"] <= reach)

    claims, drifts = fam["bounds"], fam["energy_drifts"]
    return (len(claims) == len(x) and all(map(holds, range(len(claims)), claims)),
            len(drifts) == len(x)
            and all(audits.energy(j).drift <= d for j, d in enumerate(drifts)))


def _member_steps_hold(fam: dict, scn):
    """Every member's (substeps, dt), re-derived from the :class:`Scenario`
    ``scn`` and the probe readings ``report.json["family"]`` records, and
    whether the family's step claims hold (its integrator being PEFRL).

    The ceilings and probe substeps follow from the scenario
    (:func:`flatvalley.dynamics.member_substeps`), and
    :func:`flatvalley.dynamics.planned_substeps` maps the probe readings
    to each member's plan.  A re-run member recorded at its ceiling where
    the plan was finer is a fallback, and
    :func:`flatvalley.dynamics.step_calls` gives the lockstep calls this
    implies: each member's substeps are those of its last call, a member
    that only the probe ran must record its probe readings as its own (its
    probe's confinement verdict being its bounds' verdicts), and the
    recorded lockstep iterations must be those of the calls.
    """
    T, half, epsilons = scn.horizon, (scn.options.n_out - 1) // 2, scn.epsilons
    ceilings, probe = member_substeps(T, epsilons, scn.options,
                                      exponent=scn.potential.profile.exponent)
    readings = fam["probe"]
    plan = planned_substeps(probe, ceilings, readings["step_errors"], readings["energy_drifts"],
                            readings["confined"],
                            step_error_limit(scn.potential, scn.p, scn.v, epsilons))
    calls = step_calls(probe, plan, ceilings,
                       [j for j, (m, c) in enumerate(zip(fam["substeps"], ceilings)) if m == c])
    # the probe call runs every member in order, and later calls overwrite
    chosen = list({j: m for js, substeps in calls for j, m in zip(js, substeps)}.values())
    moved = {j for js, _ in calls[1:] for j in js}
    holds = (fam["integrator"] == METHOD and fam["ceilings"] == ceilings
             and readings["substeps"] == probe and fam["substeps"] == chosen
             and fam["dt"] == [T / half / m for m in chosen]
             and all(fam["step_errors"][j] == readings["step_errors"][j]
                     and fam["energy_drifts"][j] == readings["energy_drifts"][j]
                     and readings["confined"][j] == all(fam["bounds"][j][k] for k in _VERDICTS)
                     for j in range(len(probe)) if j not in moved)
             and fam["lockstep_iterations"] == lockstep_iterations(half, calls))
    return [(m, T / half / m) for m in chosen], holds


def _not_a_number(token):
    raise ValueError(f"report.json holds {token}, which strict JSON does not allow")


def revalidate_from_dir(out_dir) -> dict:
    """Re-derive the certificate and every report.json block from the
    emitted files alone and the Scenario that
    :func:`flatvalley.scenario.read_scenario` reads from its scenario block.

    ``columns`` requires each CSV's header to be exactly the one its
    writer writes; a file that fails it is read no further, and the
    result holds that check alone.  ``scenario`` requires the scenario
    block to be the Scenario's :func:`scenario_payload`, so a dropped key
    does not become its default.  Beside
    :func:`flatvalley.analysis.check_certificate`'s checks (``evidence``
    also ties evidence.csv's row j to eps_j and to its
    :func:`flatvalley.analysis.evidence_times`), ``step_plan``, ``bounds``
    and ``energy_drift`` re-derive the family block (``_member_steps_hold``,
    whose integrator must be PEFRL, and ``_audits_hold``, which audits H
    from each member's own x and v); ``launch`` puts every traj and limit
    file on the scenario's grid, every coords file on its rows, and each
    member at (p, v) at tau = 0; ``limit`` requires limit.csv to be
    ``foot_many`` of the finest member; ``coordinates`` re-derives each
    member's r and y from its x as the coordinates stage does (one
    ``coords_many`` batch on the chart of
    :func:`flatvalley.analysis.chart_for_scenario`) and requires each
    coords file to be that y; and ``coordinates`` and ``convergence``
    require :func:`flatvalley.analysis.coordinate_report` (of the
    re-derived r and y on the grid) and
    :func:`flatvalley.analysis.convergence_report` of the files to equal
    their blocks and name no failing bound.  File ties hold bit for bit.
    ``finite`` fails on any non-finite cell.

    Returns a dict with an ``ok`` flag and the per-check booleans, or
    ``ok: False`` and a ``reason`` when a file is missing or malformed
    (report.json must be strict JSON: no NaN or Infinity token) or has
    another header than its writer's; never re-runs a trajectory and
    never raises on what the files hold.
    """
    try:
        with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh, parse_constant=_not_a_number)
        cert = report.get("certificate")
        if not cert or cert.get("verdict") != "UNSTABLE":
            return {"ok": False, "reason": "no UNSTABLE certificate in report.json"}
        scn, fam = read_scenario(report["scenario"]), report["family"]
        potential, p, v, epsilons = scn.potential, scn.p, scn.v, scn.epsilons
        kinds = {"limit.csv": "limit", "evidence.csv": "evidence",
                 **{f"{kind}_eps{j}.csv": kind for kind in ("traj", "coords")
                    for j in range(scn.count)}}
        tables = {name: read_csv_columns(os.path.join(out_dir, name)) for name in kinds}
        headers = _headers(len(p))
        wrong = [name for name, kind in kinds.items() if list(tables[name]) != headers[kind]]
        if wrong:  # a file its writer did not write is read no further
            return {"ok": False, "checks": {"columns": False},
                    "reason": f"not the header its writer writes: {', '.join(wrong)}"}

        def states(cols, var, dims=range(len(p))):
            return np.stack([cols[f"{var}{i}"] for i in dims], axis=-1)

        limit_cols, evidence_cols = tables["limit.csv"], tables["evidence.csv"]
        members = [tables[f"traj_eps{j}.csv"] for j in range(scn.count)]
        ys = [states(tables[f"coords_eps{j}.csv"], "y", range(1, len(p)))
              for j in range(scn.count)]
        limit_x = states(limit_cols, "x")
        x, vel = (np.stack([states(cols, var) for cols in members]) for var in "xv")
        checks = check_certificate(cert, p, v, limit_cols["tau"], limit_x, list(x),
                                   states(evidence_cols, "x"))
        checks["scenario"] = _jsonable(scenario_payload(scn)) == report["scenario"]
        # first, as a schedule past MAX_STEPS has no times on its grid
        steps, checks["step_plan"] = _member_steps_hold(fam, scn)
        T, half = scn.horizon, (scn.options.n_out - 1) // 2
        j, eps, t = (evidence_cols[name] for name in ("j", "eps", "t"))
        checks["evidence"] &= (j.tolist() == list(range(len(members)))
                               and eps.tolist() == epsilons.tolist()
                               and t.tolist() == evidence_times(cert["tau_star"], T, half,
                                                                epsilons).tolist())
        checks["bounds"], checks["energy_drift"] = _audits_hold(fam, scn, steps, x, vel)
        grid = np.arange(-half, half + 1) * (T / half)
        checks["launch"] = (all(np.array_equal(cols["tau"], grid)
                                for cols in [limit_cols, *members])
                            and all(len(yj) == len(grid) for yj in ys)
                            and bool(np.all(x[:, half] == p) and np.all(vel[:, half] == v)))
        feet, failures = foot_many(potential.field, x[-1])
        raise_first(failures)
        checks["limit"] = np.array_equal(feet, limit_x)
        # every member's nodes in one batch, as the coordinates stage reads them
        r, y, failures = chart_for_scenario(scn).coords_many(x.reshape(-1, len(p)))
        raise_first(failures)
        record, reason = coordinate_report(
            [coordinate_trace(eps, grid, rj, yj) for eps, rj, yj
             in zip(epsilons, r.reshape(len(x), -1), y.reshape(len(x), len(grid), -1))],
            potential, v)
        checks["coordinates"] = (np.array_equal(y, np.concatenate(ys)) and not reason
                                 and _jsonable(vars(record)) == report["coordinates"])
        record = convergence_report(potential, limit_cols["tau"], list(x), limit_x, p, v,
                                    epsilons, 2 * half * steps[-1][0])
        checks["convergence"] = (record.cauchy_ok
                                 and _jsonable(vars(record)) == report["convergence"])
        checks["finite"] = all(bool(np.all(np.isfinite(column)))
                               for cols in tables.values() for column in cols.values())
    except OSError as exc:
        return {"ok": False, "reason": f"cannot read the run's files: {exc}"}
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError,
            FlatValleyError) as exc:
        return {"ok": False, "reason": f"malformed run files: {type(exc).__name__}: {exc}"}
    return {"ok": all(checks.values()), "checks": checks}
