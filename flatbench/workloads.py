"""Seeded workloads of the flatvalley benchmark.

Each workload turns a seed into the files or arguments a user would hand
to flatvalley (a scenario JSON, or gallery flags) plus the outcome those
inputs must produce, runs one user-level operation on them, and checks
that outcome.  The program only ever sees the generated inputs.

The certify workloads keep the shape of the shipped scenarios (profile
exponent, schedule, member count and output grid), so the batch sizes and
layer shares an optimisation meets are those of real runs; the seed moves
the launch data within that shape.

Seed 1 is the default to tune against.  Seed 2 is held back: keep it out
of tuning, so that a later performance claim can be re-checked on inputs
it was not fitted to.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import flatvalley.cli as fv_cli
import flatvalley.reporting as fv_reporting

DEFAULT_SEED = 1

#: a clock reading seconds: ``time.perf_counter`` or a ``hostspeed.SpeedClock``
Clock = Callable[[], float]

#: BENCHMARK.json, the one place that states each workload's reason and
#: each metric's unit
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}

#: acceptance limit on relative energy drift of every rescaled member
ENERGY_DRIFT_LIMIT = 1e-8


@dataclass
class Inputs:
    """What one seed generates: program arguments plus the expected outcome."""

    argv: List[str]               # arguments of the flatvalley CLI operation
    setup_code: str               # fresh-interpreter set-up, timed as setup_s
    expected: Dict[str, object]
    files: Dict[str, str] = field(default_factory=dict)


@dataclass
class Outcome:
    """One operation: its time on the run's clock, gate verdict and accuracy
    readings.  The time covers the CLI command only, not its gate."""

    seconds: float
    ok: bool
    reason: str = ""
    readings: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named seed-to-inputs generator and the checked operation it feeds."""

    name: str
    why: str
    generate: Callable[[int, str], Inputs]
    check: Callable[[Inputs, Clock], Outcome]

    def inputs(self, seed: int, work_dir: str) -> Inputs:
        """Generate the seed's inputs and record them in ``inputs.json``."""
        inputs = self.generate(seed, work_dir)
        with open(os.path.join(work_dir, "inputs.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": self.name, "why": self.why, "seed": seed,
                       "argv": inputs.argv, "expected": inputs.expected}, fh, indent=2)
            fh.write("\n")
        return inputs


def _write_scenario(work_dir: str, scenario: dict) -> str:
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_setup(path: str) -> str:
    return ("import flatvalley\n"
            f"flatvalley.parse_scenario({path!r})\n")


def _certify_inputs(work_dir: str, scenario: dict, expected: dict) -> Inputs:
    path = _write_scenario(work_dir, scenario)
    out = os.path.join(work_dir, "out")
    return Inputs(
        argv=["certify", "--scenario", path, "--out", out, "--jobs", "1"],
        setup_code=_parse_setup(path), expected=expected,
        files={"scenario": path, "out": out})


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def circle_inputs(seed: int, work_dir: str) -> Inputs:
    """The shipped circle scenario, turned about the origin.

    The valley floor is the unit circle, so the limit runs along it at
    unit speed and the escape radius is the chord 2 sin(horizon / 2)
    whatever the rotation.  The seed picks the launch point
    p = (cos theta, sin theta) and the direction of the unit tangent v: it
    changes every input number, but by the circle's symmetry not the amount
    of work.  The speed stays at the shipped |v| = 1 (at |v| = 1.2 the
    coordinates stage fails with a ChartDomainError).
    """
    rng = random.Random(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    sign = rng.choice((-1.0, 1.0))
    horizon = 1.0
    scenario = {
        "name": "bench-circle",
        "potential": {"kind": "circle", "exponent": 2},
        "p": [math.cos(theta), math.sin(theta)],
        "v": [-sign * math.sin(theta), sign * math.cos(theta)], "horizon": horizon,
        "eps0": 0.1, "ratio": 0.5, "count": 6, "step_factor": 0.01,
    }
    return _certify_inputs(work_dir, scenario, {
        "verdict": "UNSTABLE", "escape_radius": 2.0 * math.sin(0.5 * horizon)})


def ellipsoid_inputs(seed: int, work_dir: str) -> Inputs:
    """The shipped 3-D ellipsoid scenario: floor x^2 + 2y^2 + 3z^2 = 1,
    profile exponent 4, p = (1, 0, 0), six members, default output grid.

    The seed rotates v in the tangent plane at p by an angle in
    [-0.7, 0.7] rad.
    """
    rng = random.Random(seed)
    phi = rng.uniform(-0.7, 0.7)
    scenario = {
        "name": "bench-ellipsoid",
        "potential": {"kind": "ellipsoid", "coeffs": [1.0, 2.0, 3.0], "exponent": 4},
        "p": [1.0, 0.0, 0.0], "v": [0.0, math.cos(phi), math.sin(phi)],
        "horizon": 0.5, "eps0": 0.1, "ratio": 0.5, "count": 6, "step_factor": 0.01,
    }
    return _certify_inputs(work_dir, scenario, {"verdict": "UNSTABLE"})


def painleve_inputs(seed: int, work_dir: str) -> Inputs:
    """Painleve bump exp(-1/|x|) sin(1/|x|): sub-barrier motion stays trapped.

    The seed picks the launch energy as a fraction of the barrier height.
    Ten motions to t = 100 (10,000 steps each, 100,000 in all) are a tenth
    of the gallery's default t = 1000, so a measuring window holds a dozen
    operations.
    """
    rng = random.Random(seed)
    fraction = rng.uniform(0.3, 0.7)
    out = os.path.join(work_dir, "out")
    os.makedirs(work_dir, exist_ok=True)
    return Inputs(
        argv=["gallery", "--name", "painleve", "--trajectories", "10",
              "--horizon", "100", "--energy-fraction", repr(fraction), "--out", out],
        setup_code="import flatvalley\nflatvalley.gallery_lookup('painleve', {})\n",
        expected={"all_trapped": True, "energy_fraction": fraction},
        files={"out": out})


# ---------------------------------------------------------------------------
# operations and their correctness gates
# ---------------------------------------------------------------------------


def _run_cli(argv: List[str]) -> int:
    """Run one flatvalley CLI command in-process, its printout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fv_cli.main(argv)


def _time_cli(argv: List[str], clock: Clock):
    """Run one CLI command; return its exit code and its time on ``clock``."""
    t0 = clock()
    code = _run_cli(argv)
    return code, clock() - t0


def check_certify(inputs: Inputs, clock: Clock) -> Outcome:
    """certify, then gate on verdict, file revalidation, R, drift and margin."""
    out_dir = inputs.files["out"]
    code, seconds = _time_cli(inputs.argv, clock)
    with open(os.path.join(out_dir, "report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    cert = report.get("certificate", {})
    if code != 0 or cert.get("verdict") != inputs.expected["verdict"]:
        return Outcome(seconds, False, f"exit {code}, verdict {cert.get('verdict')}")
    revalidated = fv_reporting.revalidate_from_dir(out_dir)
    drift = max(report["family"]["energy_drifts"])
    margin = min(row["displacement"] for row in cert["evidence"]) / cert["threshold"]
    readings = {"analysis.energy_drift_max": drift, "analysis.cert_margin": margin}
    if not revalidated["ok"]:
        return Outcome(seconds, False, f"file revalidation failed: {revalidated}", readings)
    if not drift <= ENERGY_DRIFT_LIMIT:
        return Outcome(seconds, False, f"energy drift {drift:.3e} > {ENERGY_DRIFT_LIMIT:g}",
                       readings)
    if not margin >= 1.0:
        return Outcome(seconds, False, f"certificate margin {margin:.6g} < 1", readings)
    # the limit is known to within the last Cauchy distance of the family
    want_r = inputs.expected.get("escape_radius")
    tol_r = report["convergence"]["distances"][-1]
    if want_r is not None and not abs(cert["escape_radius"] - want_r) <= tol_r:
        return Outcome(seconds, False,
                       f"escape radius {cert['escape_radius']!r} != {want_r!r} "
                       f"within {tol_r:.3g}", readings)
    return Outcome(seconds, True, readings=readings)


def check_painleve(inputs: Inputs, clock: Clock) -> Outcome:
    """gallery --name painleve, gated on every sub-barrier motion being trapped."""
    code, seconds = _time_cli(inputs.argv, clock)
    with open(os.path.join(inputs.files["out"], "gallery_report.json"), "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if code != 0 or report.get("all_trapped") is not True:
        return Outcome(seconds, False, f"exit {code}, all_trapped {report.get('all_trapped')}")
    if len(report["records"]) != 10:
        return Outcome(seconds, False, f"{len(report['records'])} records, expected 10")
    return Outcome(seconds, True)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("certify-circle", WHY["certify-circle"], circle_inputs, check_certify),
    Workload("certify-ellipsoid", WHY["certify-ellipsoid"], ellipsoid_inputs, check_certify),
    Workload("contrast-painleve", WHY["contrast-painleve"], painleve_inputs, check_painleve),
)}


def run_operation(workload: Workload, inputs: Inputs,
                  clock: Clock = time.perf_counter) -> Outcome:
    """Run one operation and its gate, timed on ``clock``; an exception
    counts as a failure."""
    t0 = clock()
    try:
        return workload.check(inputs, clock)
    except Exception as exc:  # the benchmark counts failures, it does not stop on them
        return Outcome(clock() - t0, False, f"{type(exc).__name__}: {exc}")
