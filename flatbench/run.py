"""flatvalley benchmark: one seeded workload per process.

Usage (from the repository root)::

    python3 flatbench/run.py --workload certify-circle --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``,
``setup_s`` (median over fresh interpreters of ``import flatvalley`` plus
validating the workload's input) and ``peak_rss_mb``.  With ``--trace 1``
it alternates untraced and traced operations and reports the per-layer
metrics of ``tracer.py`` plus accuracy readings and the tracing overhead.

``wall_s`` is the median time of one operation, in nominal seconds.  On
a shared 2-core host the speed of the same deterministic work swings by
up to 2x, in phases from under a second to minutes, so operations are
timed on ``hostspeed.SpeedClock``: it samples the host's speed with a
fixed reference kernel every 25 ms and reads the seconds the work would
take at a fixed nominal speed.  The first operation is timed too; its
one-off costs (lazy imports, cold caches) are within the spread of the
later ones.  ``setup_s`` is the median raw wall time of the fresh
interpreters: imports and file reads do not follow the reference
kernel's speed, so scaling them by it spreads them more, not less.
Per-layer times are raw wall seconds of the fastest traced operation,
the least disturbed one.

Every operation is checked (see ``workloads.py``); a failed check or an
exception counts in ``failed`` and never stops the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric with its
unit and sample count and the recorded environment.  The full record,
spans included, is written under ``.bench_out/`` in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: fresh interpreters timed for setup_s (after one untimed to fill bytecode caches)
SETUP_REPEATS = 11
#: untraced operations a run makes at the least, however long they take
MIN_OPERATIONS = 2
#: fixed-input oracle timing: rows per batch and repeats
ORACLE_ROWS = 2000
ORACLE_REPEATS = 5


def _environment() -> dict:
    import numpy

    try:
        with open("/proc/loadavg", "r", encoding="utf-8") as fh:
            loadavg = fh.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
        "loadavg_at_start": loadavg,
    }


def _setup_seconds(code: str) -> list:
    """Time ``code`` in fresh interpreters, from first statement to validated input."""
    script = ("import time\n_t0 = time.perf_counter()\n" + code
              + "print(repr(time.perf_counter() - _t0))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _oracle_timings(inputs) -> dict:
    """ns per field-gradient call and per batched value row, on fixed inputs."""
    import numpy as np

    import flatvalley.cli as fv_cli
    import flatvalley.fields as fv_fields

    if "scenario" in inputs.files:
        scn = fv_cli.parse_scenario(inputs.files["scenario"])
        fld = scn.potential.field
        grad, many, centre = fld.grad, fld.value_many, scn.p
    else:  # the painleve gallery potential has no field; time U itself
        pot = fv_fields.gallery_lookup("painleve", {})
        grad, many, centre = pot.grad_u, pot.value_many, np.zeros(1)
    rows = centre + 0.05 * np.random.default_rng(0).standard_normal((ORACLE_ROWS, centre.size))
    per_call, per_row = [], []
    for _ in range(ORACLE_REPEATS):
        t0 = time.perf_counter()
        for x in rows:
            grad(x)
        per_call.append((time.perf_counter() - t0) / ORACLE_ROWS * 1e9)
        t0 = time.perf_counter()
        many(rows)
        per_row.append((time.perf_counter() - t0) / ORACLE_ROWS * 1e9)
    return {"fields.grad_ns_per_call": statistics.median(per_call),
            "fields.many_ns_per_row": statistics.median(per_row)}


#: accuracy readings of the certify gates, reported with the per-layer metrics
READINGS = ("analysis.energy_drift_max", "analysis.cert_margin")


def _measure(workload, inputs, seconds: float, trace: bool):
    """Run operations for ``seconds``, alternating untraced and traced ones
    when tracing; return the untraced and the traced outcomes, the tracer
    of each traced operation and the clock the untraced ones were timed on.

    Without tracing, operations are timed on a running ``SpeedClock``;
    with tracing, on raw wall time.  After the first ``MIN_OPERATIONS``
    untraced operations, an operation is started only while it is
    expected, at the pace of the last one, to end inside the window, so a
    run ends close to ``seconds``."""
    from hostspeed import SpeedClock
    from tracer import Tracer
    from workloads import run_operation

    untraced, traced, tracers = [], [], []
    clock = time.perf_counter if trace else SpeedClock()
    start = time.perf_counter()
    last = 0.0
    with contextlib.nullcontext() if trace else clock.running():
        while ((not trace and len(untraced) < MIN_OPERATIONS) or not untraced
               or time.perf_counter() - start + last <= seconds
               or (trace and len(traced) < len(untraced))):
            t0 = time.perf_counter()
            if trace and len(untraced) > len(traced):
                tracer = Tracer()
                with tracer.installed():
                    traced.append(run_operation(workload, inputs))
                tracers.append(tracer)
            else:
                untraced.append(run_operation(workload, inputs, clock))
            last = time.perf_counter() - t0
    return untraced, traced, tracers, clock


def _layer_values(untraced, traced, tracers, inputs) -> dict:
    """Per-layer metrics of the fastest traced operation, plus readings."""
    times = [o.seconds for o in traced]
    values = tracers[times.index(min(times))].layer_metrics()
    steps = values["integrators.steps"]
    values["integrators.ns_per_step"] = (values["integrators.busy_s"] / steps * 1e9
                                         if steps else 0.0)
    values.update(_oracle_timings(inputs))
    for key in READINGS:
        samples = [o.readings[key] for o in untraced + traced if key in o.readings]
        values[key] = statistics.median(samples) if samples else 0.0
    values["trace.overhead"] = min(times) / min(o.seconds for o in untraced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flatvalley", "__init__.py")):
        print(f"error: flatvalley sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    env = _environment()

    from workloads import DECLARED, DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    work_dir = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{args.trace}")
    inputs = workload.inputs(seed, work_dir)

    setup = [] if args.trace else _setup_seconds(inputs.setup_code)
    untraced, traced, tracers, clock = _measure(workload, inputs, args.seconds,
                                               bool(args.trace))
    outcomes = untraced + traced
    failed = [o.reason for o in outcomes if not o.ok]
    timed = [o.seconds for o in untraced]

    if args.trace:
        values = _layer_values(untraced, traced, tracers, inputs)
        samples = {k: len(traced) for k in values}
    else:
        values = {"wall_s": statistics.median(timed), "setup_s": statistics.median(setup),
                  "peak_rss_mb": _peak_rss_mb()}
        samples = {"wall_s": len(timed), "setup_s": len(setup), "peak_rss_mb": 1}
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    units = {k: declared[k] for k in values}

    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "operation_seconds": {"untraced": timed, "traced": [o.seconds for o in traced]},
        "speed_samples": 0 if args.trace else clock.samples,
        "speed_handler_seconds": 0.0 if args.trace else clock.handler_s,
        "setup_seconds": setup, "failures": failed,
        "metrics": {k: {"value": values[k], "unit": units[k], "samples": samples[k]}
                    for k in values},
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracers:
        with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "operations": [t.spans for t in tracers]}, fh)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {seed}: {workload.why}")
    for reason in failed:
        print(f"FAILED: {reason}")
    for k in sorted(values):
        print(f"  {k:<28} {values[k]:>16.6g} {units[k]:<8} n={samples[k]}")
    if not args.trace:
        print(f"  {len(timed)} operations timed, {clock.samples} speed samples")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
