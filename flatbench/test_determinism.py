"""Determinism self-test of the benchmark.

Run from the repository root with ``python3 -m pytest flatbench -q``.  For
every workload at its default seed: two traced operations must give
identical work counters, and the report the operation emits must be
byte-identical with and without the tracer installed.
"""
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import PATCHES, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_operation  # noqa: E402

WORK = os.path.join(os.path.dirname(HERE), ".bench_out", "selftest")
REPORTS = ("report.json", "gallery_report.json")


def _report_bytes(inputs):
    out = inputs.files.get("out")
    if out is None:
        return None
    for name in REPORTS:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                return fh.read()
    raise AssertionError(f"no report emitted under {out}")


def _counters(tracer):
    return {k: v for k, v in tracer.layer_metrics().items() if not k.endswith("_s")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_and_tracing_leaves_report_unchanged(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(DEFAULT_SEED, os.path.join(WORK, name))

    plain = run_operation(workload, inputs)
    assert plain.ok, plain.reason
    untraced_report = _report_bytes(inputs)

    originals = [owner.__dict__[attr] for owner, attr, _, _ in PATCHES]
    counters = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            outcome = run_operation(workload, inputs)
        assert outcome.ok, outcome.reason
        assert _report_bytes(inputs) == untraced_report
        counters.append(_counters(tracer))
    assert [owner.__dict__[attr] for owner, attr, _, _ in PATCHES] == originals
    assert counters[0] == counters[1]
    assert counters[0]["fields.grad_calls"] > 0
