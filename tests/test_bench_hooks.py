"""The benchmark still fits the package it runs.

``flatbench/tracer.py`` wraps package functions by name and reads some of
their arguments and results by name, and ``flatbench/workloads.py`` hands
the CLI generated command lines.  A refactor that renames one of them
would only crash a benchmark run; here it fails in milliseconds.  The
benchmark modules are imported from their files and never modified.
"""
import ast
import dataclasses
import importlib.util
import inspect
import pathlib
import sys
import typing

import numpy as np
import pytest

from flatvalley import cli, dynamics, fields

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "flatbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("flatbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

#: hook name -> argument names it reads from the patched call
HOOK_ARGS = {
    "_steps": ("n_steps",),
    "_flow_substeps": ("t", "n_steps"),
    "_audit_rows": ("traj",),
    "_bytes_written": ("path",),
    "_bytes_read": ("path",),
    "_report_read": ("out_dir",),
}
#: hook name -> attributes it reads from the patched call's result
HOOK_RESULT_FIELDS = {
    "_metric_points": ("n_grid", "y_box"),
    "_stages": ("stages",),
}


def test_every_patched_name_is_in_its_owner():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer.PATCHES
               if not callable(vars(owner).get(attr))]
    assert not missing


def test_every_hook_reads_names_that_still_bind():
    problems = []
    for owner, attr, _, hook in tracer.PATCHES:
        if hook is None:
            continue
        fn = vars(owner)[attr]
        if hook.__name__ not in HOOK_ARGS and hook.__name__ not in HOOK_RESULT_FIELDS:
            problems.append(f"hook {hook.__name__} is not described here")
        params = inspect.signature(fn).parameters
        problems += [f"{attr} lost its argument {arg!r}"
                     for arg in HOOK_ARGS.get(hook.__name__, ()) if arg not in params]
        if hook.__name__ in HOOK_RESULT_FIELDS:
            result = typing.get_type_hints(fn)["return"]
            fields = {f.name for f in dataclasses.fields(result)}
            problems += [f"{result.__name__} lost its field {field!r}"
                         for field in HOOK_RESULT_FIELDS[hook.__name__] if field not in fields]
    assert not problems


#: parameters of the gallery entries without defaults for all of them
GALLERY_PARAMS = {"custom-polynomial": {"linear": [1.0, 0.0], "quadratic": [0.5, 1.0]}}


@pytest.mark.parametrize("name", sorted(fields._GALLERY))
def test_tracer_counts_the_oracles_of_every_gallery_potential(name):
    t = tracer.Tracer()
    P = t.counted_potential(fields.gallery_lookup(name, GALLERY_PARAMS.get(name, {})))
    x = np.linspace(0.2, 0.4, P.dim)
    for counter, call in (("fields.f_calls", lambda: P.value(x)),
                          ("fields.grad_calls", lambda: P.gradient(x)),
                          ("fields.many_rows", lambda: P.value_many(np.stack([x, 2.0 * x])))):
        before = t.counts[counter]
        call()
        assert t.counts[counter] > before, f"{name}: {counter} did not move"


WORKLOADS_PATH = TRACER_PATH.parent / "workloads.py"


@pytest.fixture()
def workloads(monkeypatch):
    """flatbench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("flatbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_workload_command_line_parses(tmp_path, workloads):
    # the benchmark runs the CLI in-process with the argv its workloads
    # generate, ``--jobs 1`` included: a removed or renamed flag fails here
    parser = cli.build_parser()
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        argv = workload.inputs(workloads.DEFAULT_SEED, str(tmp_path / name)).argv
        args = parser.parse_args(argv)
        assert args.command == argv[0], name
        if "--jobs" in argv:
            assert args.jobs == int(argv[argv.index("--jobs") + 1]), name


def test_benchmark_drift_gate_is_the_pipeline_gate(workloads):
    # the benchmark gates certify on its own copy of the drift limit
    assert workloads.ENERGY_DRIFT_LIMIT == dynamics.ENERGY_DRIFT_LIMIT


def _imported_and_read(tree):
    """The names a module's imports bind, and the names it reads: loaded
    names, and the names of its string annotations."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return imported, read


def test_every_import_is_read_or_patched_by_the_tracer():
    # a module may import a name it never reads only so the tracer can patch
    # it there; once the tracer stops patching one, its re-import must go
    package = pathlib.Path(fields.__file__).resolve().parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"flatvalley.{path.stem}"
        patched = {attr for owner, attr, _, _ in tracer.PATCHES if owner.__name__ == module}
        imported, read = _imported_and_read(ast.parse(path.read_text(encoding="utf-8")))
        problems += [f"{module} imports {name} and never reads it"
                     for name in sorted(imported - read - patched)]
    assert not problems


def test_only_geometry_states_the_flow_step_laws():
    # geometry's kernels take their flow substeps from the times and
    # f-values they already hold, so no other module restates a law
    laws = {"flow_steps_for", "default_flow_steps"}
    package = pathlib.Path(fields.__file__).resolve().parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "geometry":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [getattr(node.func, "id", getattr(node.func, "attr", None))]
            else:
                continue
            problems += [f"flatvalley.{path.stem} line {node.lineno} names {name}"
                         for name in names if name in laws]
    assert not problems


def _calls(node, owner=None):
    """(innermost enclosing function, called name) of every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, getattr(child.func, "id", getattr(child.func, "attr", None))
        yield from _calls(child, owner)


def test_one_function_states_the_certificate_law():
    # one function of the package builds an InstabilityCertificate, and
    # check_certificate rebuilds the certificate through it, so the law the
    # certificate stage states is the law revalidation checks
    package = pathlib.Path(fields.__file__).resolve().parent
    builders, checker_calls = [], set()
    for path in sorted(package.glob("*.py")):
        for owner, name in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if name == "InstabilityCertificate":
                builders.append(f"flatvalley.{path.stem}.{owner}")
            if path.stem == "analysis" and owner == "check_certificate":
                checker_calls.add(name)
    assert builders == ["flatvalley.analysis.instability_certificate"]
    assert "instability_certificate" in checker_calls


def test_only_the_scenario_readers_build_a_scenario():
    # scenario builds every Scenario, in its file and record readers, and
    # reporting, which reads report.json's scenario block back through the
    # record reader, builds no potential or options of its own
    package = pathlib.Path(fields.__file__).resolve().parent
    builders, problems = [], []
    for path in sorted(package.glob("*.py")):
        for owner, name in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if name == "Scenario":
                builders.append(f"flatvalley.{path.stem}.{owner}")
            if path.stem == "reporting" and name in ("gallery_lookup", "IntegratorOptions"):
                problems.append(f"flatvalley.reporting.{owner} calls {name}")
    assert builders == ["flatvalley.scenario.read_scenario",
                        "flatvalley.scenario.parse_scenario"]
    assert not problems


def test_one_module_states_the_step_gate_and_one_builds_the_report_blocks():
    # dynamics.step_error_limit is the family's step-error gate, and every
    # report.json block is built in reporting, beside the checks that read
    # the blocks back
    package = pathlib.Path(fields.__file__).resolve().parent
    problems = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            if path.stem != "dynamics" and "STEP_ERROR_FRACTION" in names:
                problems.append(f"flatvalley.{path.stem} line {node.lineno} reads "
                                "STEP_ERROR_FRACTION")
            if (path.stem != "reporting" and isinstance(node, ast.FunctionDef)
                    and node.name.endswith("_payload")):
                problems.append(f"flatvalley.{path.stem} line {node.lineno} defines {node.name}")
    assert not problems
