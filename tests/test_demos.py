"""The demos stay in step with the package API without being run.

Each script in ``demos/`` is parsed, not executed (running all six takes
about half a minute): every ``fv.<name>`` it uses must be an export of
``flatvalley``, and every ``fv.<name>(...)`` call must bind to that
export's signature, so a removed name, a removed keyword or a newly
required argument fails here.
"""
import ast
import inspect
import pathlib

import pytest

import flatvalley as fv

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _fv_uses(tree):
    """(node, name) for every ``fv.<name>`` attribute in the tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "fv"):
            yield node, node.attr


def test_demos_are_found():
    assert DEMOS  # an empty glob would parametrize no case below


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_calls_match_the_api(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node, name in _fv_uses(tree):
        assert hasattr(fv, name), f"{path.name}:{node.lineno}: fv.{name} is not exported"
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "fv"):
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            continue  # *args / **kwargs: the arity is not known statically
        signature = inspect.signature(getattr(fv, call.func.attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{call.lineno}: fv.{call.func.attr}(...) does not "
                        f"match {signature}: {exc}")
