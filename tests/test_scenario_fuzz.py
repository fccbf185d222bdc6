"""Scenario files of every magnitude end in one of the three outcomes.

``flatvalley certify`` on any scenario JSON must exit 0 (a certificate),
2 (an indeterminate verdict) or 1 (a FlatValleyError on one line), with no
traceback, no numpy RuntimeWarning escaping a kernel and no non-finite
number in any file it wrote, and the files of every certificate must
revalidate.  The generated files vary the composite
potential, the magnitude and direction of v, the horizon, eps0, the ratio,
the member count, the step factor and the output grid over the whole float
range.
"""
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flatvalley import cli
from flatvalley.reporting import revalidate_from_dir

# kind -> (potential record, p on its floor, unit tangents at p, unit normal at p)
KINDS = {
    "circle": ({"kind": "circle"}, [1.0, 0.0], [[0.0, 1.0]], [1.0, 0.0]),
    "gutter": ({"kind": "gutter"}, [0.0, 0.0], [[0.0, 1.0]], [1.0, 0.0]),
    "ellipsoid": ({"kind": "ellipsoid"}, [1.0, 0.0, 0.0],
                  [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0, 0.0]),
    "custom-polynomial": ({"kind": "custom-polynomial", "quadratic": [1.0, 2.0],
                           "offset": 1.0}, [1.0, 0.0], [[0.0, 1.0]], [1.0, 0.0]),
}


def magnitude(lo, hi):
    """m 10^e, 1 <= m < 10, lo <= e <= hi: every decade alike, and its ends."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(lo, hi))


def value(lo, hi, extreme):
    """Half the time a value of the shipped scenarios' range, so that runs
    reach the certificate, half the time one of any magnitude."""
    return st.one_of(st.floats(lo, hi), extreme)


@st.composite
def scenarios(draw):
    potential, p, tangents, normal = KINDS[draw(st.sampled_from(sorted(KINDS)))]
    speed = draw(value(0.5, 2.0, magnitude(-300, 300)))
    # a direction spread over every axis: a weight on each tangent and a
    # tilt off the floor, none (tangent), small (the reader projects it
    # out) or large (rejected as not tangent)
    weights = [draw(st.floats(-1.0, 1.0)) for _ in tangents]
    weights[0] = 1.0 if weights[0] == 0.0 else weights[0]
    tilt = draw(st.sampled_from([0.0, 0.05, 1.0])) * draw(st.floats(-1.0, 1.0))
    direction = [tilt * n + sum(w * t[i] for w, t in zip(weights, tangents))
                 for i, n in enumerate(normal)]
    length = math.hypot(*direction)
    horizon = draw(value(0.2, 1.0, magnitude(-310, 2)))
    eps0 = draw(value(0.05, 0.2, magnitude(-300, 300)))
    # or a step of member 0 from 1% to all of the horizon, so that extreme
    # horizons and eps0 reach the integrator rather than its MAX_STEPS check
    matched = st.floats(0.01, 1.0).map(lambda c: c * horizon / eps0)
    return {
        "potential": potential,
        "p": p,
        "v": [speed * (c / length) for c in direction],
        "horizon": horizon,
        "eps0": eps0,
        "ratio": draw(st.floats(0.05, 0.95)),
        # certify refuses fewer than 3 members before any stage runs
        "count": draw(st.integers(3, 4)),
        "step_factor": draw(st.one_of(value(0.01, 0.1, magnitude(-300, 300)), matched)),
        # on 21 nodes or fewer the noise ball holds about every limit the
        # family can reach (exit 2); 41, 101 and the shipped 401 certify
        "n_out": draw(st.sampled_from([5, 7, 9, 11, 21, 41, 101, 401])),
        # no cap on the schedule: the eps magnitudes reach the numerics
        "min_eps": 1e-300,
    }


def _strict(text):
    def reject(constant):
        raise AssertionError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _assert_finite_files(out):
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".json"):
            _strict(text)
        elif name.endswith(".csv"):
            cells = [c for line in text.splitlines()[1:] for c in line.split(",")]
            assert all(math.isfinite(float(c)) for c in cells), name


CIRCLE = {"potential": {"kind": "circle"}, "p": [1.0, 0.0], "v": [0.0, 1.0]}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario=scenarios())
@example(scenario=dict(CIRCLE, horizon=1e-300))
@example(scenario=dict(CIRCLE, eps0=1e300))
@example(scenario=dict(CIRCLE, eps0=1.5e154, count=2))  # eps0^2 overflows, eps0^2 / 2 does not
@example(scenario=dict(CIRCLE, eps0=1e-162, count=1, step_factor=1e156, min_eps=1e-300))
@example(scenario=dict(CIRCLE, name={"a": 1}))
# each square is finite, their sum is not
@example(scenario={"potential": {"kind": "ellipsoid"}, "p": [1.0, 0.0, 0.0],
                   "v": [0.0, 1e154, 1e154]})
@example(scenario=dict(CIRCLE, v=[1e154, 1e154]))
def test_every_scenario_ends_in_one_of_three_outcomes(tmp_path, capsys, scenario):
    work = tempfile.mkdtemp(dir=tmp_path)  # one directory per example
    path, out = os.path.join(work, "fuzz.json"), os.path.join(work, "out")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["certify", "--scenario", path, "--out", out, "--no-svg"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    _assert_finite_files(out)
    if code == 0:
        assert revalidate_from_dir(out)["ok"]
