"""Exact symmetries of the pipeline: a mapped scenario certifies the mapped result.

The circle's potential is invariant under every orthogonal map of the plane
and the ellipsoid's under the mirror of each axis.  A mirror flips the sign
of one coordinate and the quarter turn of the plane swaps its two axes with
one sign flip; both commute with rounding, since f and every norm the
pipeline takes sum the same squares in an order that, with two terms,
cannot matter.  So the mirrored or turned scenario must give the same step
plan and every certificate scalar bit for bit, and the mapped limit curve.

Time rescaling by a power of 2 is exact as well: the scenario (2^m eps0,
2^-m v, 2^m T) launches every physical run at the same speed eps_j |v|,
and its rescaled members run the same steps in 2^m times the rescaled
time.  Its certificate keeps R's bits and scales tau* by 2^m exactly.
"""
import json

import numpy as np
import pytest

import flatvalley as fv
from flatvalley.reporting import read_csv_columns

# name -> (potential, p, v, horizon) of the shipped circle and ellipsoid
BASE = {
    "circle": (fv.circle(), [1.0, 0.0], [0.0, 1.0], 1.0),
    "ellipsoid": (fv.ellipsoid(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5),
}

# symmetry -> (scenario, axis permutation, axis signs): the map sends x to
# the point whose axis i is signs[i] * x[perm[i]]
SYMMETRIES = {
    "circle-y-mirror": ("circle", [0, 1], [1.0, -1.0]),
    "circle-quarter-turn": ("circle", [1, 0], [-1.0, 1.0]),
    "ellipsoid-x-mirror": ("ellipsoid", [0, 1, 2], [-1.0, 1.0, 1.0]),
    "ellipsoid-y-mirror": ("ellipsoid", [0, 1, 2], [1.0, -1.0, 1.0]),
}


def _certify(out, potential, p, v, horizon, **kwargs):
    """report.json and the limit curve (tau, x) of one certify run."""
    scn = fv.Scenario(potential, p, v, horizon, **kwargs)
    run = fv.run_pipeline(scn, str(out), svg=False)
    assert run.exit_code == 0, run.reason
    report = json.loads((out / "report.json").read_text())
    cols = read_csv_columns(str(out / "limit.csv"))
    return report, cols["tau"], np.stack([cols[f"x{i}"] for i in range(len(p))], axis=1)


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("symmetry_base")
    return {name: _certify(root / name, *args) for name, args in BASE.items()}


def _mapped(x, perm, signs):
    return np.asarray(x)[..., perm] * np.asarray(signs)


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
def test_a_symmetry_of_the_potential_maps_the_certificate(base_runs, tmp_path, symmetry):
    name, perm, signs = SYMMETRIES[symmetry]
    potential, p, v, horizon = BASE[name]
    report, tau, x = _certify(tmp_path, potential, _mapped(p, perm, signs),
                              _mapped(v, perm, signs), horizon)
    base, base_tau, base_x = base_runs[name]
    for key in ("p", "v"):
        assert report["scenario"][key] == _mapped(base["scenario"][key], perm, signs).tolist()
    assert report["certificate"] == base["certificate"]
    assert report["family"]["substeps"] == base["family"]["substeps"]
    assert report["family"]["lockstep_iterations"] == base["family"]["lockstep_iterations"]
    # the same floats, node for node; only a zero may change its sign
    assert np.array_equal(tau, base_tau)
    assert np.array_equal(x, _mapped(base_x, perm, signs))


@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3], ids=lambda m: f"m={m}")
@pytest.mark.parametrize("name", sorted(BASE))
def test_scaling_eps0_and_the_horizon_by_2_to_the_m_scales_tau_star(base_runs, tmp_path,
                                                                      name, m):
    potential, p, v, horizon = BASE[name]
    scale = 2.0 ** m
    report, tau, x = _certify(tmp_path, potential, p, np.asarray(v) / scale, horizon * scale,
                              eps0=0.1 * scale)
    base, base_tau, base_x = base_runs[name]
    cert, base_cert = report["certificate"], base["certificate"]
    assert cert["escape_radius"] == base_cert["escape_radius"]
    assert cert["tau_star"] == base_cert["tau_star"] * scale
    # every other scalar and every evidence run is the same
    assert dict(cert, tau_star=cert["tau_star"] / scale) == base_cert
    for key in ("substeps", "lockstep_iterations"):
        assert report["family"][key] == base["family"][key]
    assert np.array_equal(tau, base_tau * scale) and np.array_equal(x, base_x)
