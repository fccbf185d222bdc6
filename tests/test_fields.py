import numpy as np
import pytest

import flatvalley as fv
from flatvalley.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteEvaluationError,
    UnknownPotentialError,
)

RNG = np.random.default_rng(7)


def central_difference_gradient(potential, x, h):
    """Independent oracle for every analytic gradient in the gallery."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (potential.value(x + e) - potential.value(x - e)) / (2 * h)
    return out


def test_gallery_values():
    E = fv.ellipsoid()
    assert E.value([1.0, 0.0, 0.0]) == 0.0
    assert E.value([0.0, 0.0, 0.0]) == 1.0
    G = fv.gutter()
    assert G.value([0.5, 7.3]) == pytest.approx(0.0625, abs=0.0)


def test_gallery_gradients():
    E = fv.ellipsoid()
    assert np.allclose(E.gradient([1.0, 0.0, 0.0]), 0.0)
    G = fv.gutter()
    assert np.allclose(G.gradient([0.5, 0.0]), [0.5, 0.0])
    C = fv.circle()
    assert np.allclose(C.gradient([2.0, 0.0]), [24.0, 0.0])


def test_chain_rule_is_exact():
    for P in (fv.gutter(), fv.circle(), fv.ellipsoid()):
        for _ in range(20):
            x = RNG.uniform(-1.5, 1.5, size=P.dim)
            manual = P.profile.dg(P.field.value(x)) * P.field.gradient(x)
            assert np.array_equal(P.gradient(x), manual)


def test_fd_gradient_check_thresholds():
    E = fv.ellipsoid()
    assert fv.fd_gradient_check(E, [1.1, 0.2, -0.3], h=1e-5) <= 1e-6
    G = fv.gutter()
    assert fv.fd_gradient_check(G, [0.0, 0.0], h=1e-5) <= 1e-12
    P = fv.painleve()
    assert fv.fd_gradient_check(P, [0.2], h=1e-7) <= 1e-5


def test_fd_gradient_check_names_the_first_non_finite_axis():
    # U is infinite past y = 0.5 and past x = 0.75
    def wall(X):
        return np.where((X[:, 1] > 0.5) | (X[:, 0] > 0.75), np.inf, 0.0)

    P = fv.PlainPotential(dim=2, u=lambda x: float(wall(x[None])[0]), grad_u=np.zeros_like,
                          u_many=wall, label="wall")
    with pytest.raises(NonFiniteEvaluationError, match=r"of \[0\.  0\.5\] along axis 1$"):
        fv.fd_gradient_check(P, [0.0, 0.5], h=0.1)
    with pytest.raises(NonFiniteEvaluationError, match="along axis 0$"):
        fv.fd_gradient_check(P, [0.7, 0.5], h=0.1)
    assert fv.fd_gradient_check(P, [0.0, 0.0], h=0.1) == 0.0


def test_fd_gradient_check_random_points():
    for P in (fv.gutter(), fv.circle(), fv.ellipsoid(), fv.laloy()):
        for _ in range(10):
            x = RNG.uniform(0.1, 1.2, size=P.dim) * RNG.choice([-1.0, 1.0], size=P.dim)
            assert fv.fd_gradient_check(P, x) <= 1e-6


def test_positivity_on_random_sample():
    for P in (fv.gutter(), fv.circle(), fv.ellipsoid()):
        X = RNG.uniform(-2.0, 2.0, size=(10_000, P.dim))
        assert float(P.value_many(X).min()) >= 0.0


def test_zero_locus_consistency():
    # points with |f| <= 1e-9 must have U <= g(1e-9)
    C = fv.circle()
    for _ in range(100):
        theta = RNG.uniform(0, 2 * np.pi)
        delta = RNG.uniform(-1e-9, 1e-9)
        x = np.sqrt(1.0 + delta) * np.array([np.cos(theta), np.sin(theta)])
        assert abs(C.field.value(x)) <= 1.1e-9
        assert C.value(x) <= C.profile.g(1.1e-9)


def test_bump_potential_values_and_symmetry():
    P = fv.painleve()
    assert P.value([0.0]) == 0.0
    assert P.value([1e-13]) == 0.0  # continuity cutoff
    assert P.value([0.2]) == pytest.approx(np.exp(-5.0) * np.sin(5.0), rel=1e-14)
    for x in (0.07, 0.2, 0.5):
        assert P.value([x]) == P.value([-x])
        assert P.gradient([x])[0] == -P.gradient([-x])[0]


def test_laloy_structure():
    L = fv.laloy()
    assert L.dim == 2
    # x part decouples: dU/dx does not depend on y
    g1 = L.gradient([0.2, 0.1])[0]
    g2 = L.gradient([0.2, -0.7])[0]
    assert g1 == g2
    assert L.value([0.0, 0.0]) == 0.0


def test_profile_validation():
    with pytest.raises(InvalidParameterError):
        fv.power_profile(0)
    with pytest.raises(InvalidParameterError):
        fv.power_profile(-2)
    with pytest.raises(InvalidParameterError):
        fv.power_profile(3)
    with pytest.raises(InvalidParameterError):
        fv.power_profile("4")
    g = fv.power_profile(4)
    assert g.g(0.0) == 0.0
    for s in (0.3, -0.8, 2.0):
        assert g.g(s) > 0.0
        assert g.inverse(g.g(s)) == pytest.approx(abs(s), rel=1e-12)


@pytest.mark.parametrize("exponent", [66, 1e300, 10**5, float("inf"), float("nan")])
def test_profile_exponent_is_capped(exponent):
    # s**k costs k - 1 multiplications: a huge k would hang every oracle call
    with pytest.raises(InvalidParameterError, match="from 2 to 64"):
        fv.gallery_lookup("circle", {"exponent": exponent})
    assert fv.gallery_lookup("circle", {"exponent": 64}).value([0.0, 0.0]) == 1.0


def test_gallery_lookup():
    P = fv.gallery_lookup("ellipsoid", {})
    assert P.dim == 3 and P.value([0.0, 0.0, 0.0]) == 1.0
    P = fv.gallery_lookup("gutter", {})
    assert P.value([1.0, 3.0]) == 1.0
    P = fv.gallery_lookup("painleve", {})
    assert P.value([0.0]) == 0.0
    with pytest.raises(UnknownPotentialError):
        fv.gallery_lookup("doughnut", {})
    with pytest.raises(InvalidParameterError):
        fv.gallery_lookup("ellipsoid", {"exponent": -4})
    with pytest.raises(InvalidParameterError):
        fv.gallery_lookup("gutter", {"sharpness": 2})
    with pytest.raises(InvalidParameterError):
        fv.gallery_lookup("ellipsoid", {"coeffs": [1.0, "a", 3.0]})


def test_custom_polynomial():
    # f(x, y) = x  (the straight valley) via the generic form
    P = fv.gallery_lookup("custom-polynomial",
                          {"linear": [1.0, 0.0], "exponent": 4})
    assert P.value([0.5, 9.0]) == 0.0625
    with pytest.raises(InvalidParameterError):
        fv.custom_polynomial()


@pytest.mark.parametrize("build, name", [
    (lambda: fv.ellipsoid(coeffs=[1e308, 2.0, 3.0]), "coeffs"),
    (lambda: fv.ellipsoid(coeffs=[1.0, 2.0, np.inf]), "coeffs"),
    (lambda: fv.custom_polynomial(quadratic=[1.0, -1e308]), "quadratic"),
    (lambda: fv.custom_polynomial(linear=[np.nan, 1.0]), "linear"),
    (lambda: fv.custom_polynomial(linear=[1.0, 0.0], offset=np.inf), "offset"),
], ids=["coeffs-huge", "coeffs-inf", "quadratic-huge", "linear-nan", "offset-inf"])
def test_a_coefficient_the_oracles_cannot_use_is_refused(build, name):
    # the gradient kernels take twice the ellipsoid's and the quadratic
    # coefficients, which must not overflow
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
        build()


def test_dimension_mismatch():
    C = fv.circle()
    with pytest.raises(DimensionMismatchError):
        C.value([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        C.gradient([1.0])


def test_regular_value_pass_and_min():
    E = fv.ellipsoid()
    seeds = np.array([1.0, 0.0, 0.0]) + RNG.uniform(-0.2, 0.2, size=(12, 3))
    report = fv.check_regular_value(E.field, seeds)
    assert report.passed
    # the gradient norm on the ellipsoid is minimal (= 2) at (+-1, 0, 0)
    assert report.min_grad_norm >= 2.0 - 1e-6
    near_pole = np.array([1.0, 0.0, 0.0]) + RNG.uniform(-1e-3, 1e-3, size=(8, 3))
    report = fv.check_regular_value(E.field, near_pole)
    assert report.min_grad_norm == pytest.approx(2.0, abs=1e-2)


def test_regular_value_constant_gradient():
    G = fv.gutter()
    seeds = RNG.uniform(-0.5, 0.5, size=(8, 2))
    report = fv.check_regular_value(G.field, seeds)
    assert report.passed
    assert np.allclose(report.grad_norms, 1.0)


def test_regular_value_detects_critical_zero_set():
    # f(x, y) = x^2 has grad f = 0 on its zero set: 0 is not a regular value
    P = fv.custom_polynomial(quadratic=[1.0, 0.0], exponent=2)
    seeds = np.array([[0.1, 0.3], [-0.08, -0.2], [0.05, 0.6]])
    report = fv.check_regular_value(P.field, seeds)
    assert not report.passed
    assert report.notes  # failures were recorded as critical-set evidence


def test_regular_value_batch_records_each_critical_seed():
    # f(x, y) = x^2: seeds far from the critical zero set and seeds beside it
    P = fv.custom_polynomial(quadratic=[1.0, 0.0], exponent=2)
    seeds = np.array([[1.0, 0.3], [0.1, 0.3], [1e-4, -0.2], [-0.7, 0.6], [-1e-3, 0.0]])
    report = fv.check_regular_value(P.field, seeds)
    assert not report.passed
    assert len(report.grad_norms) == len(seeds)
    assert report.min_grad_norm < report.tol
    assert report.notes
    named = [seed.tolist() for seed in seeds]
    for note in report.notes:
        assert "approached the critical set" in note
        assert any(note.startswith(f"projection of seed {s} ") for s in named)


def test_regular_value_of_no_seeds_does_not_pass():
    report = fv.check_regular_value(fv.circle().field, [])
    assert not report.passed
    assert report.grad_norms == [] and np.isnan(report.min_grad_norm)
