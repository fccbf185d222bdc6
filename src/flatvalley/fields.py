"""Potentials vanishing on a level hypersurface, plus a small gallery.

The central object is :class:`CompositePotential`, U(x) = g(f(x)), built from
a scalar field f with analytic gradient and a nonnegative profile g with
g(0) = 0 and g > 0 elsewhere.  When 0 is a regular value of f the zero set
M = {f = 0} = {U = 0} is a hypersurface of equilibria ("the valley floor"),
which is what the rest of the package probes.

:class:`PlainPotential` holds classical stability counterexamples that do not
fit the composite form; they are used by the stability-contrast demos only.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonFiniteEvaluationError,
    UnknownPotentialError,
)

Array = np.ndarray

_EPS = float(np.finfo(float).eps)

# Tolerances of the valley floor, stated here, in the leaf module, for the
# scenario validator and the tube geometry alike.
#: |grad f| guard below which the flow refuses to continue, and a launch
#: point counts as critical
TOL_CRIT = 1e-7
#: largest |f(p)| for a point to count as on the valley floor (scenarios, charts)
TOL_ON_M = 1e-9
#: largest cosine between a launch velocity and grad f(p) (scenarios, charts)
TOL_TANGENT = 1e-8

# Constants of the batched oracles, as 0-d arrays (see ScalarField).
_ONE = np.array(1.0)
_TWO = np.array(2.0)


def _tile(row):
    """The per-axis constant ``row`` as a same-shape operand: a function of a
    batch's row count N returning N copies of it, an (N, n) slice of one
    read-only tile.  The tile grows on demand, to the larger of N and twice
    its size.  A product with the slice is the same elementwise operation as
    the broadcast product with ``row``, so it rounds the same, but numpy
    runs it without broadcasting a short trailing axis (see
    :class:`ScalarField`)."""
    row = np.array(row, dtype=float)[None]
    tile = row[:0]

    def rows(n):
        nonlocal tile
        if n > len(tile):
            tile = np.repeat(row, max(n, 2 * len(tile)), axis=0)
            tile.flags.writeable = False
        return tile[:n]

    return rows


def _as_point(x, dim: int) -> Array:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(
            f"expected a point of dimension {dim}, got shape {x.shape}"
        )
    return x


def default_fd_step(x: Array) -> float:
    """Central-difference step: eps^(1/3) * (1 + ||x||)."""
    return _EPS ** (1.0 / 3.0) * (1.0 + float(np.linalg.norm(x)))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """A smooth scalar function on R^n with analytic gradient.

    ``f_many`` (N, n) -> (N,) and ``grad_many`` (N, n) -> (N, n) define the
    field; ``f`` and ``grad`` take a single (n,) point and are batches of
    one of them (the gallery builds every field with :func:`_field`), so a
    point and a batch row give the same bits by construction.  Energy
    audits and the tube geometry call the batch kernels and do not pay a
    Python call per point.

    The batch oracles are the lockstep integrator's inner loop, called on a
    few rows at a time, where a numpy call costs more in converting and
    broadcasting a Python scalar operand than in the arithmetic, and the
    tube geometry's flows, called on thousands of rows, where broadcasting a
    short (n,) constant over an (N, n) batch costs 3-5 times the same
    product on same-shape operands.  So they take array operands only: a
    scalar constant is a 0-d array, a per-axis constant that multiplies the
    flows' batches (the ellipsoid's 2c) comes sliced from its field's
    read-only tile (:func:`_tile`) in the batch's shape, ufuncs are called
    directly and dot products go through ``np.vecdot``.
    """

    dim: int
    f: Callable[[Array], float]
    grad: Callable[[Array], Array]
    f_many: Callable[[Array], Array]
    grad_many: Callable[[Array], Array]
    name: str = "field"

    def value(self, x) -> float:
        return float(self.f(_as_point(x, self.dim)))

    def gradient(self, x) -> Array:
        return np.asarray(self.grad(_as_point(x, self.dim)), dtype=float)

    def value_many(self, X: Array) -> Array:
        return np.asarray(self.f_many(np.asarray(X, dtype=float)), dtype=float)


def _field(dim: int, f_many, grad_many, name: str) -> ScalarField:
    """A gallery ScalarField whose single-point oracles are batches of one."""
    return ScalarField(dim=dim, f=lambda x: f_many(x[None])[0],
                       grad=lambda x: grad_many(x[None])[0],
                       f_many=f_many, grad_many=grad_many, name=name)


def _power(s, k: int):
    """s**k as a chain of multiplications, which rounds the same for a float
    and for each entry of an array (numpy's array ``**`` need not round as
    the scalar one does)."""
    out = s
    for _ in range(k - 1):
        out = np.multiply(out, s)
    return out


#: largest profile exponent: s**k costs k - 1 multiplications per call
MAX_EXPONENT = 64


@dataclass(frozen=True, eq=False)
class Profile:
    """The profile g(s) = s**k of a composite potential, k an even integer
    from 2 to MAX_EXPONENT, so g is C^2, g(0) = 0 and g > 0 elsewhere.

    ``g`` and ``dg`` take a float or an array and round the same for both;
    ``inverse`` is the inverse of g on [0, inf), which the confinement
    bound |f| <= g^-1(budget) needs.  :func:`power_profile` builds them.
    """

    exponent: int

    @property
    def name(self) -> str:
        return f"s^{self.exponent}"

    def g(self, s):
        return _power(s, self.exponent)

    def dg(self, s):
        return np.multiply(float(self.exponent), _power(s, self.exponent - 1))

    def inverse(self, t):
        return t ** (1.0 / self.exponent)


def power_profile(exponent: int) -> Profile:
    """g(s) = s**k for even integer k, 2 <= k <= MAX_EXPONENT (so g is C^2
    and nonnegative)."""
    if not (isinstance(exponent, numbers.Real) and 2 <= exponent <= MAX_EXPONENT
            and int(exponent) == exponent and int(exponent) % 2 == 0):
        raise InvalidParameterError(
            f"profile exponent must be an even integer from 2 to {MAX_EXPONENT}, "
            f"got {exponent!r}")
    return Profile(int(exponent))


def _chain_rule(f, grad, k: int):
    """The gradient k f^(k-1) grad f of U = f**k, as one closure over the
    field oracles ``f`` and ``grad``: for batch oracles an (N, n) -> (N, n)
    kernel, for point oracles an (n,) -> (n,) one.  It does the operations
    of ``Profile.dg`` in their order, so it rounds as ``dg(f(x)) * grad(x)``
    does.  Bound to the batch oracles it is the lockstep integrator's force
    call: three Python frames (itself, ``f`` and ``grad``) and no attribute
    lookup.  Its factor k f^(k-1) is made afresh on every call, so it
    broadcasts over the gradient's columns: unlike a field constant (see
    :func:`_tile`) there is nothing to spread once."""
    kf = np.array(float(k))
    chain = range(k - 2)

    def gradient(X):
        s = f(X)
        d = s
        for _ in chain:
            d = np.multiply(d, s)
        return np.multiply(np.multiply(kf, d)[..., None], grad(X))

    return gradient


@dataclass(frozen=True, eq=False)
class CompositePotential:
    """U(x) = g(f(x)) with the chain-rule gradient g'(f(x)) grad f(x).

    Both gradients are :func:`_chain_rule` bound once, in ``__post_init__``,
    to the field's oracles: ``gradient_many`` to ``f_many``/``grad_many``
    and ``gradient`` to the single-point ``f``/``grad``, so a
    ``dataclasses.replace``d potential calls its new field's oracles.
    ``gradient_many`` is the lockstep integrator's acceleration oracle,
    called four times per iteration on a few rows; like the field's batch
    oracles it takes array operands only (see :class:`ScalarField`),
    because on so few rows numpy's per-call overhead, not the arithmetic,
    is its cost.
    """

    field: ScalarField
    profile: Profile
    name: str = "composite"
    spec_record: Optional[dict] = None

    def __post_init__(self):
        fld, k = self.field, self.profile.exponent
        object.__setattr__(self, "_gradient", _chain_rule(fld.f, fld.grad, k))
        object.__setattr__(self, "gradient_many", _chain_rule(fld.f_many, fld.grad_many, k))

    @property
    def dim(self) -> int:
        return self.field.dim

    def value(self, x) -> float:
        return float(self.profile.g(self.field.value(x)))

    def gradient(self, x) -> Array:
        return self._gradient(_as_point(x, self.dim))

    def value_many(self, X: Array) -> Array:
        return np.asarray(self.profile.g(self.field.value_many(X)), dtype=float)


@dataclass(frozen=True, eq=False)
class PlainPotential:
    """A potential given directly by U and its gradient, without a field.

    ``u_many`` (N, n) -> (N,) and ``grad_u`` (N, n) -> (N, n) are the
    batched value and gradient; ``u`` takes one point (the gallery's is a
    batch of one, see :func:`_plain`), and ``gradient`` is a batch of one.
    ``gradient_many``, the integrator's force call, is ``grad_u`` itself,
    bound in ``__post_init__`` as for :class:`CompositePotential`.
    """

    dim: int
    u: Callable[[Array], float]
    grad_u: Callable[[Array], Array]
    u_many: Callable[[Array], Array]
    label: str = "plain"
    spec_record: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "gradient_many", self.grad_u)

    @property
    def name(self) -> str:
        return self.label

    def value(self, x) -> float:
        return float(self.u(_as_point(x, self.dim)))

    def gradient(self, x) -> Array:
        return np.asarray(self.grad_u(_as_point(x, self.dim)[None]), dtype=float)[0]

    def value_many(self, X: Array) -> Array:
        return np.asarray(self.u_many(np.asarray(X, dtype=float)), dtype=float)


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

_GUTTER_ROW = np.array([[1.0, 0.0]])


def gutter(exponent: int = 4) -> CompositePotential:
    """U(x, y) = x**k: a straight flat valley along the y axis."""
    fld = _field(2, lambda X: X[:, 0], lambda X: _GUTTER_ROW.repeat(len(X), axis=0),
                 "gutter")
    return CompositePotential(
        fld,
        power_profile(exponent),
        name=f"gutter(k={exponent})",
        spec_record={"kind": "gutter", "params": {"exponent": exponent}},
    )


def circle(exponent: int = 2) -> CompositePotential:
    """U(x, y) = (x^2 + y^2 - 1)**k: the valley floor is the unit circle."""

    def f_many(X):
        Q = np.multiply(X, X)
        return np.subtract(np.add(Q[:, 0], Q[:, 1]), _ONE)

    fld = _field(2, f_many, lambda X: np.multiply(_TWO, X), "circle")
    return CompositePotential(
        fld,
        power_profile(exponent),
        name=f"circle(k={exponent})",
        spec_record={"kind": "circle", "params": {"exponent": exponent}},
    )


def ellipsoid(coeffs=(1.0, 2.0, 3.0), exponent: int = 4) -> CompositePotential:
    """U(x) = (sum_i c_i x_i^2 - 1)**k: the valley floor is an ellipsoid."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 2 or np.any(c <= 0):
        raise InvalidParameterError("ellipsoid coefficients must be positive, >= 2 of them")
    c2 = _tile(2.0 * c)
    fld = _field(c.size, lambda X: np.subtract(np.vecdot(np.multiply(X, X), c), _ONE),
                 lambda X: np.multiply(c2(len(X)), X), f"ellipsoid{tuple(c)}")
    return CompositePotential(
        fld,
        power_profile(exponent),
        name=f"ellipsoid(k={exponent})",
        spec_record={"kind": "ellipsoid", "params": {"coeffs": list(map(float, c)), "exponent": exponent}},
    )


def custom_polynomial(
    linear=None, quadratic=None, offset: float = 0.0, exponent: int = 2
) -> CompositePotential:
    """f(x) = l.x + q.(x*x) - offset with profile s**k.

    Generalises the fixed gallery shapes; the caller asserts that 0 is a
    regular value of f (``geometry.check_regular_value`` can probe it
    numerically).
    """
    if linear is None and quadratic is None:
        raise InvalidParameterError("need at least one of linear/quadratic coefficients")
    l = None if linear is None else np.asarray(linear, dtype=float)
    q = None if quadratic is None else np.asarray(quadratic, dtype=float)
    if l is not None and q is not None and l.shape != q.shape:
        raise InvalidParameterError("linear and quadratic coefficient lengths differ")
    n = (l if l is not None else q).size
    lv = np.zeros(n) if l is None else l
    qv = np.zeros(n) if q is None else q
    off = float(offset)
    off0, q2 = np.array(off), 2.0 * qv
    fld = _field(
        n,
        lambda X: np.subtract(np.add(np.vecdot(X, lv), np.vecdot(np.multiply(X, X), qv)), off0),
        lambda X: np.add(lv, np.multiply(q2, X)),
        "custom-polynomial")
    return CompositePotential(
        fld,
        power_profile(exponent),
        name=f"custom-polynomial(k={exponent})",
        spec_record={
            "kind": "custom-polynomial",
            "params": {
                "linear": list(map(float, lv)),
                "quadratic": list(map(float, qv)),
                "offset": off,
                "exponent": exponent,
            },
        },
    )


# Oscillating bump used by the classical 1-D and 2-D stable counterexamples,
# one vectorised function for single points and batches alike.  The value at
# the essential singularity is 0 by continuity; inside |s| < 1e-12, 1/|s| is
# held at 1e12, where exp(-1e12) underflows, so both return a 0 (signed).
_BUMP_CUT = np.array(1e-12)


def _bump(s: Array) -> Array:
    u = np.divide(_ONE, np.maximum(np.abs(s), _BUMP_CUT))
    return np.exp(-u) * np.sin(u)


def _bump_prime(s: Array) -> Array:
    # the bump is even, so its derivative extends oddly through 0: the sign
    # of s (+-1 outside the cut) flips val exactly as negation does
    u = np.divide(_ONE, np.maximum(np.abs(s), _BUMP_CUT))
    val = np.exp(-u) * u * u * (np.sin(u) - np.cos(u))
    return np.multiply(val, np.sign(s))


def _plain(dim: int, u_many, grad_u, label: str) -> PlainPotential:
    """A gallery PlainPotential whose single-point value is a batch of one."""
    return PlainPotential(dim=dim, u=lambda x: float(u_many(x[None])[0]), grad_u=grad_u,
                          label=label, spec_record={"kind": label, "params": {}},
                          u_many=u_many)


def painleve() -> PlainPotential:
    """1-D potential exp(-1/|x|) sin(1/|x|): the origin is a stable non-minimum."""
    return _plain(1, lambda X: _bump(X[:, 0]), _bump_prime, "painleve")


def laloy() -> PlainPotential:
    """2-D potential bump(x) - bump(y) - y^2: stable origin without trapping zones.

    The x motion decouples (dU/dx depends on x only), so the first coordinate
    stays trapped exactly as in the 1-D example.
    """
    return _plain(
        2,
        lambda X: _bump(X[:, 0]) - _bump(X[:, 1]) - X[:, 1] * X[:, 1],
        lambda X: np.stack([_bump_prime(X[:, 0]),
                            -_bump_prime(X[:, 1]) - np.multiply(_TWO, X[:, 1])], axis=1),
        "laloy")


_GALLERY = {
    "gutter": gutter,
    "circle": circle,
    "ellipsoid": ellipsoid,
    "painleve": painleve,
    "laloy": laloy,
    "custom-polynomial": custom_polynomial,
}


def gallery_lookup(name: str, params: Optional[dict] = None):
    """Build a gallery potential from a declarative (name, params) record."""
    try:
        builder = _GALLERY[name]
    except KeyError:
        raise UnknownPotentialError(
            f"unknown potential {name!r}; known: {sorted(_GALLERY)}"
        ) from None
    try:
        return builder(**(params or {}))
    except (TypeError, ValueError) as exc:  # wrong keywords, or values of the wrong type
        raise InvalidParameterError(f"bad parameters for {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# numerical oracles
# ---------------------------------------------------------------------------


def fd_gradient_check(potential, x, h: Optional[float] = None) -> float:
    """Max relative discrepancy between the analytic gradient and central differences.

    Returns max over coordinates of |analytic - fd| / (1 + |analytic|); the
    2n stencil points are one ``value_many`` batch.
    """
    x = _as_point(x, potential.dim)
    if h is None:
        h = default_fd_step(x)
    if h <= 0:
        raise InvalidParameterError("finite-difference step must be positive")
    analytic = potential.gradient(x)
    steps = h * np.eye(x.size)
    values = potential.value_many(np.concatenate([x + steps, x - steps]))
    fp, fm = values[:x.size], values[x.size:]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        raise NonFiniteEvaluationError(
            f"potential not finite within step {h} of {x} along axis {int(np.argmax(bad))}"
        )
    fd = (fp - fm) / (2.0 * h)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))
