"""Scenario files and the one scenario validator.

A scenario states the hypotheses of the instability theorem, a composite
potential U = g(f), a launch point p on the valley floor M = {f = 0} at a
regular point of f and a launch velocity v tangent to M there, together
with the eps schedule and the integrator's resolution.  Scenario files are
flat JSON documents::

    {
      "potential": {"kind": "circle", "exponent": 2},
      "p": [1.0, 0.0],
      "v": [0.0, 1.0],
      "horizon": 1.0,
      "eps0": 0.1, "ratio": 0.5, "count": 6,
      "step_factor": 0.01,
      "out": "runs/circle"
    }

Only ``potential``, ``p`` and ``v`` are required; a key the file leaves
out takes the default of :class:`Scenario` or :class:`IntegratorOptions`
(``name`` defaults to the file's base name), and an unknown key is an
error.  :func:`parse_scenario` reads a file and :class:`Scenario`
validates what it holds, for files and library callers alike.

Checking the hypotheses needs only the field, so this module imports only
:mod:`flatvalley.errors` and :mod:`flatvalley.fields`: parsing a scenario
loads no integrator, geometry or pipeline.  Only a file whose p is snapped
onto M loads :mod:`flatvalley.geometry`, for the foot point.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, ScenarioError
from .fields import (
    TOL_CRIT,
    TOL_ON_M,
    TOL_TANGENT,
    CompositePotential,
    gallery_lookup,
)

Array = np.ndarray

#: most members a scenario's eps schedule may have: ten times the shipped
#: count of 6, checked before the schedule is built
MAX_MEMBERS = 64
_TINY = float(np.finfo(float).tiny)


def _number(name: str, value, kind=numbers.Real, error=ScenarioError):
    """``value`` as a float (an int for numbers.Integral); a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        what = ("a JSON integer, written with no decimal point or exponent"
                if kind is numbers.Integral else "a finite real number")
        raise error(f"{name} must be {what}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def launch_vector(name: str, value, dim: int) -> Array:
    """``value`` as a float ``dim``-vector; its entries must be finite numbers,
    and so must its squared norm."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != (dim,) or not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} must be a {dim}-vector of finite numbers, got {value!r}")
    arr = arr.astype(float)
    # Python floats: a square or a sum past the largest float is inf, with no
    # warning and no OverflowError
    if not sum(x * x for x in arr.tolist()) < math.inf:
        raise ScenarioError(f"{name} is too large: its squared norm overflows")
    return arr


@dataclass(frozen=True)
class IntegratorOptions:
    """Resolution knobs of the one stepper, PEFRL (see :mod:`flatvalley.integrators`).

    ``step_factor`` is the c in dtau = c * eps for a rescaled run and the
    step dt = c of a physical run.  In a family it is member 0's finest
    factor: :func:`flatvalley.dynamics.member_substeps` derives the
    members' ceilings from it, and :func:`flatvalley.dynamics.family_for_gates`
    steps each member at its ceiling or coarser.
    """

    step_factor: float = 0.01
    n_out: int = 401

    def __post_init__(self):
        object.__setattr__(self, "step_factor",
                           _number("step_factor", self.step_factor, error=InvalidParameterError))
        object.__setattr__(self, "n_out", _number("n_out", self.n_out, numbers.Integral,
                                                  InvalidParameterError))
        if self.step_factor <= 0:
            raise InvalidParameterError("step_factor must be positive")
        if self.n_out < 3 or self.n_out % 2 != 1:
            raise InvalidParameterError("n_out must be an odd integer >= 3")


@dataclass(eq=False)
class Scenario:
    """A validated experiment description; the one scenario validator.

    p must lie on the valley floor at a regular point of f, v must be
    tangent to it there, and every number must be finite and of its type.
    The eps schedule eps_j = eps0 * ratio^j, j < count <= MAX_MEMBERS, is
    capped below by ``min_eps`` > 0, and both are checked before the
    schedule is built, as are the squares the stages take: the smallest
    eps squared, the squared output spacing and the smallest member's
    confinement budget eps^2 |v|^2 / 2 must not fall below the smallest
    normal float, eps0^2 |v|^2 must not overflow nor member 0's step
    step_factor * eps0 underflow.  Every family records each member's
    step error and the family stage gates on it; down to eps = 2e-4 (the
    shipped circle and ellipsoid at count 10) the recorded step errors stay
    at or below 1.2e-8 and 2.5e-10, a twentieth of their limit and five
    orders of magnitude under it.  A member's ceiling grows like rho^(1/k),
    rho = eps0/eps, and like rho^(2/k) past rho = GROWTH^k
    (:func:`flatvalley.dynamics.member_substeps`): 64,000 lockstep
    iterations on the circle at eps = 2e-4, where the chosen steps take
    12,800, and 3,000 on the ellipsoid, where they take 1,000.
    """

    potential: CompositePotential
    p: Array
    v: Array
    horizon: float = 1.0
    eps0: float = 0.1
    ratio: float = 0.5
    count: int = 6
    options: IntegratorOptions = field(default_factory=IntegratorOptions)
    min_eps: float = 1e-4
    name: str = "scenario"
    out: Optional[str] = None  # output directory named by the scenario file

    def __post_init__(self):
        P = self.potential
        if not isinstance(P, CompositePotential):
            raise ScenarioError("scenario potentials must be composite (g of f)")
        self.p = launch_vector("p", self.p, P.dim)
        self.v = launch_vector("v", self.v, P.dim)
        fval = abs(P.field.value(self.p))
        if not fval <= TOL_ON_M:
            raise ScenarioError(
                f"p is not on the valley floor: |f(p)| = {fval:.3e} > {TOL_ON_M:g}")
        if not self.v.any():
            raise ScenarioError("v must be nonzero")
        g = P.field.gradient(self.p)
        gn = float(np.linalg.norm(g))
        if not gn > TOL_CRIT:
            raise ScenarioError(f"p is a critical point of f: |grad f(p)| = {gn:.3e}")
        self.horizon = _number("horizon", self.horizon)
        self.eps0 = _number("eps0", self.eps0)
        self.ratio = _number("ratio", self.ratio)
        self.count = _number("count", self.count, numbers.Integral)
        self.min_eps = _number("min_eps", self.min_eps)
        if self.horizon <= 0:
            raise ScenarioError("horizon must be positive")
        if self.eps0 <= 0:
            raise ScenarioError("eps0 must be positive")
        if not (0.0 < self.ratio < 1.0):
            raise ScenarioError("ratio must lie in (0, 1)")
        if self.count < 1:
            raise ScenarioError("count must be at least 1")
        if self.count > MAX_MEMBERS:
            raise ScenarioError(f"count must be at most MAX_MEMBERS = {MAX_MEMBERS}, "
                                f"got {self.count}")
        if not self.min_eps > 0:
            raise ScenarioError(f"min_eps must be positive, got {self.min_eps:g}")
        if not isinstance(self.name, str):
            raise ScenarioError(f"name must be a string, got {self.name!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ScenarioError(f"out must be a string, got {self.out!r}")
        smallest = self.eps0 * self.ratio ** (self.count - 1)  # the schedule's last entry
        if smallest < self.min_eps:
            raise ScenarioError(
                f"smallest eps {smallest:.3e} is below the cap {self.min_eps:g}; "
                "shorten the schedule or lower min_eps explicitly")
        # a member's force scale is 1/eps^2, the coordinates' second
        # differences divide by the squared spacing, and the confinement
        # bounds take the budget eps^2 |v|^2 / 2
        if not smallest * smallest >= _TINY:
            raise ScenarioError(
                f"eps0 {self.eps0:g} is too small: the smallest eps {smallest:.3e} squared "
                "is below the smallest normal float")
        spacing = self.horizon / ((self.options.n_out - 1) // 2)
        if not spacing * spacing >= _TINY:
            raise ScenarioError(
                f"horizon {self.horizon:g} is too small: the squared output spacing "
                f"{spacing * spacing:.3e} is below the smallest normal float")
        vnorm = float(np.linalg.norm(self.v))
        budget = 0.5 * smallest * smallest * vnorm * vnorm
        if not budget >= _TINY:
            raise ScenarioError(
                f"v is too small: the confinement budget eps^2 |v|^2 / 2 of the smallest "
                f"eps {smallest:.3e} underflows to {budget:.3e}, below the smallest "
                "normal float")
        cosine = abs(float(g @ self.v)) / (gn * vnorm)
        if not cosine <= TOL_TANGENT:
            raise ScenarioError(
                f"v is not tangent to the valley floor at p: cosine = {cosine:.3e}")
        if not self.eps0 * self.eps0 * vnorm * vnorm < math.inf:
            raise ScenarioError(
                f"eps0 {self.eps0:g} is too large for |v| = {vnorm:g}: "
                "eps0^2 |v|^2 overflows")
        if not self.options.step_factor * self.eps0 > 0:
            raise ScenarioError(
                f"step_factor {self.options.step_factor:g} is too small for eps0 "
                f"{self.eps0:g}: member 0's step step_factor * eps0 underflows to 0")

    @property
    def epsilons(self) -> Array:
        return self.eps0 * self.ratio ** np.arange(self.count)


#: scenario-file keys that are IntegratorOptions fields of the same name
_OPTION_KEYS = ("step_factor", "n_out")
#: scenario-file keys that are Scenario fields of the same name
_SCENARIO_ARGS = ("horizon", "eps0", "ratio", "count", "min_eps", "out")
_SCENARIO_KEYS = {"name", "potential", "p", "v", *_OPTION_KEYS, *_SCENARIO_ARGS}


def parse_scenario(path, overrides: Optional[dict] = None, *,
                   lookup=gallery_lookup) -> Scenario:
    """Load a scenario file; :class:`Scenario` validates what it holds.

    The file format is lenient in two ways: p is snapped onto the valley
    floor when |f(p)| <= 1e-4 (by :func:`flatvalley.geometry.foot_point`,
    the one projector, imported only then), and v is projected onto the
    tangent plane at p when its cosine with grad f(p) is at most 0.1.
    Beyond those limits the values reach the validator as written and are
    rejected there.  ``overrides`` (CLI flags) replace file values before
    validation.

    ``lookup`` builds the potential from its record, as
    :func:`flatvalley.fields.gallery_lookup` does.  It exists for the
    benchmark's tracer, which counts field calls by patching the CLI's
    ``gallery_lookup``, so the CLI passes its own; it goes once the tracer
    patches names where they are defined (ROADMAP item 1).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario parse error in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    data = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            data[key] = val
    for key in ("potential", "p", "v"):
        if key not in data:
            raise ScenarioError(f"scenario is missing the required field {key!r}")
    pot_spec = data["potential"]
    if not isinstance(pot_spec, dict) or not isinstance(pot_spec.get("kind"), str):
        raise ScenarioError("field 'potential' must be an object with a string 'kind'")
    params = {k: v for k, v in pot_spec.items() if k != "kind"}
    potential = lookup(pot_spec["kind"], params)
    if not isinstance(potential, CompositePotential):
        raise ScenarioError(
            f"potential kind {pot_spec['kind']!r} is not a composite potential; "
            "plain gallery entries run through the 'gallery' subcommand")
    fld = potential.field
    p = launch_vector("p", data["p"], fld.dim)
    v = launch_vector("v", data["v"], fld.dim)
    if 0.0 < abs(fld.value(p)) <= 1e-4:
        from .geometry import foot_point

        p = foot_point(fld, p)
    g = fld.gradient(p)
    gn = float(np.linalg.norm(g))
    if gn > 0.0 and abs(float(g @ v)) <= 0.1 * gn * float(np.linalg.norm(v)):
        v = v - (float(v @ g) / (gn * gn)) * g
    # the file passes only the keys it holds: every default is stated once,
    # in Scenario and IntegratorOptions; a bad option is a bad scenario value
    try:
        opts = IntegratorOptions(**{key: data[key] for key in _OPTION_KEYS if key in data})
    except InvalidParameterError as exc:
        raise ScenarioError(str(exc)) from exc
    given = {key: data[key] for key in _SCENARIO_ARGS if key in data}
    return Scenario(potential=potential, p=p, v=v, options=opts,
                    name=data.get("name", os.path.splitext(os.path.basename(path))[0]),
                    **given)
