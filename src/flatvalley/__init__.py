"""flatvalley: a numerical laboratory for escape from flat potential valleys.

For potentials U = g(f) whose minimum set is the hypersurface M = {f = 0},
every equilibrium (p, 0) with p on M sits at the bottom of a valley with a
flat floor: trajectories launched along the floor with tiny speed eps|v|
travel along it, so in rescaled time they converge to a fixed escape curve
and the equilibrium is unstable no matter how small eps is.  This package
integrates the rescaled family, verifies the conservation-law confinement
bounds, extracts the limit curve with a Cauchy diagnostic, and emits a
checkable instability certificate, together with tubular-coordinate
diagnostics for the geometry that makes the argument work.

Importing the package loads none of its modules: each public name below
imports the one module that defines it on first access (PEP 562), so a
caller that needs only a gallery potential never loads the geometry, the
dynamics or the CLI.
"""

import sys

__version__ = "0.1.0"

#: module -> the public names it lends the package
_EXPORTS = {
    "fields": (
        "CompositePotential", "PlainPotential", "Profile", "ScalarField", "circle",
        "custom_polynomial", "ellipsoid", "fd_gradient_check", "gallery_lookup", "gutter",
        "laloy", "painleve", "power_profile",
    ),
    "dynamics": (
        "BoundsCheck", "EnergyReport", "FamilyResult", "IntegratorOptions", "PhaseState",
        "Scenario", "Trajectory", "confinement_check", "energy_audit", "integrate_newton",
        "integrate_rescaled", "run_family",
    ),
    "geometry": (
        "FrameData", "MChart", "MetricMinEstimate", "RegularityReport", "TubularCoords",
        "build_m_chart", "check_regular_value", "curvilinear_residual", "foot_point",
        "frame_data", "pullback_metric_min", "residual_convergence", "transversal_flow",
    ),
    "analysis": (
        "ConvergenceReport", "CoordinateReport", "CoordinateTrace", "InstabilityCertificate",
        "LimitCurve", "certify_instability", "check_certificate", "coordinate_report",
        "coordinate_traces", "escape_point", "extract_limit", "physical_evidence_runs",
        "revalidate_certificate",
    ),
    "contrast": ("BarrierInfo", "TrapReport", "locate_barrier", "trapped_motion_check"),
    "cli": ("chart_for_scenario", "parse_scenario", "run_pipeline"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
_MODULES = ("analysis", "cli", "contrast", "dynamics", "errors", "fields", "geometry",
            "integrators", "reporting", "svgplot")


def _load(module: str):
    """The submodule ``module``, imported by the import statement's own
    machinery, which ``python -X importtime`` reports (``importlib.import_module``
    bypasses it)."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    if name in _MODULES:  # importing a submodule binds it here
        return _load(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_HOME[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
