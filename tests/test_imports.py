"""The package namespace is lazy: a public name loads only its own module.

Module loads are read in fresh interpreters, since the test session has
long since loaded every module.
"""
import json
import os
import subprocess
import sys

import pytest

import flatvalley

SRC = os.path.dirname(os.path.dirname(flatvalley.__file__))

#: every public name of the package, by the module that defines it
EXPORTS = {
    "fields": ["CompositePotential", "PlainPotential", "Profile", "ScalarField", "circle",
               "custom_polynomial", "ellipsoid", "fd_gradient_check", "gallery_lookup",
               "gutter", "laloy", "painleve", "power_profile"],
    "dynamics": ["BoundsCheck", "EnergyReport", "FamilyResult", "IntegratorOptions",
                 "PhaseState", "Scenario", "Trajectory", "confinement_check", "energy_audit",
                 "integrate_newton", "integrate_rescaled", "run_family"],
    "geometry": ["FrameData", "MChart", "MetricMinEstimate", "RegularityReport",
                 "TubularCoords", "build_m_chart", "check_regular_value",
                 "curvilinear_residual", "foot_point", "frame_data", "pullback_metric_min",
                 "residual_convergence", "transversal_flow"],
    "analysis": ["ConvergenceReport", "CoordinateReport", "CoordinateTrace",
                 "InstabilityCertificate", "LimitCurve", "certify_instability",
                 "check_certificate", "coordinate_report", "coordinate_traces",
                 "escape_point", "extract_limit", "physical_evidence_runs",
                 "revalidate_certificate"],
    "contrast": ["BarrierInfo", "TrapReport", "locate_barrier", "trapped_motion_check"],
    "cli": ["chart_for_scenario", "parse_scenario", "run_pipeline"],
}
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('flatvalley.'))))\n"


def _fresh(code: str):
    """The JSON value a fresh interpreter prints last after running ``code``."""
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module():
    assert _fresh("import flatvalley\n" + LOADED) == []


def test_a_gallery_potential_loads_only_errors_and_fields():
    code = "import flatvalley\nflatvalley.gallery_lookup('painleve', {})\n" + LOADED
    assert _fresh(code) == ["flatvalley.errors", "flatvalley.fields"]


def test_a_name_loads_only_the_modules_its_module_imports():
    # fields is a leaf over errors; geometry now stands on fields
    code = "from flatvalley import check_regular_value\n" + LOADED
    assert _fresh(code) == ["flatvalley.errors", "flatvalley.fields", "flatvalley.geometry"]


def test_every_export_is_its_module_attribute_on_first_access():
    # the package attribute is read first, then cached in the package
    code = (f"import importlib, flatvalley\nexports = {EXPORTS!r}\n"
            "def home(m, n):\n"
            "    return getattr(importlib.import_module('flatvalley.' + m), n)\n"
            "print(json.dumps([f'{m}.{n}' for m, names in exports.items() for n in names\n"
            "    if getattr(flatvalley, n) is not home(m, n)\n"
            "    or vars(flatvalley)[n] is not home(m, n)]))\n")
    assert _fresh(code) == []


def test_a_submodule_is_an_attribute_before_it_is_imported():
    code = "import flatvalley\nprint(json.dumps(flatvalley.svgplot.line_plot.__module__))\n"
    assert _fresh(code) == "flatvalley.svgplot"


def test_dir_and_all_list_every_export_and_the_version():
    exports = {n for names in EXPORTS.values() for n in names}
    assert len(exports) == 58 and set(flatvalley.__all__) == exports
    names = set(dir(flatvalley))
    assert exports <= names
    assert "__version__" in names and flatvalley.__version__ == "0.1.0"


def test_from_import_binds_the_module_attribute():
    from flatvalley import RegularityReport, gallery_lookup
    from flatvalley import fields, geometry

    assert gallery_lookup is fields.gallery_lookup
    assert RegularityReport is geometry.RegularityReport


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'flatvalley' has no attribute 'no_such_name'"):
        flatvalley.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from flatvalley import no_such_name  # noqa: F401
