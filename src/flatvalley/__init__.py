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
"""

from .fields import (
    CompositePotential,
    PlainPotential,
    Profile,
    RegularityReport,
    ScalarField,
    check_regular_value,
    circle,
    custom_polynomial,
    ellipsoid,
    fd_gradient_check,
    gallery_lookup,
    gutter,
    laloy,
    painleve,
    power_profile,
)
from .dynamics import (
    BoundsCheck,
    EnergyReport,
    FamilyResult,
    IntegratorOptions,
    PhaseState,
    Scenario,
    Trajectory,
    confinement_check,
    energy_audit,
    integrate_newton,
    integrate_rescaled,
    run_family,
)
from .geometry import (
    FrameData,
    MChart,
    MetricMinEstimate,
    TubularCoords,
    build_m_chart,
    curvilinear_residual,
    foot_point,
    frame_data,
    pullback_metric_min,
    residual_convergence,
    transversal_flow,
)
from .analysis import (
    AccelerationReport,
    ConvergenceReport,
    CoordinateBoundsReport,
    CoordinateTrace,
    InstabilityCertificate,
    LimitCurve,
    acceleration_uniformity,
    certify_instability,
    check_certificate,
    coordinate_bounds_report,
    coordinate_traces,
    escape_point,
    extract_limit,
    physical_evidence_runs,
    revalidate_certificate,
)
from .contrast import (
    BarrierInfo,
    TrapReport,
    locate_barrier,
    trapped_motion_check,
)
from .cli import chart_for_scenario, parse_scenario, run_pipeline

__version__ = "0.1.0"
