"""Mean curvature flow of spline surfaces with fixed boundary.

A tensor-product B-spline surface evolves by mean curvature while its
boundary stays pinned; discrete curvature and normal fields evolve
alongside through constrained Galerkin equations, integrated in time
by linearly implicit BDF2 after one BDF1 bootstrap step.
"""

from .assembly import SolverFailure
from .config import ConfigError, ScenarioConfig, load_config, parse_config, serialize_config
from .convergence import ConvergenceReport, convergence_study
from .flow import (
    FlowProblem,
    FlowState,
    NormalDrift,
    StepDiagnostics,
    bdf_coefficients,
    initialize,
    run,
)
from .geometry import DegenerateSurface, SplineField, metric_pieces, surface_area
from .projections import (
    NoContraction,
    boundary_quasi_interp,
    nonlinear_ritz_normal,
    project_velocity,
)
from .scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    scenario_perturbed_plane,
    scenario_sphere_patch,
)
from .splines import (
    QuasiInterpolant,
    TensorSplineSpace,
    UnivariateSpline,
    build_quasi_interpolant,
    build_space,
)

__version__ = "0.1.0"
