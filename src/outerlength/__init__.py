"""Numerical laboratory for the outer length billiard.

The map acts on the exterior of a strictly convex oval: from a point, draw
the two tangent lines, roll the circle that touches the oval at the far
tangency point and the near tangent line, and cut the far common tangent.
This package represents tables by support functions, evaluates the map's
generating function in closed form, verifies its area-preserving twist
structure, finds periodic orbits variationally, constructs tables whose
4-periodic points fill an invariant curve, and probes the polygon-space
distribution whose non-integrability forbids open sets of periodic points.
"""

from .billiard import (
    OrbitRecord,
    TwistReport,
    cartesian_step,
    iterate,
    jacobian,
    orbit,
    pair_from_phase,
    phase_from_pair,
    step,
    twist_report,
    vertex_point,
)
from .errors import (
    ArcConstraintError,
    ChordDomainError,
    ConfigError,
    ContainmentError,
    ConvergenceError,
    ConvexityError,
    FPrimeBoundError,
    OuterLengthError,
    OvalValidationError,
    ReparamError,
    SeamError,
    StepFailureError,
    TableConstructionError,
)
from .forge import (
    FourPeriodicSpec,
    ParallelogramFamily,
    ParallelogramState,
    balanced_radon_seed,
    from_f,
    parallelogram_orbit,
    radon_like,
)
from .genfun import ChordConfig
from .oval import SupportOval, ValidationReport, circle, ellipse, perturbed_circle
from .periodic import (
    PeriodicOrbit,
    ScanReport,
    brute_oracle,
    closure_by_iteration,
    find_periodic,
    invariant_curve_scan,
    rotation_number,
    total_action,
)
from .polygons import (
    GrowthReport,
    PolygonConfig,
    TriangleWU,
    brackets,
    flow_commutator,
    growth_report,
    perimeter,
    perimeter_derivative_along_xi,
    phi,
    phi_via_tangency,
    triangle_WU,
    vertices,
    xi_bracket,
)

__version__ = "0.1.0"
