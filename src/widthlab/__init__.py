"""widthlab: numerical convex geometry for bodies induced by orthonormal systems.

Monte-Carlo volume ratios, sphere expectations, greedy covering nets,
section radii, and Gelfand/Kolmogorov widths, with exact oracles at desk
scale and a verification harness for every inequality the package relies on.
"""

from .bodies import (
    Body,
    InducedBall,
    LinearImageBody,
    LpBall,
    PolarBody,
    euclidean_ball,
    induced_ball,
    linear_image,
)
from .errors import WidthLabError
from .harness import ExperimentConfig, VerificationReport, run, verify_all
from .linalg import (
    Subspace,
    min_singular_value,
    orthonormalize,
    random_subspace,
)
from .manifolds import (
    TwoPointSpace,
    cayley_plane,
    complex_projective,
    multiplier_diagonal,
    quaternionic_projective,
    real_projective,
    sobolev_multiplier,
    sphere,
)
from .stochastic import (
    EstimateWithCI,
    NetReport,
    expectation_norm,
    expected_norm_bound,
    greedy_net,
    greedy_nets,
    haar_sphere_sample,
    mc_volume_ratio,
    projection_volume_ratio,
    section_radius,
)
from .systems import (
    OrthonormalSystem,
    sphere_harmonics_system,
    trig_prefix_system,
    trig_system,
)
from .widths import (
    WidthResult,
    brute_force_gelfand,
    brute_force_kolmogorov,
    ellipsoid_kolmogorov_exact,
    l1_section_radius_bound,
    lq_section_radius_bound,
    sobolev_width_order,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
