"""Uniformization of the hyperelliptic curves y^2 = z^n - 1, degrees 5 to 8.

The pipeline: a curve of degree n determines a regular tessellation of the
unit disk, elliptic side-pairing transformations S_r, and hyperbolic
generators S_base S_r of the covering group.  Supporting modules handle
Moebius maps, hyperbolic geometry in disk and half-plane models, second
order differential equations with rational coefficients, and genus bounds
for complete bipartite graph embeddings.
"""

from .curves import CurveSpec, curve_from_degree, integer_roots, Poly, expand_poly
from .embed import GenusRange, genus_range
from .fode import (
    PointKind,
    SecondOrderODE,
    curve_ode,
    is_fuchsian,
    named_equation,
    singular_points,
    whittaker_equation,
)
from .hyperbolic import (
    Model,
    ModelPoint,
    SurfaceTopology,
    Tessellation,
    distance,
    geodesic_midpoint,
    half_turn,
    regular_polygon_area,
    tessellation_topology,
)
from .moebius import (
    INFINITY,
    MoebiusMap,
    TransformClass,
    classify,
    compose,
    evaluate_word,
    fixed_points,
    normalize,
    projective_distance,
    to_disk_model,
    to_halfplane_model,
)
from .report import canonical_json, uniformization_report
from .uniformize import (
    MursiParams,
    UniformizationResult,
    VerificationReport,
    fixed_point_radius,
    group_generators,
    mursi_parameters,
    side_transformations,
    uniformize,
    verify_generators,
)

__version__ = "0.1.0"

__all__ = [
    "CurveSpec", "curve_from_degree", "integer_roots", "Poly",
    "expand_poly", "GenusRange", "genus_range", "PointKind", "SecondOrderODE",
    "curve_ode", "is_fuchsian", "named_equation", "singular_points",
    "whittaker_equation", "Model", "ModelPoint", "SurfaceTopology",
    "Tessellation", "distance", "geodesic_midpoint", "half_turn",
    "regular_polygon_area", "tessellation_topology", "INFINITY",
    "MoebiusMap", "TransformClass", "classify", "compose", "evaluate_word",
    "fixed_points", "normalize", "projective_distance", "to_disk_model",
    "to_halfplane_model", "canonical_json", "uniformization_report",
    "MursiParams", "UniformizationResult", "VerificationReport",
    "fixed_point_radius", "group_generators", "mursi_parameters",
    "side_transformations", "uniformize", "verify_generators",
]
