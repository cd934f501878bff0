"""Uniformization of the hyperelliptic curves y^2 = z^n - 1, degrees 5 to 8.

The package exports the pipeline's entry points: a curve of degree n, its
side pairings and generators, the {p,q} tessellation and its topology, the
curve's second order ODE and its singular points, and the K_{m,n} genus
range.  Every other name is imported from the module that defines it, for
example `from fuchsian.moebius import MoebiusMap`.
"""

from .curves import curve_from_degree, expand_poly
from .embed import genus_range
from .fode import curve_ode, is_fuchsian, named_equation, singular_points, whittaker_equation
from .hyperbolic import tessellation_topology
from .report import canonical_json, uniformization_report
from .uniformize import uniformize

__version__ = "0.1.0"

__all__ = [
    "curve_from_degree", "expand_poly", "genus_range", "curve_ode",
    "named_equation", "whittaker_equation", "singular_points", "is_fuchsian",
    "tessellation_topology", "uniformize", "uniformization_report",
    "canonical_json",
]
