"""Exact combinatorics of self-avoiding walks on square-lattice strips.

The package counts self-avoiding walks, half-space walks, bridges and
irreducible bridges on strips Z x {y_min..y_max} with a transfer matrix, rebuilds
the rational generating functions of bridges on the width-3 and width-4 strips
from an irreducible-bridge alphabet, extracts connective constants from
denominator roots, and verifies the classical sandwich bounds relating walk
counts to powers of the connective constant.  All combinatorial arithmetic is
exact (unbounded integers / rationals); floating point appears only in the
final root estimates.
"""

from .lattice import (
    BRIDGE_TYPES,
    CountTable,
    Point,
    StripGeometry,
    Walk,
    is_bridge,
    is_half_space,
)
from .enumeration import (
    BridgeDecomposition,
    HWDecomposition,
    IrreducibleFactor,
    classify_irreducible,
    count_bridges,
    count_bridges_by_span,
    count_half_space,
    count_irreducible,
    count_saws,
    cut_points,
    decompose_bridge,
    hw_decompose,
    hw_reflect,
    iter_walks,
    transform_irreducible_w4,
)
from .genfunc import (
    IntPolynomial,
    RationalGF,
    atoms_width3,
    atoms_width4_lower,
    atoms_width4_upper,
    compose_bridge_code,
    important_part_denominator,
    upper_atom_from_pipeline,
)
from .analysis import (
    RootResult,
    connective_constant_width3,
    estimate_mu,
    mu_bounds_width4,
    smallest_positive_root,
)
from .bounds import (
    hw_polynomial,
    pf_bound,
    pf_exact,
    verify_bridge_corollary,
    verify_halfspace_proposition,
    verify_multiplicativity,
    verify_sandwich,
    zeilberger_count,
)

__version__ = "0.1.0"

__all__ = [
    "BRIDGE_TYPES",
    "BridgeDecomposition",
    "CountTable",
    "HWDecomposition",
    "IntPolynomial",
    "IrreducibleFactor",
    "Point",
    "RationalGF",
    "RootResult",
    "StripGeometry",
    "Walk",
    "atoms_width3",
    "atoms_width4_lower",
    "atoms_width4_upper",
    "classify_irreducible",
    "compose_bridge_code",
    "connective_constant_width3",
    "count_bridges",
    "count_bridges_by_span",
    "count_half_space",
    "count_irreducible",
    "count_saws",
    "cut_points",
    "decompose_bridge",
    "estimate_mu",
    "hw_decompose",
    "hw_polynomial",
    "hw_reflect",
    "important_part_denominator",
    "is_bridge",
    "is_half_space",
    "iter_walks",
    "mu_bounds_width4",
    "pf_bound",
    "pf_exact",
    "smallest_positive_root",
    "transform_irreducible_w4",
    "upper_atom_from_pipeline",
    "verify_bridge_corollary",
    "verify_halfspace_proposition",
    "verify_multiplicativity",
    "verify_sandwich",
    "zeilberger_count",
]
