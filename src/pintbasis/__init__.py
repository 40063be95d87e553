"""Exact computation of p-integral bases of number fields via Newton
polygons: the generic regular-case construction, a complete explicit
quartic pipeline, second-order polygons for the leftover cases, and an
independent Round 2 oracle with brute-force saturation as its reference.

Residual polynomials are plain coefficient lists of the finite-field kernel
in fq, lowest degree first; FqField is their residue field, which reduces
coefficients into it and renders the lists as text."""

from .arith import INFINITY, legendre, vp
from .errors import (
    InconsistentError,
    IterationPreconditionError,
    NotIrreducibleError,
    NotRegularError,
    ParseError,
    RankDeficientError,
)
from .fq import FqField, factor_fqpoly
from .factor import factor_mod_p, is_irreducible_quartic
from .intpoly import IntPoly, parse_poly
from .newton import (
    NewtonPolygon,
    PhiExpansion,
    Side,
    is_p_regular,
    is_phi_regular,
    newton_polygon,
    ordinates,
    phi_expand,
    polygon_to_json,
    polygon_to_svg,
    principal_part,
    residual_polynomial,
)
from .oracle import disc_identity_check, is_integral, is_ring_closed, round2, saturate
from .order2 import v2p
from .quartic import (QuarticCase, classify, iterate_to_regular, quartic_p_integral_basis,
                      reduce_E1, sqrt_mod_pk)
from .basis import (
    BasisElement,
    DecompositionType,
    PIntegralBasis,
    decomposition_type,
    p_integral_basis_regular,
    triangularize,
)

__version__ = "0.1.0"
