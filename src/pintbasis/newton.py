"""phi-adic developments, Newton polygons, residual polynomials and
regularity tests.

All polygon geometry is exact and in integers: a side holds its two lattice
vertices, its height, length, ramification and degree are ints, and its
slope exists only as text.  Ore's construction reads two things off a
polygon, the floors of its ordinates and the lattice points on each side,
and both come from integer division.  Hulls are computed by a
monotone-chain sweep with integer cross products.  Points with infinite
ordinate (zero coefficients) never enter the hull; they contribute zero
residual coefficients.
"""

from functools import cached_property
from math import gcd

from .arith import INFINITY, check_prime, is_finite
from .errors import InconsistentError, NotIrreducibleError
from .factor import factor_mod_p, is_irreducible_mod_p
from .fq import FqField, factor_fqpoly
from .intpoly import IntPoly
from .record import Record


class PhiExpansion(Record):
    """phi-adic development f = sum a_i phi^i with deg a_i < deg phi,
    together with the quotients q_j = sum_{i>=j} a_i phi^(i-j) of f by
    phi^j, for j >= 1."""

    coefficients: tuple
    quotients: tuple


def phi_expand(f, phi):
    """Compute the phi-adic development by repeated exact division: one
    division by phi per coefficient, each quotient feeding the next."""
    if phi.degree < 1 or not phi.monic:
        raise ValueError("phi must be monic of degree >= 1")
    coeffs = []
    quotients = []
    q = f
    while True:
        q, a = divmod(q, phi)
        coeffs.append(a)
        if q.is_zero():
            break
        quotients.append(q)
    return PhiExpansion(tuple(coeffs), tuple(quotients))


class Side(Record):
    """A side between two lattice vertices, of slope -height/length."""

    start: tuple
    end: tuple

    @property
    def length(self):
        return self.end[0] - self.start[0]

    @property
    def height(self):
        return self.start[1] - self.end[1]

    @property
    def ramification(self):
        """e = length / gcd(height, length), the denominator of the slope in
        lowest terms; the full length for slope 0."""
        if not self.height:
            return self.length
        return self.length // gcd(self.height, self.length)

    @property
    def degree(self):
        return self.length // self.ramification

    @property
    def slope(self):
        """The slope in lowest terms, as text: "-1/3", "-2", "0"."""
        g = gcd(self.height, self.length)
        num, den = -self.height // g, self.length // g
        return str(num) if den == 1 else f"{num}/{den}"

    def __repr__(self):
        return f"Side({self.start}->{self.end}, slope {self.slope})"


class NewtonPolygon(Record):
    """Lower convex envelope of the points (i, v_p(a_i)); u_i = INFINITY
    points are recorded but excluded from the hull."""

    points: tuple  # (i, u_i) with u_i an int or INFINITY, indexed by i
    vertices: tuple  # lattice points, left to right
    sides: tuple  # Side objects ordered by increasing slope

    @property
    def length(self):
        """Abscissa of the last vertex.  Leading coefficients that vanish
        identically (infinite ordinate) are part of the length, so the
        principal length always equals ord of the reduction."""
        if not self.vertices:
            return 0
        return self.vertices[-1][0]

    def start_abscissa(self):
        return self.vertices[0][0] if self.vertices else 0


def _lower_hull(points):
    """Monotone chain lower hull of integer points sorted by abscissa.
    Collinear intermediate points are dropped from the vertex chain."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep only right turns: cross <= 0 pops (collinear points too)
            if (x1 - x0) * (pt[1] - y0) - (pt[0] - x0) * (y1 - y0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_polygon(expansion, p):
    """The phi-Newton polygon of f from its phi-adic development."""
    points = tuple((i, a.vp(p)) for i, a in enumerate(expansion.coefficients))
    finite = [(i, u) for i, u in points if is_finite(u)]
    if not finite:
        raise ValueError("all development coefficients vanish")
    vertices = _lower_hull(finite)
    sides = tuple(Side(a, b) for a, b in zip(vertices, vertices[1:]))
    return NewtonPolygon(points, tuple(vertices), sides)


def principal_part(polygon):
    """Restriction to the sides of negative slope, with every point up to
    the last vertex they reach (the first vertex when there are none)."""
    neg = tuple(s for s in polygon.sides if s.height > 0)
    end = neg[-1].end[0] if neg else polygon.vertices[0][0]
    vertices = tuple(v for v in polygon.vertices if v[0] <= end)
    points = tuple(pt for pt in polygon.points if pt[0] <= end)
    return NewtonPolygon(points, vertices, neg)


def ordinates(principal):
    """floor(y_0) .. floor(y_ell): the floors of the ordinates of the principal
    polygon at the integer abscissas, strictly decreasing with y_ell = 0; on
    a side from (x0, y0) the floor at x is y0 + (-height (x - x0)) // length.
    y_0 is INFINITY when a_0 = 0: phi divides f, which for an irreducible f
    means phi = f, and the polygon is one side of slope -infinity from
    abscissa 0 to 1."""
    ell = principal.length
    if ell < 1:
        raise ValueError("principal polygon must have positive length")
    start = principal.start_abscissa()
    if start > 1:
        raise InconsistentError(f"phi^{start} divides f: principal polygon starts at {start}")
    ys = [INFINITY] * start
    for s in principal.sides:
        y0, h, length = s.start[1], s.height, s.length
        ys += [y0 + (-h * k) // length for k in range(length)]
    ys.append(principal.vertices[-1][1])
    return ys


def phi_index(f, phi, p):
    """ind_phi(f): deg(phi) times the lattice points under the principal
    polygon, strictly right of the vertical axis and above the horizontal
    one, that is deg(phi) times the sum of floor(y_j) for 0 < j < ell."""
    principal = principal_part(newton_polygon(phi_expand(f, phi), p))
    if principal.length < 1:
        return 0
    return phi.degree * sum(ordinates(principal)[1:-1])


def residual_polynomial(side, principal, expansion, field, reduced=None):
    """R(y) = c_0 + c_1 y + ... + c_d y^d for a principal side from (x0, y0)
    of degree d and ramification e, as a kernel polynomial (lowest degree
    first): c_k = red(a_x / p^y) when the point of the polygon at
    x = x0 + k e has the side's ordinate y = y0 - k height/d, else 0.
    reduced maps abscissas to the coefficients already reduced; the sides
    of one polygon share it, so a vertex of two sides is reduced once."""
    (x0, y0), e = side.start, side.ramification
    step = side.height // side.degree
    reduced = {} if reduced is None else reduced
    r = []
    for k in range(side.degree + 1):
        x, y = x0 + k * e, y0 - k * step
        if principal.points[x][1] == y:
            if x not in reduced:
                reduced[x] = field.elem(expansion.coefficients[x].divide_exact(field.p**y))
            r.append(reduced[x])
        else:
            r.append(field.arith.zero)
    if not r[0] or not r[-1]:
        raise InconsistentError(
            "residual polynomial must have degree d(S) and nonzero constant term"
        )
    return r


class SideData(Record):
    side: Side
    residual: list  # kernel polynomial over field
    field: FqField

    @cached_property
    def factors(self):
        """[(monic irreducible, multiplicity)] of the residual polynomial,
        factored on first use: the regularity verdict, its witnesses and the
        decomposition type all read this one list."""
        return factor_fqpoly(self.field, self.residual)[1]

    @property
    def separable(self):
        return all(m == 1 for _, m in self.factors)


class PhiRegularity(Record):
    """The first-order analysis of f at one lift phi: its development,
    principal polygon and residual data, and the regularity verdict."""

    phi: IntPoly
    field: FqField  # the residue field of phi
    regular: bool
    sides: tuple  # SideData for every principal side
    witnesses: tuple  # (side, multiple irreducible factor, multiplicity)
    expansion: PhiExpansion
    principal: NewtonPolygon

    @cached_property
    def ordinates(self):
        """floor(y_0) .. floor(y_ell) of the principal polygon (see
        ordinates)."""
        return ordinates(self.principal)

    @cached_property
    def index(self):
        """ind_phi(f), as phi_index computes it."""
        if self.principal.length < 1:
            return 0
        return self.phi.degree * sum(self.ordinates[1:-1])


def phi_polygon_data(f, phi, p):
    """Expansion, principal polygon and residual data for one phi."""
    expansion = phi_expand(f, phi)
    principal = principal_part(newton_polygon(expansion, p))
    if principal.length < 1:
        return expansion, principal, []
    field = FqField(p, phi)
    reduced = {}
    data = [SideData(s, residual_polynomial(s, principal, expansion, field, reduced), field)
            for s in principal.sides]
    return expansion, principal, data


def is_phi_regular(f, phi, p):
    """phi-regularity: every principal side carries a separable residual
    polynomial.  On failure the witnesses name each offending side together
    with its multiple irreducible residual factor, read from the
    factorization of its residual polynomial.  p is a prime the caller has
    checked."""
    if not is_irreducible_mod_p(phi, p):
        raise ValueError(f"{phi.render()} is not irreducible mod {p}")
    expansion, principal, data = phi_polygon_data(f, phi, p)
    witnesses = [(sd.side, g, m) for sd in data for g, m in sd.factors if m > 1]
    field = data[0].field if data else FqField(p, phi)
    return PhiRegularity(phi, field, not witnesses, tuple(data), tuple(witnesses),
                         expansion, principal)


class PRegularity(Record):
    analysis: "LocalAnalysis"  # whose f and p the records belong to
    by_phi: tuple  # PhiRegularity per lift, same order as the input

    @property
    def regular(self):
        return all(r.regular for r in self.by_phi)

    def first_witness(self):
        """(phi, side, field, factor, multiplicity) of the first witness."""
        for reg in self.by_phi:
            if not reg.regular:
                side, g, m = reg.witnesses[0]
                return reg.phi, side, reg.field, g, m
        return None


def is_p_regular(f, p, disc=None):
    """p-regularity of the symmetric lifts of the factors of f mod p, reported
    by a new analysis of (f, p) that keeps disc f when the caller has it.
    Lifts of a simple factor are vacuously regular; their polygons are kept."""
    return LocalAnalysis(f, p, disc).report()


class LocalAnalysis:
    """The first-order analysis of one f at one p: disc f (or the caller's),
    the factorization of f mod p and the PhiRegularity of each lift, each
    computed on first use and shared by every route and check.  Each
    computation starts its own, so no analysis outlives it.  p is checked
    prime here, once; the kernels below take it as checked."""

    def __init__(self, f, p, disc=None):
        self.f, self.p = f, check_prime(p)
        if disc is not None:
            self.disc = disc
        self._by_phi = {}

    @cached_property
    def disc(self):
        return self.f.discriminant()

    @cached_property
    def factors(self):
        """factor_mod_p(f, p): (lift, multiplicity) per irreducible factor."""
        return factor_mod_p(self.f, self.p)

    def of(self, phi):
        """The PhiRegularity of f at phi, analysed on first use.  A lift
        other than f that divides f exactly (a_0 = 0) proves f reducible."""
        reg = self._by_phi.get(phi)
        if reg is None:
            reg = is_phi_regular(self.f, phi, self.p)
            if phi != self.f and reg.expansion.coefficients[0].is_zero():
                raise NotIrreducibleError(f"{self.f.render()} factors over Q")
            self._by_phi[phi] = reg
        return reg

    def report(self, lifts=None):
        """The p-regularity report for the given lifts, in their order; by
        default the lifts of the factors of f mod p."""
        if lifts is None:
            lifts = [phi for phi, _ in self.factors]
        return PRegularity(self, tuple(self.of(phi) for phi in lifts))


# -- serialization --------------------------------------------------------------


def polygon_to_json(polygon):
    """Points, vertices and sides.  A polygon whose first vertex lies at
    abscissa k > 0 (phi^k divides f) starts with a side of slope -infinity
    and length k, as ordinates reads it."""
    sides = [
        {
            "slope": s.slope,
            "length": s.length,
            "degree": s.degree,
            "ramification": s.ramification,
        }
        for s in polygon.sides
    ]
    start = polygon.start_abscissa()
    if start:
        sides.insert(0, {"slope": "-inf", "length": start, "degree": start, "ramification": 1})
    return {
        "points": [[i, None if not is_finite(u) else u] for i, u in polygon.points],
        "vertices": [list(v) for v in polygon.vertices],
        "sides": sides,
    }


def polygon_to_svg(polygon):
    """Static SVG: a fixed 10-unit lattice pitch, dots at the finite input
    points, solid hull polyline."""
    pitch = 10
    finite = [(i, u) for i, u in polygon.points if is_finite(u)]
    if not finite:
        finite = [(0, 0)]
    max_x = max(i for i, _ in finite) + 1
    max_y = max(u for _, u in finite) + 1
    w, h = (max_x + 1) * pitch, (max_y + 1) * pitch

    def cx(x):
        return pitch + x * pitch

    def cy(y):
        return h - pitch - y * pitch

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for x in range(max_x + 1):
        lines.append(
            f'<line x1="{cx(x)}" y1="{cy(0)}" x2="{cx(x)}" y2="{cy(max_y)}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
    for y in range(max_y + 1):
        lines.append(
            f'<line x1="{cx(0)}" y1="{cy(y)}" x2="{cx(max_x)}" y2="{cy(y)}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
    if len(polygon.vertices) >= 2:
        pts = " ".join(f"{cx(x)},{cy(y)}" for x, y in polygon.vertices)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for i, u in finite:
        lines.append(f'<circle cx="{cx(i)}" cy="{cy(u)}" r="2.5" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines)
