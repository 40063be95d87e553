"""phi-adic developments, Newton polygons, residual polynomials and
regularity tests.

All polygon geometry is exact: ordinates are Fractions, slopes are reduced
Fractions, and hulls are computed by a monotone-chain sweep with integer
cross products.  Points with infinite ordinate (zero coefficients) never
enter the hull; they contribute zero residual coefficients.
"""

from fractions import Fraction

from .arith import is_finite
from .errors import InconsistentError
from .factor import factor_mod_p, is_irreducible_mod_p
from .fq import FqField, factor_fqpoly
from .intpoly import IntPoly
from .record import Record


class PhiExpansion(Record):
    """phi-adic development f = sum a_i phi^i with deg a_i < deg phi,
    together with the quotients q_j and residues r_j of division by phi^j."""

    f: IntPoly
    phi: IntPoly
    coefficients: tuple
    quotients: tuple
    residues: tuple

    def reconstruct(self):
        acc = IntPoly()
        power = IntPoly.const(1)
        for a in self.coefficients:
            acc = acc + a * power
            power = power * self.phi
        return acc


def phi_expand(f, phi):
    """Compute the phi-adic development by repeated exact division."""
    if phi.degree < 1 or not phi.monic:
        raise ValueError("phi must be monic of degree >= 1")
    coeffs = []
    quotients = []
    residues = []
    q = f
    residue = IntPoly()
    phi_pow = IntPoly.const(1)
    while True:
        q, a = divmod(q, phi)
        residue = residue + a * phi_pow
        coeffs.append(a)
        if q.is_zero():
            break
        quotients.append(q)
        phi_pow = phi_pow * phi
        residues.append(residue)
    return PhiExpansion(f, phi, tuple(coeffs), tuple(quotients), tuple(residues))


class Side(Record):
    start: tuple
    end: tuple
    slope: Fraction

    @property
    def length(self):
        return self.end[0] - self.start[0]

    @property
    def height(self):
        return self.start[1] - self.end[1]

    @property
    def ramification(self):
        """e in slope = -h/e (lowest terms); the full length for slope 0."""
        if self.slope == 0:
            return self.length
        return self.slope.denominator

    @property
    def degree(self):
        return self.length // self.ramification

    def ordinate_at(self, x):
        return Fraction(self.start[1]) + self.slope * (x - self.start[0])

    def __repr__(self):
        return f"Side({self.start}->{self.end}, slope {self.slope})"


class NewtonPolygon(Record):
    """Lower convex envelope of the points (i, v_p(a_i)); u_i = INFINITY
    points are recorded but excluded from the hull."""

    points: tuple  # (i, u_i) with u_i an int or INFINITY
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

    def ordinate_at(self, x):
        """Exact ordinate of the polygon above abscissa x."""
        for s in self.sides:
            if s.start[0] <= x <= s.end[0]:
                return s.ordinate_at(x)
        if self.vertices and x == self.vertices[0][0]:
            return Fraction(self.vertices[0][1])
        raise ValueError(f"abscissa {x} outside polygon")

    def on_polygon(self, i, u):
        """True when the finite point (i, u) lies exactly on the hull."""
        try:
            return Fraction(u) == self.ordinate_at(i)
        except ValueError:
            return False


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
    sides = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        sides.append(Side((x0, y0), (x1, y1), Fraction(y1 - y0, x1 - x0)))
    return NewtonPolygon(points, tuple(vertices), tuple(sides))


def principal_part(polygon):
    """Restriction to the sides of negative slope."""
    neg = tuple(s for s in polygon.sides if s.slope < 0)
    if not neg:
        first = polygon.vertices[:1]
        return NewtonPolygon(polygon.points[:1], tuple(first), ())
    end = neg[-1].end[0]
    vertices = tuple(v for v in polygon.vertices if v[0] <= end)
    points = tuple(pt for pt in polygon.points if pt[0] <= end)
    return NewtonPolygon(points, vertices, neg)


def ordinates(principal):
    """y_0 .. y_ell: exact ordinates of the principal polygon at the integer
    abscissas; strictly decreasing with y_ell = 0."""
    ell = principal.length
    if ell < 1:
        raise ValueError("principal polygon must have positive length")
    if principal.start_abscissa() != 0:
        raise InconsistentError("principal polygon does not start at abscissa 0")
    return [principal.ordinate_at(j) for j in range(ell + 1)]


def index_from_ordinates(ys):
    """sum of floor(y_j) for 1 <= j <= ell - 1 (equivalently up to ell,
    since y_ell = 0)."""
    return sum(int(y // 1) for y in ys[1:-1])


def lattice_point_count(principal):
    """Number of integer points strictly right of the vertical axis and
    strictly above the horizontal axis, on or below the polygon.  Computed
    without ordinates as an independent cross-check."""
    count = 0
    ell = principal.length
    for i in range(1, ell + 1):
        y = principal.ordinate_at(i)
        j = 1
        while j <= y:
            count += 1
            j += 1
    return count


def phi_index(f, phi, p):
    """deg(phi) times the lattice-point count under the principal polygon."""
    expansion = phi_expand(f, phi)
    principal = principal_part(newton_polygon(expansion, p))
    if principal.length < 1:
        return 0
    ys = ordinates(principal)
    total = index_from_ordinates(ys)
    return phi.degree * total


def residual_coefficients(principal, expansion, field):
    """c_i for 0 <= i <= ell, coefficients of the residue field of phi: zero
    off the polygon, red(a_i / p^{u_i}) on it."""
    p = field.p
    out = []
    for i in range(principal.length + 1):
        a = expansion.coefficients[i]
        u = a.vp(p)
        if not is_finite(u) or not principal.on_polygon(i, u):
            out.append(field.arith.zero)
        else:
            out.append(field.elem(a.divide_exact(p**u)))
    return out


def residual_polynomial(side, coefficients):
    """R(y) = c_s + c_{s+e} y + ... + c_{s+de} y^d for a principal side, as a
    kernel polynomial (lowest degree first)."""
    s = side.start[0]
    e = side.ramification
    r = [coefficients[s + k * e] for k in range(side.degree + 1)]
    if not r[0] or not r[-1]:
        raise InconsistentError(
            "residual polynomial must have degree d(S) and nonzero constant term"
        )
    return r


class SideData(Record):
    side: Side
    residual: list  # kernel polynomial over field
    field: FqField

    @property
    def separable(self):
        arith = self.field.arith
        return len(arith.gcd(self.residual, arith.deriv(self.residual))) == 1


class PhiRegularity(Record):
    phi: IntPoly
    field: FqField  # the residue field of phi
    regular: bool
    sides: tuple  # SideData for every principal side
    witnesses: tuple  # (side, multiple irreducible factor, multiplicity)


def phi_polygon_data(f, phi, p):
    """Expansion, principal polygon and residual data for one phi."""
    expansion = phi_expand(f, phi)
    principal = principal_part(newton_polygon(expansion, p))
    if principal.length < 1:
        return expansion, principal, []
    field = FqField(p, phi)
    cs = residual_coefficients(principal, expansion, field)
    data = [SideData(s, residual_polynomial(s, cs), field) for s in principal.sides]
    return expansion, principal, data


def is_phi_regular(f, phi, p):
    """phi-regularity: every principal side carries a separable residual
    polynomial.  On failure the witnesses name each offending side together
    with its multiple irreducible residual factor, read from the
    factorization of its residual polynomial."""
    if not is_irreducible_mod_p(phi, p):
        raise ValueError(f"{phi.render()} is not irreducible mod {p}")
    _, _, data = phi_polygon_data(f, phi, p)
    witnesses = []
    for sd in data:
        if not sd.separable:
            _, factors = factor_fqpoly(sd.field, sd.residual)
            witnesses += [(sd.side, g, m) for g, m in factors if m > 1]
    field = data[0].field if data else FqField(p, phi)
    return PhiRegularity(phi, field, not witnesses, tuple(data), tuple(witnesses))


class PRegularity(Record):
    regular: bool
    by_phi: tuple  # PhiRegularity per lift, same order as the input

    def first_witness(self):
        """(phi, side, field, factor, multiplicity) of the first witness."""
        for reg in self.by_phi:
            if not reg.regular:
                side, g, m = reg.witnesses[0]
                return reg.phi, side, reg.field, g, m
        return None


def is_p_regular(f, p, lifts=None):
    """p-regularity with respect to the given lifts (default: symmetric lifts
    of the irreducible factors of f mod p).  Lifts whose factor appears with
    multiplicity one are vacuously regular; their polygons are still
    reported."""
    if lifts is None:
        lifts = [phi for phi, _ in factor_mod_p(f, p)]
    reports = tuple(is_phi_regular(f, phi, p) for phi in lifts)
    return PRegularity(all(r.regular for r in reports), reports)


# -- serialization --------------------------------------------------------------


def _slope_str(slope):
    return f"{slope.numerator}/{slope.denominator}" if slope.denominator != 1 else str(slope)


def polygon_to_json(polygon):
    return {
        "points": [[i, None if not is_finite(u) else u] for i, u in polygon.points],
        "vertices": [list(v) for v in polygon.vertices],
        "sides": [
            {
                "slope": _slope_str(s.slope),
                "length": s.length,
                "degree": s.degree,
                "ramification": s.ramification,
            }
            for s in polygon.sides
        ],
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
