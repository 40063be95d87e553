"""Second-order Newton polygons for the quartic cases whose first-order
polygon has an inseparable residual on a slope -1/2 side (so the shift
iteration cannot apply).

The rank-2 valuation v2 has v2(p) = 2, v2(x) = 1, v2(phi) = 2 for
phi = x^2 + z p x - y p with ybar the double residual root.  The polygon of
F = phi^2 + a1 phi + a0 over the points (i, v2(a_i phi^i)) determines the
index and, through its abscissa-1 ordinate Y, a p-integral basis
1, theta, Q(theta)/p^[nu], theta Q(theta)/p^[nu+1/2] with nu = Y/2 - 1.
Second-order regularity is certified by membership in the phi-choice
tables, never guessed."""

from fractions import Fraction

from .arith import INFINITY, is_finite, vp
from .errors import HypothesisViolatedError, NoRowError, NotSecondOrderRegularError
from .intpoly import IntPoly
from .newton import phi_expand
from .basis import BasisElement
from .record import Record

_X = IntPoly([0, 1])


def v2p(P, p):
    """Second-order valuation of a polynomial of degree <= 1:
    v2(m x + n) = min(2 v_p(m) + 1, 2 v_p(n))."""
    if P.degree > 1:
        raise ValueError("second-order valuation defined here for degree <= 1 only")
    if P.is_zero():
        return INFINITY
    vals = []
    if P[1]:
        vals.append(2 * vp(P[1], p) + 1)
    if P[0]:
        vals.append(2 * vp(P[0], p))
    return min(vals)


class SecondOrderContext(Record):
    F: IntPoly
    p: int
    phi: IntPoly
    certified_by: str  # table row that guarantees second-order regularity

    def __post_init__(self):
        F, p, phi = self.F, self.p, self.phi
        if F.degree != 4 or not F.monic:
            raise HypothesisViolatedError("F must be a monic quartic")
        if phi.degree != 2 or not phi.monic:
            raise HypothesisViolatedError("phi must be a monic quadratic")
        if vp(phi[0], p) != 1 or (phi[1] != 0 and vp(phi[1], p) < 1):
            raise HypothesisViolatedError(
                "phi must have the shape x^2 + z p x - y p with p-unit y"
            )
        u = [vp(F[i], p) for i in range(4)]
        if not (u[0] == 2 and u[1] > 1 and u[2] >= 1 and u[3] >= 1):
            raise HypothesisViolatedError(
                "coefficient valuations must satisfy u0=2, u1>1, u2>=1, u3>=1"
            )


class SecondOrderPolygon(Record):
    points: tuple  # ((0, v2(a0)), (1, v2(a1 phi)), (2, 4))
    Y: Fraction  # ordinate of the polygon at abscissa 1
    one_sided: bool
    Q: IntPoly  # first quotient of the development, phi + a1

    @property
    def ind2(self):
        """Lattice points below/on the polygon, strictly above y = 4 and
        strictly right of the vertical axis: floor(Y - 4)."""
        return int((self.Y - 4) // 1)

    @property
    def ind_p(self):
        """ind_p(F) = ind_x(F) + ind2 = 2 + ind2 = floor(Y) - 2."""
        return int(self.Y // 1) - 2


def second_order_polygon(ctx):
    """Polygon over (i, v2(a_i(x) phi(x)^i)) for the development
    F = phi^2 + a1 phi + a0; the point at abscissa 2 has ordinate 4.  It
    keeps the first quotient Q = phi + a1, which the basis reads."""
    expansion = phi_expand(ctx.F, ctx.phi)
    if len(expansion.coefficients) != 3 or expansion.coefficients[2] != IntPoly([1]):
        raise HypothesisViolatedError("development must be phi^2 + a1 phi + a0")
    a0, a1 = expansion.coefficients[0], expansion.coefficients[1]
    v0 = v2p(a0, ctx.p)
    if not is_finite(v0):
        raise HypothesisViolatedError("phi divides F")
    v1 = v2p(a1, ctx.p)
    pt1 = v1 + 2
    one_sided = v0 <= 2 * v1
    if one_sided:
        Y = Fraction(v0 + 4, 2)
    else:
        Y = Fraction(pt1)
    return SecondOrderPolygon(((0, v0), (1, pt1), (2, 4)), Y, one_sided,
                              expansion.quotients[0])


class Order2Basis(Record):
    elements: tuple  # in the coordinates of the root of F
    Y: Fraction
    nu: Fraction
    Q: IntPoly
    phi: IntPoly
    ind_p: int


def basis_order2(ctx):
    """Basis attached to a certified second-order regular context: with Q the
    first quotient of the phi-adic development and nu = Y/2 - 1, the elements
    1, theta, Q(theta)/p^[nu], theta Q(theta)/p^[nu + 1/2]."""
    if not ctx.certified_by:
        raise NotSecondOrderRegularError(
            "phi was not certified second-order regular by any table row"
        )
    polygon = second_order_polygon(ctx)
    Q = polygon.Q
    nu = polygon.Y / 2 - 1
    e2 = int(nu // 1)
    e3 = int((nu + Fraction(1, 2)) // 1)
    elements = (
        BasisElement(IntPoly([1]), 0),
        BasisElement(_X, 0),
        BasisElement(Q, e2),
        BasisElement(Q * _X, e3),
    )
    return Order2Basis(elements, polygon.Y, nu, Q, ctx.phi, polygon.ind_p)


# -- phi-choice tables -----------------------------------------------------------


def _quad(lin, const):
    return IntPoly([const, lin, 1])


def choose_phi_e1_row6(a, b, c):
    """Quadratic lift phi making x^4+ax^2+bx+c (p=2, v(a)>1, v(b)>1, v(c)=2)
    regular in second order; returns (phi, row_tag)."""
    va, vb = vp(a, 2), vp(b, 2)
    vacm = vp(2 * a + c - 4, 2)
    if vb == 2:
        return _quad(0, -2), "T7r1"
    if vb == 3 and vacm == 3:
        return _quad(0, -2), "T7r2"
    if vb == 3 and vacm >= 4:
        return _quad(-2, -2), "T7r3"
    if va == 2 and vb >= 4 and vacm >= 4:
        return _quad(-2, -2), "T7r4"
    if va == 2 and vb >= 4 and vacm == 3:
        u = vb
        v = vp(c - a * a // 4, 2)
        if u < v:
            return _quad(0, a // 2), "T7r5"
        d = ((c - a * a // 4) >> v) % 4
        if u == v:
            w = v // 2
            if v % 2 == 0:
                return _quad(0, a // 2 + 2**w), "T7r6"
            return _quad(2**w, a // 2), "T7r7"
        w = v // 2
        if v % 2 == 0:
            if d == 3:
                return _quad(0, a // 2 + 2**w), "T7r8"
            return _quad(2**w, a // 2 + 2**w), "T7r9"
        if d == (a // 4) % 4:
            return _quad(2**w, a // 2), "T7r10"
        if d == (-a // 4) % 4:
            return _quad(2**w, a // 2 + 2 ** (w + 1)), "T7r11"
        raise NoRowError(f"no phi-choice row for (a,b,c)=({a},{b},{c})")
    if va >= 3 and vb >= 4:
        if vacm == 3:
            return _quad(0, -2), "T7r12"
        if vacm == 4:
            return _quad(-2, -2), "T7r13"
        return _quad(-2, 2), "T7r14"
    raise NoRowError(f"no phi-choice row for (a,b,c)=({a},{b},{c})")


def choose_phi_e2_row4(A, B, C):
    """Quadratic lift phi making x^4+4x^3+Ax^2+Bx+C (v(A)>1, v(B)>1, v(C)=2)
    regular in second order; returns (phi, row_tag)."""
    vA = vp(A, 2)
    vB8 = vp(B + 8, 2)
    vac = vp(2 * A + C + 4, 2)
    if vB8 == 2:
        return _quad(0, -2), "T8r1"
    if vB8 == 3 and vac >= 4:
        return _quad(0, -2), "T8r2"
    if vA == 2 and vB8 >= 3 and vac == 3:
        return _quad(2, -2), "T8r3"
    if vA == 2 and vB8 >= 4 and vac >= 5:
        return _quad(0, -2), "T8r4"
    if vA == 2 and vB8 >= 4 and vac == 4:
        return _quad(0, 2), "T8r5"
    if vA >= 3 and vB8 == 3 and vac == 3:
        return _quad(2, -2), "T8r6"
    if vA >= 3 and vB8 >= 4 and vac == 3:
        if B + 8 - 2 * A == 0 and C == (A - 4) ** 2 // 4:
            raise NoRowError("shifted quartic is a perfect square (reducible input)")
        u = vp(B + 8 - 2 * A, 2) if B + 8 - 2 * A else INFINITY
        v = vp(C - (A - 4) ** 2 // 4, 2) if C != (A - 4) ** 2 // 4 else INFINITY
        if u < v:
            return _quad(2, -2 + A // 2), "T8r7"
        d = ((C - (A - 4) ** 2 // 4) >> v) % 4
        w = v // 2
        if u == v:
            if v % 2 == 0:
                return _quad(2, -2 + A // 2 + 2**w), "T8r8"
            if d == (1 + A // 4) % 4:
                return _quad(2 + 2**w, -2 + A // 2 + 2 ** (w + 1)), "T8r9"
            if d == (-1 + A // 4) % 4:
                return _quad(2 + 2**w, -2 + A // 2), "T8r10"
            raise NoRowError(f"no phi-choice row for (A,B,C)=({A},{B},{C})")
        if v % 2 == 0:
            if d == 3:
                return _quad(2, -2 + A // 2 + 2**w), "T8r11"
            return _quad(2 + 2**w, -2 + A // 2 + 2**w), "T8r12"
        return _quad(2 + 2**w, -2 + A // 2), "T8r13"
    if vA >= 3 and vB8 >= 4 and vac >= 4:
        return _quad(0, -2), "T8r14"
    raise NoRowError(f"no phi-choice row for (A,B,C)=({A},{B},{C})")


def choose_phi_e2_row10(Ap, Bp, Cp):
    """Lift of x^2+x+1 making x^4+2x^3+A'x^2+B'x+C' (A', C' odd, B' even)
    regular in first order; keyed by A' mod 4 and u = v(B'+1-A'),
    v = v(C' - (A'-1)^2/4)."""
    if Ap % 4 == 1:
        return _quad(1, -1), "T6phi-r1"
    u = vp(Bp + 1 - Ap, 2) if Bp + 1 - Ap else INFINITY
    v = vp(Cp - (Ap - 1) ** 2 // 4, 2) if Cp - (Ap - 1) ** 2 // 4 else INFINITY
    half = (Ap - 1) // 2
    if min(u, v) % 2 == 1 if is_finite(min(u, v)) else False:
        return _quad(1, half), "T6phi-r2"
    if u == v:
        w = u // 2
        return _quad(1 + 2**w, half), "T6phi-r3"
    if u < v:
        w = u // 2
        return _quad(1 + 2**w, half + 2**w), "T6phi-r4"
    if is_finite(v):
        w = v // 2
        return _quad(1, half + 2**w), "T6phi-r5"
    raise NoRowError(f"no phi-choice row for (A',B',C')=({Ap},{Bp},{Cp})")

