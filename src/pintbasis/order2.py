"""Second-order Newton polygons for the quartic cases whose first-order
polygon has an inseparable residual on a slope -1/2 side (so the shift
iteration cannot apply).

The rank-2 valuation v2 has v2(p) = 2, v2(x) = 1, v2(phi) = 2 for
phi = x^2 + z p x - y p with ybar the double residual root.  The polygon of
F = phi^2 + a1 phi + a0 over the points (0, v2(a0)), (1, v2(a1) + 2), (2, 4)
determines the index and, through its ordinate Y at abscissa 1, a p-integral
basis 1, theta, Q(theta)/p^[nu], theta Q(theta)/p^[nu+1/2] with nu = Y/2 - 1.
All of it is integer arithmetic on 2Y.  Second-order regularity is certified
by the phi-choice tables, never guessed: only their phi reach
second_order_basis, so a violated hypothesis there is a program fault."""

from .arith import INFINITY, is_finite, vp
from .errors import InconsistentError
from .intpoly import IntPoly
from .newton import phi_expand
from .basis import BasisElement

_ONE = IntPoly([1])
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


def second_order_basis(F, p, phi):
    """(elements, 2Y) for the monic quartic F and the phi a table chose for
    it.  With F = phi^2 + a1 phi + a0, the polygon's ordinate at abscissa 1
    is Y = (v2(a0) + 4)/2 when v2(a0) <= 2 v2(a1), else v2(a1) + 2; the
    elements are 1, theta, Q/p^[nu], theta Q/p^[nu+1/2] in the coordinates
    of the root of F, with Q = phi + a1 the first quotient of the
    development, [nu] = (2Y - 4) // 4 and [nu+1/2] = (2Y - 2) // 4.  The
    index is ind_p(F) = floor(Y) - 2 = 2Y // 2 - 2."""
    if F.degree != 4 or not F.monic:
        raise InconsistentError("F must be a monic quartic")
    if phi.degree != 2 or not phi.monic:
        raise InconsistentError("phi must be a monic quadratic")
    if vp(phi[0], p) != 1 or (phi[1] != 0 and vp(phi[1], p) < 1):
        raise InconsistentError("phi must have the shape x^2 + z p x - y p with p-unit y")
    u = [vp(F[i], p) for i in range(4)]
    if not (u[0] == 2 and u[1] > 1 and u[2] >= 1 and u[3] >= 1):
        raise InconsistentError(
            "coefficient valuations must satisfy u0=2, u1>1, u2>=1, u3>=1"
        )
    expansion = phi_expand(F, phi)
    if len(expansion.coefficients) != 3 or expansion.coefficients[2] != _ONE:
        raise InconsistentError("development must be phi^2 + a1 phi + a0")
    a0, a1 = expansion.coefficients[:2]
    v0, v1 = v2p(a0, p), v2p(a1, p)
    if not is_finite(v0):
        raise InconsistentError("phi divides F")
    two_Y = v0 + 4 if v0 <= 2 * v1 else 2 * v1 + 4
    Q = expansion.quotients[0]
    elements = (BasisElement(_ONE, 0), BasisElement(_X, 0),
                BasisElement(Q, (two_Y - 4) // 4), BasisElement(Q * _X, (two_Y - 2) // 4))
    return elements, two_Y


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
        raise InconsistentError(f"no phi-choice row for (a,b,c)=({a},{b},{c})")
    if va >= 3 and vb >= 4:
        if vacm == 3:
            return _quad(0, -2), "T7r12"
        if vacm == 4:
            return _quad(-2, -2), "T7r13"
        return _quad(-2, 2), "T7r14"
    raise InconsistentError(f"no phi-choice row for (a,b,c)=({a},{b},{c})")


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
            raise InconsistentError("shifted quartic is a perfect square (reducible input)")
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
            raise InconsistentError(f"no phi-choice row for (A,B,C)=({A},{B},{C})")
        if v % 2 == 0:
            if d == 3:
                return _quad(2, -2 + A // 2 + 2**w), "T8r11"
            return _quad(2 + 2**w, -2 + A // 2 + 2**w), "T8r12"
        return _quad(2 + 2**w, -2 + A // 2), "T8r13"
    if vA >= 3 and vB8 >= 4 and vac >= 4:
        return _quad(0, -2), "T8r14"
    raise InconsistentError(f"no phi-choice row for (A,B,C)=({A},{B},{C})")


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
    raise InconsistentError(f"no phi-choice row for (A',B',C')=({Ap},{Bp},{Cp})")

