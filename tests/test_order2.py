import random
from fractions import Fraction

import pytest

from pintbasis.arith import INFINITY
from pintbasis.errors import (
    HypothesisViolatedError,
    NotSecondOrderRegularError,
)
from pintbasis.intpoly import IntPoly
from pintbasis.oracle import is_integral, saturate
from pintbasis.order2 import (
    Order2Basis,
    SecondOrderContext,
    basis_order2,
    choose_phi_e1_row6,
    choose_phi_e2_row4,
    second_order_polygon,
    v2p,
)
from pintbasis.basis import triangularize

X = IntPoly([0, 1])


def test_v2p_examples():
    assert v2p(2 * X + 4, 2) == 3  # min(2*1+1, 2*2)
    assert v2p(IntPoly([5]), 5) == 2  # v(p) = 2
    assert v2p(X, 7) == 1
    assert v2p(IntPoly(), 3) is INFINITY
    assert v2p(3 * X, 3) == 3
    with pytest.raises(ValueError):
        v2p(X**2, 2)


def test_context_hypothesis_checks():
    f = IntPoly.monic_quartic(4, 8, 4)  # u0=2, u1=3, u2=2
    SecondOrderContext(f, 2, X**2 - 2, "row")
    with pytest.raises(HypothesisViolatedError):
        SecondOrderContext(f, 2, X**2 - 4, "row")  # constant valuation 2
    with pytest.raises(HypothesisViolatedError):
        SecondOrderContext(IntPoly.monic_quartic(4, 8, 2), 2, X**2 - 2, "row")


def test_polygon_point_two_has_ordinate_four():
    rng = random.Random(30)
    n = 0
    while n < 50:
        a = 4 * rng.randint(-9, 9)
        b = 4 * rng.randint(-9, 9)
        c = 4 * rng.choice([1, 3, 5, 7, -1, -3, -5, -7])
        f = IntPoly.monic_quartic(a, b, c)
        try:
            ctx = SecondOrderContext(f, 2, X**2 - 2, "row")
            polygon = second_order_polygon(ctx)
        except HypothesisViolatedError:
            continue
        n += 1
        assert polygon.points[2] == (2, 4)
        assert polygon.ind2 == int((polygon.Y - 4) // 1)
        assert polygon.ind_p == int(polygon.Y // 1) - 2


def test_ind_examples():
    # Y = 9/2 -> ind2 = 0, ind_p = 2;  Y = 5 -> 1, 3;  Y = 4 -> 0, 2
    from pintbasis.order2 import SecondOrderPolygon

    def polygon(points, Y):  # the quotient plays no part in the indices
        return SecondOrderPolygon(points, Y, True, X**2 - 2)

    assert polygon(((0, 5), (1, 5), (2, 4)), Fraction(9, 2)).ind2 == 0
    assert polygon(((0, 5), (1, 5), (2, 4)), Fraction(9, 2)).ind_p == 2
    assert polygon(((0, 6), (1, 5), (2, 4)), Fraction(5)).ind2 == 1
    assert polygon(((0, 6), (1, 5), (2, 4)), Fraction(5)).ind_p == 3
    assert polygon(((0, 4), (1, 5), (2, 4)), Fraction(4)).ind2 == 0
    assert polygon(((0, 4), (1, 5), (2, 4)), Fraction(4)).ind_p == 2


def test_section52_inline_table():
    """v2(b)=2 -> Y=9/2; v2(b)=3 & v2(c+2a+4)>=4 -> Y=11/2;
    v2(a)>=3 & v2(b)>=4 & v2(c+2a+4)>=4 -> Y=6, all with phi = x^2-2."""
    cases = [
        ((4, 4, 4), Fraction(9, 2)),
        ((4, 8, 20), Fraction(11, 2)),
        ((8, 16, 12), Fraction(6)),
    ]
    for (a, b, c), Y in cases:
        f = IntPoly.monic_quartic(a, b, c)
        polygon = second_order_polygon(SecondOrderContext(f, 2, X**2 - 2, "row"))
        assert polygon.Y == Y, (a, b, c, polygon.Y)


def test_section54_values():
    # F = g(2x)/16 = x^4+2mx^3+A'x^2+B'x+C' with v(C')=2: Y = 9/2 or 5
    F = IntPoly([4, 8, 4, 2, 1])  # v(B')=3 -> Y=9/2
    pol = second_order_polygon(SecondOrderContext(F, 2, X**2 - 2, "S54"))
    assert pol.Y == Fraction(9, 2)
    F = IntPoly([4, 4, 4, 2, 1])  # v(B')=2 -> Y=5
    pol = second_order_polygon(SecondOrderContext(F, 2, X**2 - 2, "S54"))
    assert pol.Y == Fraction(5)


def test_basis_order2_requires_certificate():
    f = IntPoly.monic_quartic(4, 8, 4)
    with pytest.raises(NotSecondOrderRegularError):
        basis_order2(SecondOrderContext(f, 2, X**2 - 2, ""))


def test_basis_order2_matches_saturation():
    # 2-regular-in-second-order quartics via the phi-choice table
    rng = random.Random(31)
    n = 0
    while n < 25:
        a = 4 * rng.randint(-9, 9)
        b = 4 * rng.randint(-9, 9)
        c = 4 * rng.choice([1, 3, 5, -1, -3, -5])
        from pintbasis.factor import is_irreducible_quartic
        from pintbasis.arith import vp

        if not is_irreducible_quartic(a, b, c):
            continue
        if (a and vp(a, 2) < 2) or (b and vp(b, 2) < 2) or vp(c, 2) != 2:
            continue
        phi, tag = choose_phi_e1_row6(a, b, c)
        f = IntPoly.monic_quartic(a, b, c)
        o2 = basis_order2(SecondOrderContext(f, 2, phi, tag))
        n += 1
        for el in o2.elements:
            assert is_integral(f, el, 2), (a, b, c, el)
        tri = triangularize(list(o2.elements), 2, 4)
        oracle = saturate(f, 2)
        assert tri.elements == oracle.elements, (a, b, c)
        assert tri.index_valuation == o2.ind_p == oracle.index_valuation


def test_choose_phi_rows():
    # Table row examples: v2(b)=2 -> x^2-2
    phi, tag = choose_phi_e1_row6(8, 4, 4)
    assert phi == X**2 - 2 and tag == "T7r1"
    # Table 8 last row: v(A)>=3, v(B+8)>=4, v(2A+C+4)>=4 -> x^2-2
    phi, tag = choose_phi_e2_row4(8, 8, 12)
    assert phi == X**2 - 2 and tag == "T8r14"


def test_choose_phi_never_fails_on_its_domain():
    rng = random.Random(32)
    from pintbasis.arith import vp

    n = 0
    while n < 300:
        a = 4 * rng.randint(-40, 40)
        b = 4 * rng.randint(-40, 40)
        c = 4 * rng.choice([1, 3, 5, 7, -1, -3, -5, -7])
        if (a and vp(a, 2) < 2) or (b and vp(b, 2) < 2):
            continue
        n += 1
        phi, tag = choose_phi_e1_row6(a, b, c)
        assert phi.monic and phi.degree == 2
        assert vp(phi[0], 2) == 1  # constant is -yp with odd y
        A, B, C = 4 + a, 4 * 1 + 2 * a + b + 0, 0
        # the companion table on the shifted quartic never fails either
        g = IntPoly.monic_quartic(a, b, c).shift(1)
        if vp(g[0], 2) == 2 and (g[1] == 0 or vp(g[1], 2) >= 2) and (
            g[2] == 0 or vp(g[2], 2) >= 2
        ):
            phi2, _ = choose_phi_e2_row4(g[2], g[1], g[0])
            assert phi2.monic and phi2.degree == 2
