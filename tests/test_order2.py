import random
from fractions import Fraction

import pytest

from pintbasis.arith import INFINITY, vp
from pintbasis.errors import InconsistentError
from pintbasis.intpoly import IntPoly
from pintbasis.oracle import is_integral, saturate
from pintbasis.order2 import (
    choose_phi_e1_row6,
    choose_phi_e2_row4,
    second_order_basis,
    v2p,
)
from pintbasis.basis import triangularize
from reference import fraction_second_order

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
    """A context (F, p, phi) outside the second-order hypotheses is a
    program fault: only the tables' phi reach the step."""
    f = IntPoly.monic_quartic(4, 8, 4)  # u0=2, u1=3, u2=2
    second_order_basis(f, 2, X**2 - 2)
    for F, phi in [
        (f, X**2 - 4),  # constant valuation 2
        (f, X**2 + X - 2),  # linear coefficient a unit
        (f, X**3 - 2),  # not quadratic
        (IntPoly.monic_quartic(4, 8, 2), X**2 - 2),  # u0 = 1
        (IntPoly.monic_quartic(4, 2, 4), X**2 - 2),  # u1 = 1
        (IntPoly([4, 0, 4, 0, 2]), X**2 - 2),  # not monic
        ((X**2 - 2) * (X**2 + 2), X**2 - 2),  # phi divides F
    ]:
        with pytest.raises(InconsistentError):
            second_order_basis(F, 2, phi)


def _hypothesis_holds(F, p):
    u = [vp(F[i], p) for i in range(4)]
    return u[0] == 2 and u[1] > 1 and u[2] >= 1 and u[3] >= 1


def test_second_order_basis_matches_the_fraction_reference():
    """Seeded quartics F with u0 = 2, u1 > 1, u2, u3 >= 1 (x^3 term
    included) and phi = x^2 + z p x - y p, p not dividing y: the integer
    elements, 2Y and ind_p = 2Y // 2 - 2 equal the Fraction reference's, on
    both one-sided and two-sided polygons."""
    rng = random.Random(23)
    checked, shapes = 0, set()
    while checked < 3000:
        p = rng.choice((2, 3, 5))
        F = IntPoly([p * p * rng.choice([k for k in range(1, 3 * p) if k % p]),
                     p * p * rng.randint(-9, 9), p * rng.randint(-9, 9),
                     p * rng.randint(-3, 3), 1])
        phi = IntPoly([-p * rng.choice([k for k in range(1, 3 * p) if k % p]),
                       p * rng.randint(-2, 2), 1])
        if not _hypothesis_holds(F, p) or divmod(F, phi)[1].is_zero():
            continue
        elements, two_Y = second_order_basis(F, p, phi)
        ref_elements, Y, ind_p = fraction_second_order(F, p, phi)
        assert (elements, Fraction(two_Y, 2)) == (ref_elements, Y), (F.render(), p, phi.render())
        assert two_Y // 2 - 2 == ind_p
        one_sided = two_Y == v2p(divmod(F, phi)[1], p) + 4
        shapes.add((one_sided, two_Y % 2))
        checked += 1
    assert shapes == {(True, 0), (True, 1), (False, 0)}, shapes


def test_polygon_point_two_has_ordinate_four():
    """Y is the ordinate at abscissa 1 of the lower hull of (0, v2(a0)),
    (1, v2(a1) + 2) and (2, 4): 2Y = min(v2(a0) + 4, 2 v2(a1) + 4)."""
    rng = random.Random(30)
    n = 0
    while n < 50:
        a = 4 * rng.randint(-9, 9)
        b = 4 * rng.randint(-9, 9)
        c = 4 * rng.choice([1, 3, 5, 7, -1, -3, -5, -7])
        f = IntPoly.monic_quartic(a, b, c)
        if not _hypothesis_holds(f, 2):
            continue
        n += 1
        Q, a0 = divmod(f, X**2 - 2)
        one, a1 = divmod(Q, X**2 - 2)
        assert one == IntPoly([1])
        _, two_Y = second_order_basis(f, 2, X**2 - 2)
        assert two_Y == min(v2p(a0, 2) + 4, 2 * v2p(a1, 2) + 4), (a, b, c)


def test_ind_examples():
    """2Y = 9, 10, 11, 12: the exponents (2Y - 4) // 4 and (2Y - 2) // 4 add
    up to ind_p = 2Y // 2 - 2, the index of the basis they give."""
    cases = [(IntPoly.monic_quartic(4, 4, 4), 9, (1, 1), 2),
             (IntPoly([4, 4, 4, 2, 1]), 10, (1, 2), 3),
             (IntPoly.monic_quartic(4, 8, 20), 11, (1, 2), 3),
             (IntPoly.monic_quartic(8, 16, 12), 12, (2, 2), 4)]
    for F, two_Y, exps, ind in cases:
        elements, got = second_order_basis(F, 2, X**2 - 2)
        assert got == two_Y and two_Y // 2 - 2 == ind
        assert tuple(el.denom_exp for el in elements) == (0, 0, *exps)
        assert triangularize(list(elements), 2, 4).index_valuation == ind


def test_section52_inline_table():
    """v2(b)=2 -> Y=9/2; v2(b)=3 & v2(c+2a+4)>=4 -> Y=11/2;
    v2(a)>=3 & v2(b)>=4 & v2(c+2a+4)>=4 -> Y=6, all with phi = x^2-2."""
    cases = [((4, 4, 4), 9), ((4, 8, 20), 11), ((8, 16, 12), 12)]
    for (a, b, c), two_Y in cases:
        f = IntPoly.monic_quartic(a, b, c)
        assert second_order_basis(f, 2, X**2 - 2)[1] == two_Y, (a, b, c)


def test_section54_values():
    # F = g(2x)/16 = x^4+2mx^3+A'x^2+B'x+C' with v(C')=2: Y = 9/2 or 5
    F = IntPoly([4, 8, 4, 2, 1])  # v(B')=3 -> Y=9/2
    assert second_order_basis(F, 2, X**2 - 2)[1] == 9
    F = IntPoly([4, 4, 4, 2, 1])  # v(B')=2 -> Y=5
    assert second_order_basis(F, 2, X**2 - 2)[1] == 10


def test_basis_order2_matches_saturation():
    # 2-regular-in-second-order quartics via the phi-choice table
    rng = random.Random(31)
    n = 0
    while n < 25:
        a = 4 * rng.randint(-9, 9)
        b = 4 * rng.randint(-9, 9)
        c = 4 * rng.choice([1, 3, 5, -1, -3, -5])
        from pintbasis.factor import is_irreducible_quartic

        if not is_irreducible_quartic(a, b, c):
            continue
        if (a and vp(a, 2) < 2) or (b and vp(b, 2) < 2) or vp(c, 2) != 2:
            continue
        phi, tag = choose_phi_e1_row6(a, b, c)
        f = IntPoly.monic_quartic(a, b, c)
        elements, two_Y = second_order_basis(f, 2, phi)
        n += 1
        for el in elements:
            assert is_integral(f, el, 2), (a, b, c, el)
        tri = triangularize(list(elements), 2, 4)
        oracle = saturate(f, 2)
        assert tri.elements == oracle.elements, (a, b, c)
        assert tri.index_valuation == two_Y // 2 - 2 == oracle.index_valuation


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
