import random
from collections import Counter
from fractions import Fraction

import pytest

from pintbasis.arith import vp
from pintbasis.errors import NotIrreducibleError
from pintbasis.factor import is_irreducible
from pintbasis.intpoly import IntPoly, parse_poly
from pintbasis.oracle import (
    basis_discriminant,
    char_poly_of_numerator,
    disc_identity_check,
    gram_matrix,
    is_integral,
    is_ring_closed,
    power_sums,
    saturate,
)
from pintbasis.basis import BasisElement, PIntegralBasis, p_integral_basis_regular, power_basis

X = IntPoly([0, 1])


def test_char_poly_examples():
    f = X**4 - 2
    assert char_poly_of_numerator(f, X) == f
    # theta^2 has char poly (y^2-2)^2 = y^4 - 4y^2 + 4
    assert char_poly_of_numerator(f, X**2) == X**4 - 4 * X**2 + 4
    assert char_poly_of_numerator(f, IntPoly([5])) == (X - 5) ** 4
    assert char_poly_of_numerator(f, IntPoly()) == X**4


def test_char_poly_matches_resultants():
    """C(t) = Res_x(f, t - g) for the monic f, and the n+1 values at
    t = 0..n determine the monic C of degree n.  Random f up to degree 9
    with coefficients up to 10^8, and g from zero up to degree n+1 with
    coefficients up to 10^12, so its powers need reducing mod f."""
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 9)
        f = IntPoly([rng.randint(-10**8, 10**8) for _ in range(n)] + [1])
        bound = rng.choice([9, 10**12])
        g = IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(-1, n + 1) + 1)])
        c = char_poly_of_numerator(f, g)
        assert c.degree == n and c.monic, (f, g, c)
        for t in range(n + 1):
            assert c(t) == f.resultant(IntPoly.const(t) - g), (f, g, t)


def test_power_sums():
    f = (X - 1) * (X - 2) * (X - 3)
    assert power_sums(f, 4) == [3, 6, 14, 36, 98]
    f = X**4 - 2
    assert power_sums(f, 8) == [4, 0, 0, 0, 8, 0, 0, 0, 16]


def test_is_integral_examples():
    f = X**4 - 2
    assert is_integral(f, BasisElement(X, 0), 2)
    assert not is_integral(f, BasisElement(X, 1), 2)  # theta/2
    f = X**4 - 18
    assert is_integral(f, BasisElement(X**2, 1), 3)  # (theta^2/3)^2 = 2
    assert not is_integral(f, BasisElement(X, 1), 3)
    # everything over denominator 1 is integral
    rng = random.Random(14)
    for _ in range(20):
        g = IntPoly([rng.randint(-9, 9) for _ in range(4)])
        assert is_integral(f, BasisElement(g, 0), 3)


def test_saturate_examples():
    f = X**4 - 2
    b = saturate(f, 2)
    assert b.index_valuation == 0
    assert [e.denom_exp for e in b.elements] == [0, 0, 0, 0]

    f = X**4 + 2 * X**2 + 4
    b = saturate(f, 2)
    assert b.index_valuation == 2
    assert b.elements[2] == BasisElement(X**2, 1)
    assert b.elements[3] == BasisElement(X**3, 1)

    f = IntPoly.monic_quartic(1, 0, 50)
    b = saturate(f, 5)
    assert b.elements[3] == BasisElement(X**3 + X, 1)
    assert b.index_valuation == 1


def test_saturate_idempotent_and_matches_construction():
    rng = random.Random(15)
    checked = 0
    while checked < 25:
        a, b, c = (rng.randint(-30, 30) for _ in range(3))
        p = rng.choice([2, 3, 5])
        f = IntPoly.monic_quartic(a, b, c)
        from pintbasis.factor import is_irreducible_quartic
        from pintbasis.errors import NotRegularError

        if not is_irreducible_quartic(a, b, c):
            continue
        try:
            constructed = p_integral_basis_regular(f, p)
        except NotRegularError:
            continue
        oracle = saturate(f, p)
        assert oracle.elements == constructed.elements, (f.render(), p)
        assert oracle.index_valuation == constructed.index_valuation
        checked += 1


def test_disc_identity():
    f = X**4 - 2
    assert disc_identity_check(f, 2, power_basis(2, 4))
    f = X**4 + 2 * X**2 + 4
    b = saturate(f, 2)
    assert disc_identity_check(f, 2, b)
    assert basis_discriminant(f, power_basis(2, 4)) == f.discriminant()


def test_gram_is_integral_on_orders():
    f = X**4 + 2 * X**2 + 4
    for basis in (power_basis(2, 4), saturate(f, 2)):
        for row in gram_matrix(f, basis):
            for entry in row:
                assert Fraction(entry).denominator == 1


def test_ring_closed():
    f = X**4 + 2 * X**2 + 4
    assert is_ring_closed(f, power_basis(2, 4), 2)
    assert is_ring_closed(f, saturate(f, 2), 2)
    # theta/2 is not even integral for x^4-2; the spanned module is not a ring
    from pintbasis.basis import triangularize

    f = X**4 - 2
    fake = triangularize(
        [BasisElement(IntPoly([1]), 0), BasisElement(X, 1),
         BasisElement(X**2, 0), BasisElement(X**3, 0)], 2, 4)
    assert not is_ring_closed(f, fake, 2)


def _ring_closed_fractions(f, basis, p):
    """Reference for is_ring_closed: the back-substitution over Fractions."""
    n = basis.n
    vecs = [[Fraction(e.numerator[k], p**e.denom_exp) for k in range(n)]
            for e in basis.elements]
    for i in range(n):
        for j in range(i, n):
            ei, ej = basis.elements[i], basis.elements[j]
            num = (ei.numerator * ej.numerator) % f
            den = p ** (ei.denom_exp + ej.denom_exp)
            target = [Fraction(num[k], den) for k in range(n)]
            for k in range(n - 1, -1, -1):
                coord = target[k] / vecs[k][k]
                if coord and vp(coord.denominator, p) > 0:
                    return False
                target = [t - coord * v for t, v in zip(target, vecs[k])]
            assert not any(target)
    return True


def _combine(terms, p):
    """sum of r * (num / p^d) over (r, num, d) as one BasisElement."""
    den = max(d for _, _, d in terms)
    num = IntPoly()
    for r, t, d in terms:
        num = num + r * t * p ** (den - d)
    return BasisElement(num, den)


def test_ring_closed_matches_fraction_reference():
    """Saturated bases are closed; mixing an element with a p-unit multiple
    of itself and integer multiples of lower elements spans the same module,
    and adjoining w_l/p to w_k (l < k) or dividing w_k by p usually leaves
    the ring.  Every verdict must equal the Fraction back-substitution."""
    rng = random.Random(29)
    verdicts = Counter()
    done = 0
    while done < 30:
        n = rng.choice([3, 4, 5])
        p = rng.choice([2, 3, 5])
        f = IntPoly([p ** rng.randint(0, 3) * rng.randint(-6, 6) for _ in range(n)] + [1])
        if f.discriminant() == 0 or is_irreducible(f) is not True:
            continue
        done += 1
        sat = saturate(f, p)
        assert is_ring_closed(f, sat, p) is True
        for _ in range(6):
            els = list(sat.elements)
            k = rng.randrange(1, n)
            w = [(e.numerator, e.denom_exp) for e in els]
            kind = rng.choice(["same", "adjoin", "divide"])
            if kind == "same":
                u = rng.choice([u for u in (-3, -2, -1, 1, 2, 3, 7) if u % p])
                terms = [(u, *w[k])] + [(rng.randint(-5, 5), *w[l]) for l in range(k)]
                els[k] = _combine(terms, p)
            elif kind == "adjoin":
                l = rng.randrange(k)
                els[k] = _combine([(1, *w[k]), (rng.randint(1, p - 1), w[l][0], w[l][1] + 1)], p)
            else:
                els[k] = BasisElement(w[k][0], w[k][1] + 1)
            basis = PIntegralBasis(p, tuple(els), 0)
            verdict = is_ring_closed(f, basis, p)
            assert verdict is _ring_closed_fractions(f, basis, p), (f.render(), p, kind)
            if kind == "same":
                assert verdict is True
            verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def test_saturate_degree_5_and_6():
    """The oracle is degree-agnostic; cross it against the generic
    construction on quintics and sextics at small p."""
    from pintbasis.errors import NotRegularError
    from pintbasis.factor import is_irreducible

    rng = random.Random(18)
    done = 0
    while done < 12:
        n = rng.choice([5, 6])
        p = rng.choice([2, 3])
        f = IntPoly([p**rng.randint(0, 2) * rng.randint(-9, 9) for _ in range(n)] + [1])
        if f.degree != n or f.discriminant() == 0 or is_irreducible(f) is not True:
            continue
        try:
            constructed = p_integral_basis_regular(f, p)
        except NotRegularError:
            continue
        done += 1
        assert saturate(f, p).elements == constructed.elements, (f.render(), p)


def test_saturate_deterministic_and_stable():
    """Re-running saturation reproduces the identical basis, and no further
    p-shrinkable element exists in its output (the terminating sweep)."""
    from pintbasis.oracle import _kernel_mod_p, _projective_tuples, gram_matrix

    for f, p in ((X**4 + 2 * X**2 + 4, 2), (IntPoly.monic_quartic(1, 0, 50), 5),
                 (X**4 - 2, 2)):
        b1 = saturate(f, p)
        b2 = saturate(f, p)
        assert b1.elements == b2.elements
        kernel = _kernel_mod_p(gram_matrix(f, b1), p)
        for combo in _projective_tuples(len(kernel), p):
            c = [sum(k[i] * t for k, t in zip(kernel, combo)) % p for i in range(4)]
            den = max((e.denom_exp for ci, e in zip(c, b1.elements) if ci), default=0)
            num = IntPoly()
            for ci, el in zip(c, b1.elements):
                if ci:
                    num = num + ci * el.numerator * p ** (den - el.denom_exp)
            if num.is_zero():
                continue
            assert not is_integral(f, BasisElement(num, den + 1), p)


def test_saturate_rejects_repeated_factor():
    # (x^2+x+1)^2 has disc 0, so v_p(disc) is infinite
    with pytest.raises(NotIrreducibleError, match="has a repeated factor"):
        saturate(parse_poly("x^4+2x^3+3x^2+2x+1"), 5)
