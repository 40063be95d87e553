import random
from itertools import product

import pytest

from pintbasis.factor import (
    factor_mod_p,
    integer_roots,
    is_irreducible,
    is_irreducible_mod_p,
    is_irreducible_quartic,
    ord_mod_p,
)
from pintbasis.fq import DEFAULT_SEED, FqField, FqPoly, factor_fqpoly, is_separable
from pintbasis.intpoly import IntPoly

X = IntPoly([0, 1])


def test_field_axioms_random():
    rng = random.Random(5)
    for p, mod in ((2, (1, 1, 1)), (5, (2, 0, 1)), (3, (1, 2, 0, 1)), (7, (0, 1))):
        fq = FqField(p, mod)
        elems = list(fq.elements())
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + fq.zero() == a
            assert a * fq.one() == a
            if not a.is_zero():
                assert a * a.inverse() == fq.one()


def test_frobenius_is_additive_and_multiplicative():
    fq = FqField(5, (2, 0, 1))  # F_25
    elems = list(fq.elements())
    rng = random.Random(6)
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()
        assert a.pth_root().frobenius() == a


def test_factor_mod_p_examples():
    f = X**4 + 2 * X**2 + 4
    assert factor_mod_p(f, 2) == [(X, 4)]
    f = IntPoly.monic_quartic(1, 0, 50)
    # x^4 + x^2 = x^2 (x^2+1) mod 5, and x^2+1 = (x+2)(x-2) since -1 = 2^2 mod 5
    fac = dict(factor_mod_p(f, 5))
    assert fac[X] == 2
    assert fac[X + 2] == 1 and fac[X - 2] == 1
    f = X**4 + X + 1
    assert factor_mod_p(f, 2) == [(X**4 + X + 1, 1)]
    f = IntPoly.monic_quartic(0, 1, 9)  # x^4+x+9 = x(x+2)^2(x+... check mod 3
    for phi, m in factor_mod_p(f, 3):
        assert phi.monic


def test_factor_mod_p_reassembles():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 13])
        f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [1])
        if f.vp(p) != 0:
            continue
        factors = factor_mod_p(f, p)
        prod = IntPoly([1])
        degsum = 0
        for phi, m in factors:
            prod = prod * phi**m
            degsum += phi.degree * m
            assert is_irreducible_mod_p(phi, p)
            assert all(abs(c) <= p // 2 or (p == 2 and c in (0, 1)) for c in phi.coeffs)
        assert ((prod - f).vp(p)) is not None and (prod - f).reduce_mod(p).is_zero()
        fbar_deg = max(i for i, c in enumerate(f.coeffs) if c % p)
        assert degsum == fbar_deg


def test_ord_mod_p():
    f = IntPoly.monic_quartic(1, 0, 50)
    assert ord_mod_p(f, X, 5) == 2
    assert ord_mod_p(f, X**2 + 1, 5) == 1
    assert ord_mod_p(f, X + 1, 5) == 0


def test_separability_over_fq():
    f2 = FqField(2, (0, 1))
    assert is_separable(FqPoly(f2, [1, 1, 1]))  # y^2+y+1
    assert not is_separable(FqPoly(f2, [1, 0, 1]))  # (y+1)^2
    f5 = FqField(5, (0, 1))
    assert is_separable(FqPoly(f5, [2, 0, 1]))  # y^2+2
    f3 = FqField(3, (0, 1))
    assert not is_separable(FqPoly(f3, [1, 0, 0, 1]))  # y^3+1 = (y+1)^3


def test_factor_fqpoly_random_reassembly():
    rng = random.Random(8)
    fields = [FqField(2, (0, 1)), FqField(2, (1, 1, 1)), FqField(3, (0, 1)),
              FqField(5, (0, 1)), FqField(5, (2, 0, 1)), FqField(13, (0, 1))]
    for _ in range(200):
        fq = rng.choice(fields)
        elems = list(fq.elements())
        coeffs = [rng.choice(elems) for _ in range(rng.randint(1, 6))] + [fq.one()]
        r = FqPoly(fq, coeffs)
        unit, factors = factor_fqpoly(r)
        prod = FqPoly(fq, [unit])
        for g, m in factors:
            assert g.lc() == fq.one()
            for _ in range(m):
                prod = prod * g
        assert prod == r


def _brute_force_irreducible(g):
    """No monic divisor of degree 1..deg(g)/2, by enumeration."""
    fq = g.field
    elems = list(fq.elements())
    for d in range(1, g.degree // 2 + 1):
        for low in product(elems, repeat=d):
            if (g % FqPoly(fq, list(low) + [fq.one()])).is_zero():
                return False
    return True


# F_p and F_{p^k}, moduli irreducible mod p
FACTOR_FIELDS = [
    (2, (0, 1)), (2, (1, 1, 1)), (2, (1, 1, 0, 1)), (3, (0, 1)), (3, (1, 0, 1)),
    (3, (1, 2, 0, 1)), (5, (0, 1)), (5, (2, 0, 1)), (7, (0, 1)), (7, (1, 0, 1)),
    (101, (0, 1)), (101, (2, 0, 1)), (10**6 + 3, (0, 1)), (10**6 + 3, (1, 0, 1)),
]


def _random_poly(fq, rng, degree):
    def elem():
        return [rng.randrange(fq.p) for _ in range(fq.degree)]

    lead = elem()
    while not any(lead):
        lead = elem()
    return FqPoly(fq, [elem() for _ in range(degree)] + [lead])


def _inseparable(fq, rng):
    """t(y^p), sometimes times the square of a linear factor."""
    p = fq.p
    t = _random_poly(fq, rng, rng.randint(1, 2))
    coeffs = []
    for i in range(t.degree + 1):
        coeffs += [t[i]] + [fq.zero()] * (p - 1)
    r = FqPoly(fq, coeffs[:t.degree * p + 1])
    if rng.random() < 0.5:
        g = _random_poly(fq, rng, 1)
        r = r * g * g
    return r


@pytest.mark.parametrize("p,modulus", FACTOR_FIELDS)
def test_factor_fqpoly_properties(p, modulus):
    fq = FqField(p, modulus)
    rng = random.Random(p * 1000 + len(modulus))
    tiny = fq.order <= 9
    inputs = [_random_poly(fq, rng, rng.randint(1, 7)) for _ in range(25)]
    for _ in range(10):
        g = _random_poly(fq, rng, rng.randint(1, 2))
        h = _random_poly(fq, rng, rng.randint(1, 3))
        inputs.append(g * g * h * g)
    if p <= 7:
        inputs += [_inseparable(fq, rng) for _ in range(10)]
    for r in inputs:
        unit, factors = factor_fqpoly(r)
        assert unit == r.lc()
        prod = FqPoly(fq, [unit])
        for g, m in factors:
            assert g.lc() == fq.one() and g.degree >= 1 and m >= 1
            if tiny:
                assert _brute_force_irreducible(g), (r, g)
            for _ in range(m):
                prod = prod * g
        assert prod == r
        assert len({repr(g) for g, _ in factors}) == len(factors)
        if fq.degree == 1 and fq.modulus == (0, 1):
            def lift(poly):
                return IntPoly([c.scalar() for c in poly.coeffs])

            assert all(is_irreducible_mod_p(lift(g), p) for g, _ in factors)
            single = len(factors) == 1 and factors[0][1] == 1
            assert is_irreducible_mod_p(lift(r), p) == (single and r.degree >= 1)
        for seed in (0, 1, 12345):
            assert factor_fqpoly(r, seed) == (unit, factors)


def test_factor_fqpoly_default_seed_matches_explicit():
    fq = FqField(5, (2, 0, 1))
    r = _random_poly(fq, random.Random(3), 6)
    assert factor_fqpoly(r) == factor_fqpoly(r, DEFAULT_SEED)


def test_integer_roots():
    assert integer_roots((X - 3) * (X + 5) * (X**2 + 1)) == [-5, 3]
    assert integer_roots(X**3) == [0]
    assert integer_roots(X**2 + 1) == []


def test_quartic_irreducibility():
    assert is_irreducible_quartic(0, 0, -2)  # x^4 - 2
    assert is_irreducible_quartic(1, 0, 50)
    assert is_irreducible_quartic(0, 0, 1)  # 8th cyclotomic
    assert not is_irreducible_quartic(1, 0, 1)  # (x^2+x+1)(x^2-x+1)
    assert not is_irreducible_quartic(1, 0, -6)  # (x^2-2)(x^2+3)
    assert not is_irreducible_quartic(0, 0, -1)  # root 1


def test_quartic_irreducibility_against_products():
    rng = random.Random(9)
    # products of two quadratics with no x^3 term must be flagged reducible
    for _ in range(200):
        u = rng.randint(-6, 6)
        v = rng.randint(-6, 6)
        w = rng.randint(-6, 6)
        f = (X**2 + u * X + v) * (X**2 - u * X + w)
        assert not is_irreducible_quartic(f[2], f[1], f[0])
    # products with a linear factor
    for _ in range(200):
        r = rng.randint(-6, 6)
        g = X**3 + rng.randint(-6, 6) * X + rng.randint(-6, 6)
        f = (X - r) * g
        if f[3] != 0:
            continue
        assert not is_irreducible_quartic(f[2], f[1], f[0])


def test_is_irreducible_generic():
    assert is_irreducible(X**4 - 2) is True
    assert is_irreducible(X**5 - X - 1) is True
    assert is_irreducible((X - 3) * (X**4 + X + 1)) is False  # rational root
    # degree patterns cannot certify reducibility, only rule factors out
    assert is_irreducible((X**2 + 1) * (X**3 + X + 1)) in (False, None)
    assert is_irreducible(X**6 + X + 1) in (True, None)
