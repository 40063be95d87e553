import random
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pintbasis.factor import (
    _WITNESS_PRIMES,
    _squarefree_witness,
    factor_mod_p,
    integer_roots,
    is_irreducible,
    is_irreducible_mod_p,
    is_irreducible_quartic,
    sanity_check_irreducible,
)
from pintbasis.errors import NotIrreducibleError
from pintbasis.fq import DEFAULT_SEED, FqField, factor_fqpoly
from pintbasis.intpoly import IntPoly
from pintbasis.newton import SideData

from reference import ord_mod_p, quartic_is_reducible

X = IntPoly([0, 1])


def _coeff(fq, ints):
    """The kernel coefficient with the given F_p coordinates in t."""
    if fq.arith.k == 1:
        return ints[0]
    while ints and not ints[-1]:
        ints = ints[:-1]
    return tuple(ints)


def _elements(fq):
    """Every coefficient of the field (small fields only)."""
    return [_coeff(fq, list(rep)) for rep in product(range(fq.p), repeat=fq.arith.k)]


def test_field_axioms_random():
    rng = random.Random(5)
    for p, mod in ((2, (1, 1, 1)), (5, (2, 0, 1)), (3, (1, 2, 0, 1)), (7, (0, 1))):
        fq = FqField(p, mod)
        ar = fq.arith
        add, mul = ar.cadd, ar.cmul
        elems = _elements(fq)
        assert len(set(elems)) == ar.q == p ** (len(mod) - 1)
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, ar.zero) == a
            assert mul(a, ar.one) == a
            if a:
                assert mul(a, ar.cinv(a)) == ar.one


def test_frobenius_is_additive_and_multiplicative():
    fq = FqField(5, (2, 0, 1))  # F_25
    ar = fq.arith
    elems = _elements(fq)
    rng = random.Random(6)

    def frobenius(a):
        return ar.cpow(a, fq.p)

    def pth_root(a):
        return ar.cpow(a, ar.q // fq.p)

    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert frobenius(ar.cadd(a, b)) == ar.cadd(frobenius(a), frobenius(b))
        assert frobenius(ar.cmul(a, b)) == ar.cmul(frobenius(a), frobenius(b))
        assert frobenius(pth_root(a)) == a


def test_elem_and_render():
    f25 = FqField(5, (2, 0, 1))  # t^2 = -2
    assert f25.elem(IntPoly([7, 6, 5])) == (2, 1)  # 5t^2+6t+7 = t+2
    assert f25.elem(IntPoly([5, 10])) == ()
    assert f25.elem(IntPoly([0, 0, 1])) == (3,)
    f5 = FqField(5, X + 2)  # x = -2
    assert f5.elem(IntPoly([3, 1])) == 1 and f5.elem(IntPoly([2, 1])) == 0
    assert f5.render([2, 0, 1]) == "y^2 + 2"
    assert f5.render([4, 1]) == "y + 4"
    assert f5.render([0, 3, 0, 1]) == "y^3 + 3*y"
    assert f5.render([]) == "0"
    assert f25.render([(0, 2), (1,)]) == "y + (2*t)"
    assert f25.render([(1, 2), (0, 1), (1,)]) == "y^2 + (t)*y + (2*t+1)"
    assert f25.render([(3,), (), (2, 1)]) == "(t+2)*y^2 + 3"


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


def _separable(fq, r):
    """The separability test of the residual data of a side."""
    return SideData(None, r, fq).separable


def test_separability_over_fq():
    f2 = FqField(2, (0, 1))
    assert _separable(f2, [1, 1, 1])  # y^2+y+1
    assert not _separable(f2, [1, 0, 1])  # (y+1)^2
    f5 = FqField(5, (0, 1))
    assert _separable(f5, [2, 0, 1])  # y^2+2
    f3 = FqField(3, (0, 1))
    assert not _separable(f3, [1, 0, 0, 1])  # y^3+1 = (y+1)^3
    f9 = FqField(3, (1, 0, 1))  # t^2 = -1
    assert _separable(f9, [(1,), (), (1,)])  # y^2+1 = (y+t)(y-t)
    assert not _separable(f9, [(2,), (0, 2), (1,)])  # y^2+2ty-1 = (y+t)^2


def test_factor_fqpoly_random_reassembly():
    rng = random.Random(8)
    fields = [FqField(2, (0, 1)), FqField(2, (1, 1, 1)), FqField(3, (0, 1)),
              FqField(5, (0, 1)), FqField(5, (2, 0, 1)), FqField(13, (0, 1))]
    for _ in range(200):
        fq = rng.choice(fields)
        ar = fq.arith
        elems = _elements(fq)
        r = [rng.choice(elems) for _ in range(rng.randint(1, 6))] + [ar.one]
        unit, factors = factor_fqpoly(fq, r)
        prod = [unit]
        for g, m in factors:
            assert g[-1] == ar.one
            for _ in range(m):
                prod = ar.mul(prod, g)
        assert prod == r


def _brute_force_irreducible(fq, g):
    """No monic divisor of degree 1..deg(g)/2, by enumeration."""
    ar = fq.arith
    elems = _elements(fq)
    for d in range(1, (len(g) - 1) // 2 + 1):
        for low in product(elems, repeat=d):
            if not ar.rem(g, list(low) + [ar.one]):
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
        return [rng.randrange(fq.p) for _ in range(fq.arith.k)]

    lead = elem()
    while not any(lead):
        lead = elem()
    return [_coeff(fq, elem()) for _ in range(degree)] + [_coeff(fq, lead)]


def _inseparable(fq, rng):
    """t(y^p), sometimes times the square of a linear factor."""
    p, ar = fq.p, fq.arith
    t = _random_poly(fq, rng, rng.randint(1, 2))
    coeffs = []
    for c in t:
        coeffs += [c] + [ar.zero] * (p - 1)
    r = coeffs[:(len(t) - 1) * p + 1]
    if rng.random() < 0.5:
        g = _random_poly(fq, rng, 1)
        r = ar.mul(ar.mul(r, g), g)
    return r


@pytest.mark.parametrize("p,modulus", FACTOR_FIELDS)
def test_factor_fqpoly_properties(p, modulus, monkeypatch):
    fq = FqField(p, modulus)
    ar = fq.arith
    rng = random.Random(p * 1000 + len(modulus))
    tiny = ar.q <= 9
    inputs = [_random_poly(fq, rng, rng.randint(1, 7)) for _ in range(25)]
    for _ in range(10):
        g = _random_poly(fq, rng, rng.randint(1, 2))
        h = _random_poly(fq, rng, rng.randint(1, 3))
        inputs.append(ar.mul(ar.mul(ar.mul(g, g), h), g))
    if p <= 7:
        inputs += [_inseparable(fq, rng) for _ in range(10)]
    for r in inputs:
        unit, factors = factor_fqpoly(fq, r)
        assert unit == r[-1]
        prod = [unit]
        for g, m in factors:
            assert g[-1] == ar.one and len(g) >= 2 and m >= 1
            if tiny:
                assert _brute_force_irreducible(fq, g), (r, g)
            for _ in range(m):
                prod = ar.mul(prod, g)
        assert prod == r
        assert len({tuple(g) for g, _ in factors}) == len(factors)
        if ar.k == 1 and fq.modulus == (0, 1):
            assert all(is_irreducible_mod_p(IntPoly(g), p) for g, _ in factors)
            single = len(factors) == 1 and factors[0][1] == 1
            assert is_irreducible_mod_p(IntPoly(r), p) == (single and len(r) >= 2)
        # the factorization is unique and sorted, so the random stream of
        # the splitting cannot change it
        for seed in (0, 1, 12345):
            monkeypatch.setattr("pintbasis.fq.DEFAULT_SEED", seed)
            assert factor_fqpoly(fq, r) == (unit, factors)
        monkeypatch.undo()


def test_factor_fqpoly_default_seed_matches_explicit(monkeypatch):
    # the splitting builds its generator from DEFAULT_SEED at call time, so
    # setting the constant is how test_factor_fqpoly_properties varies it
    fq = FqField(5, (2, 0, 1))
    r = _random_poly(fq, random.Random(3), 6)
    expected = factor_fqpoly(fq, r)
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Recording)
    assert factor_fqpoly(fq, r) == expected and seeds == [DEFAULT_SEED]
    monkeypatch.setattr("pintbasis.fq.DEFAULT_SEED", 7)
    assert factor_fqpoly(fq, r) == expected and seeds == [DEFAULT_SEED, 7]


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


def _guard_passes(f):
    try:
        sanity_check_irreducible(f)
    except NotIrreducibleError:
        return False
    return True


def test_quartic_guards_agree():
    """is_irreducible, is_irreducible_quartic and sanity_check_irreducible
    give one verdict on x^4+ax^2+bx+c, over random triples and the shapes
    each of their tests exists for, and it is the verdict of a search for
    linear and quadratic factors by division.  is_irreducible and the guard
    give that verdict on quartics with an x^3 term as well."""
    rng = random.Random(21)
    triples = [tuple(rng.randint(-40, 40) for _ in range(3)) for _ in range(300)]
    for _ in range(40):
        r, s, t, u, v, w = (rng.randint(-6, 6) for _ in range(6))
        triples.append((r, s, 0))  # c = 0
        triples.append((s - r * r, t - r * s, -r * t))  # (x-r)(x^3+rx^2+sx+t)
        triples.append((v + w - u * u, u * (w - v), v * w))  # (x^2+ux+v)(x^2-ux+w)
        triples.append((2 * v, 0, v * v))  # (x^2+v)^2
    verdicts = set()
    for a, b, c in triples:
        verdict = is_irreducible_quartic(a, b, c)
        f = IntPoly.monic_quartic(a, b, c)
        assert is_irreducible(f) is verdict, (a, b, c)
        assert _guard_passes(f) is verdict, (a, b, c)
        assert quartic_is_reducible(f) is not verdict, (a, b, c)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    quartics = [IntPoly([rng.randint(-20, 20) for _ in range(4)] + [1]) for _ in range(200)]
    for _ in range(40):
        r, s, t, u, v, w = (rng.randint(-6, 6) for _ in range(6))
        quartics.append((X - r) * (X**3 + s * X**2 + t * X + u))
        quartics.append((X**2 + r * X + s) * (X**2 + t * X + u))
        quartics.append((X**2 + u * X + v) ** 2)
    quartics += [X**4 + 3 * X**3 + 10 * X**2 + 11 * X + 15, X**4 + 3 * X**3 + 3 * X - 1]
    verdicts = set()
    for f in quartics:
        verdict = not quartic_is_reducible(f)
        assert is_irreducible(f) is verdict, f.render()
        assert _guard_passes(f) is verdict, f.render()
        verdicts.add((verdict, f[3] == 0))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_is_irreducible_generic():
    assert is_irreducible(X**4 - 2) is True
    assert is_irreducible(X**5 - X - 1) is True
    assert is_irreducible((X - 3) * (X**4 + X + 1)) is False  # rational root
    # degree patterns cannot certify reducibility, only rule factors out
    assert is_irreducible((X**2 + 1) * (X**3 + X + 1)) in (False, None)
    assert is_irreducible(X**6 + X + 1) in (True, None)


_COEFFS = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_COEFFS, _COEFFS, st.booleans())
@example([-6469693230, 0], [], False)  # x^2 - 6469693230: every q divides disc
@example([1, 1], [1], True)  # (x^2+x+1)^2 (x+1): a repeated factor
def test_squarefree_witness_agrees_with_the_discriminant(gs, hs, square):
    """A witness q exists, f mod q squarefree, exactly when some q in
    _WITNESS_PRIMES does not divide disc f, so a witness proves disc f != 0
    and a repeated factor never has one.  f is monic of degree 2-12, drawn
    as g h or, with a repeated factor, as g^2 h."""
    g, h = IntPoly(gs + [1]), IntPoly(hs + [1])
    f = g * g * h if square else g * h
    assume(f.degree <= 12)
    disc = f.discriminant()
    witness = _squarefree_witness(f)
    assert (witness is not None) == any(disc % q for q in _WITNESS_PRIMES), f.render()
    if witness is not None:
        assert disc % witness
    if square:
        assert witness is None and disc == 0
