import random
from collections import Counter
from fractions import Fraction

import pytest

from pintbasis.errors import InconsistentError, NotRegularError, RankDeficientError
from pintbasis.intpoly import IntPoly
from pintbasis.newton import LocalAnalysis
from pintbasis.basis import (
    BasisElement,
    _decomposition,
    decomposition_type,
    p_integral_basis_regular,
    power_basis,
    triangularize,
)

from reference import fraction_triangularize, ind_p_lower_bound, vp_frac
from test_oracle import _det_fraction

X = IntPoly([0, 1])


def test_triangularize_power_basis_any_order():
    els = [BasisElement(X**3, 0), BasisElement(IntPoly([1]), 0),
           BasisElement(X**2, 0), BasisElement(X, 0)]
    b = triangularize(els, 2, 4)
    assert b.index_valuation == 0
    assert [e.numerator for e in b.elements] == [IntPoly([1]), X, X**2, X**3]
    assert all(e.denom_exp == 0 for e in b.elements)


def test_triangularize_quotient_family():
    els = [BasisElement(IntPoly([1]), 0), BasisElement(X, 0),
           BasisElement(X**2 + 2, 1), BasisElement(X**3 + 2 * X, 1)]
    b = triangularize(els, 2, 4)
    assert b.index_valuation == 2
    assert b.elements[2] == BasisElement(X**2, 1)  # (x^2+2)/2 reduces to x^2/2
    assert b.elements[3] == BasisElement(X**3, 1)


def test_triangularize_rank_deficient():
    els = [BasisElement(X, 0)] * 4
    with pytest.raises(RankDeficientError):
        triangularize(els, 2, 4)
    with pytest.raises(RankDeficientError):
        triangularize([BasisElement(X, 0), BasisElement(X, 1),
                       BasisElement(IntPoly([1]), 0), BasisElement(2 * X, 0)], 2, 4)


def test_triangularize_module_invariance():
    """Row-mixing the generators never changes the canonical form."""
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        els = [BasisElement(IntPoly([1]), 0), BasisElement(X, rng.randint(0, 1)),
               BasisElement(X**2 + rng.randint(0, 8), rng.randint(0, 2)),
               BasisElement(X**3 + rng.randint(0, 8) * X, rng.randint(0, 2))]
        b1 = triangularize(els, p, 4)
        # replace a generator by itself plus a Z-combination of the others
        mixed = list(els)
        i, j = rng.sample(range(4), 2)
        d = els[i].denom_exp - els[j].denom_exp
        if d >= 0:
            num = mixed[i].numerator + rng.randint(1, 5) * p**d * mixed[j].numerator
            mixed[i] = BasisElement(num, els[i].denom_exp)
            b2 = triangularize(mixed, p, 4)
            assert b1.elements == b2.elements
            assert b1.index_valuation == b2.index_valuation


def _coords(e, p, n):
    return [Fraction(e.numerator[k], p**e.denom_exp) for k in range(n)]


def _element(vec, p):
    """The element with power-basis coordinates vec (p-power denominators)."""
    e = max([0] + [-vp_frac(c, p) for c in vec if c])
    return BasisElement(IntPoly([int(c * p**e) for c in vec]), e)


def _combination(rng, els, p, n):
    """An integer combination of els; some coefficients carry the unit p + 1."""
    vec = [Fraction(0)] * n
    for e in els:
        c = rng.randint(-3, 3) * rng.choice([1, 1, p + 1])
        vec = [a + c * x for a, x in zip(vec, _coords(e, p, n))]
    return _element(vec, p)


def _mixed(rng, els, p, n):
    """els under a unimodular Z_(p) row mixing: integer row additions,
    scaling by units prime to p, and a shuffle."""
    vecs = [_coords(e, p, n) for e in els]
    for _ in range(2 * len(vecs)):
        i, j = rng.randrange(len(vecs)), rng.randrange(len(vecs))
        if i != j:
            c = rng.randint(-4, 4)
            vecs[i] = [a + c * b for a, b in zip(vecs[i], vecs[j])]
        else:
            u = rng.choice([-1, p - 1, p + 1, 2 * p + 1])
            vecs[i] = [u * a for a in vecs[i]]
    rng.shuffle(vecs)
    return [_element(v, p) for v in vecs]


def test_triangularize_against_independent_arithmetic():
    """Random families with non-monic leading coefficients, checked by
    Fraction arithmetic that shares no code with triangularize: the index
    is n*E - v_p(det) for the rows cleared to p^E, every input has
    p-integral coordinates in the result, the result depends only on the
    Z_(p)-span of the input, and families of rank < n are rejected."""
    rng = random.Random(21)
    full = deficient = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5, 101])
        n = rng.randint(1, 6)
        els = []
        for _ in range(n):
            d = rng.randint(0, n - 1)
            lc = rng.choice([1, -1, rng.randint(2, 3 * p), p * rng.randint(1, 3)])
            coeffs = [rng.randint(-p * p, p * p) for _ in range(d)] + [lc]
            els.append(BasisElement(IntPoly(coeffs), rng.randint(0, 3)))
        E = max(e.denom_exp for e in els)
        det = _det_fraction([[c * p**E for c in _coords(e, p, n)] for e in els])
        if det == 0:
            deficient += 1
            for family in (els, els + [_combination(rng, els, p, n)]):
                with pytest.raises(RankDeficientError):
                    triangularize(family, p, n)
            continue
        full += 1
        b = triangularize(els, p, n)
        assert b.index_valuation == n * E - vp_frac(det, p)
        vecs = [_coords(e, p, n) for e in b.elements]
        for e in els:
            target = _coords(e, p, n)
            for k in range(n - 1, -1, -1):
                coord = target[k] / vecs[k][k]
                assert coord == 0 or vp_frac(coord, p) >= 0
                target = [t - coord * v for t, v in zip(target, vecs[k])]
            assert not any(target)
        for family in (_mixed(rng, els, p, n), els + [_combination(rng, els, p, n)]):
            same = triangularize(family, p, n)
            assert (same.elements, same.index_valuation) == (b.elements, b.index_valuation)
        # n + 1 elements of rank n - 1: drop one, add two combinations
        if n > 1:
            rest = els[1:]
            family = rest + [_combination(rng, rest, p, n) for _ in range(2)]
            with pytest.raises(RankDeficientError):
                triangularize(family, p, n)
    assert full > 100 and deficient > 30


def _p_unit(rng, p):
    """A p-unit of either sign: 1, a small one, or one of up to 40 bits."""
    u = rng.choice([1, 1, rng.randint(2, 3 * p), rng.getrandbits(40)])
    return rng.choice([1, -1]) * (u if u % p else u + 1)


def test_triangularize_matches_the_fraction_reference():
    """The integer Hermite form equals the Fraction reference element for
    element, with the same index and generators, on seeded families at
    p in {2, 3, 5, 101, 10007, 10^6+3} and n = 2..17: one element per
    degree with leading coefficient u*p^k for p-units u of either sign and
    up to 40 bits, half of them mixed by unimodular Z_(p) row operations;
    the modules spanned by (p^k theta)^j / p^e_j with e_j < kj for j > 0,
    such as Z[p theta], which do not contain Z[theta]; and n - 1 elements
    with two combinations of them, which span rank n - 1 and are rejected
    by both."""
    rng = random.Random(24)
    primes = (2, 3, 5, 101, 10007, 10**6 + 3)
    kinds = Counter()
    for trial in range(420):
        p, n = primes[trial % len(primes)], rng.randint(2, 17)
        kind = ("triangular", "scaled", "deficient")[trial // len(primes) % 3]
        if kind == "scaled":
            k = rng.randint(1, 2)
            es = [0] + [rng.randint(0, k * j - 1) for j in range(1, n)]
            els = [BasisElement(IntPoly.x(j) * p ** (k * j), es[j]) for j in range(n)]
        else:
            els = [BasisElement(IntPoly([rng.randint(-p**3, p**3) for _ in range(d)]
                                        + [_p_unit(rng, p) * p ** rng.randint(0, 2)]),
                                rng.randint(0, 3)) for d in range(n)]
        if kind == "deficient":
            del els[rng.randrange(n)]
            els += [_combination(rng, els, p, n) for _ in range(2)]
        if rng.random() < 0.5:
            els = _mixed(rng, els, p, n)
            kind += " mixed"
        kinds[kind] += 1
        if kind.startswith("deficient"):
            for tri in (fraction_triangularize, triangularize):
                with pytest.raises(RankDeficientError):
                    tri(els, p, n)
            continue
        got, ref = triangularize(els, p, n), fraction_triangularize(els, p, n)
        assert got.elements == ref.elements, (p, n, kind)
        assert (got.index_valuation, got.generators) == (ref.index_valuation, ref.generators)
        if kind.startswith("scaled"):
            assert got.index_valuation == sum(e - k * j for j, e in enumerate(es)) < 0
    assert len(kinds) == 6 and min(kinds.values()) >= 50, kinds


def test_basis_regular_examples():
    b = p_integral_basis_regular(X**4 - 2, 2)
    assert b.render("t") == "1, t, t², t³"
    assert b.index_valuation == 0

    b = p_integral_basis_regular(X**4 + 2 * X**2 + 4, 2)
    assert b.index_valuation == 2
    assert b.elements[2] == BasisElement(X**2, 1)
    assert b.elements[3] == BasisElement(X**3, 1)

    b = p_integral_basis_regular(IntPoly.monic_quartic(1, 0, 50), 5)
    assert b.index_valuation == 1
    assert b.elements[3] == BasisElement(X**3 + X, 1)
    assert b.elements[:3] == (BasisElement(IntPoly([1]), 0), BasisElement(X, 0),
                              BasisElement(X**2, 0))


def test_basis_regular_rejects_irregular():
    # x^4+4x^2-4 is irreducible with residual (y+1)^2 on the slope -1/2 side
    with pytest.raises(NotRegularError):
        p_integral_basis_regular(X**4 + 4 * X**2 - 4, 2)


def test_ind_lower_bound_examples():
    assert ind_p_lower_bound(X**4 + 2 * X**2 + 4, 2) == 2
    assert ind_p_lower_bound(X**4 - 2, 2) == 0
    assert ind_p_lower_bound(IntPoly.monic_quartic(1, 0, 50), 5) == 1


def test_decomposition_type_examples():
    d = decomposition_type(X**4 - 2, 2)
    assert d.complete and d.ef_pairs() == [(4, 1)]

    d = decomposition_type(X**4 + 2 * X**2 + 4, 2)
    assert d.complete and d.ef_pairs() == [(2, 2)]

    d = decomposition_type(X**4 + 4 * X + 2, 2)
    assert d.complete and d.ef_pairs() == [(4, 1)]

    # sum e*f = deg f whenever complete
    d = decomposition_type(IntPoly.monic_quartic(1, 0, 50), 5)
    assert d.complete
    assert sum(e * f for e, f in d.ef_pairs()) == 4


def test_decomposition_checks_sum_ef():
    """A complete decomposition with sum e*f != deg f is a program fault:
    x^4+x^2+50 is (x^2+2)x^2 mod 5, and a report that leaves out the lift
    x^2+2 covers only e*f = 2 of the degree 4."""
    report = LocalAnalysis(IntPoly.monic_quartic(1, 0, 50), 5).report([X])
    with pytest.raises(InconsistentError, match=r"^sum of e\*f = 2 differs from deg f = 4$"):
        _decomposition(report)


def test_decomposition_incomplete_reports_unknown():
    d = decomposition_type(X**4 + 4 * X**2 - 4, 2)
    assert not d.complete
    assert any(en.e is None and en.f is None and en.multiplicity > 1 for en in d.entries)


def test_power_basis():
    b = power_basis(3, 5)
    assert b.n == 5 and b.index_valuation == 0


def test_generic_degree_6():
    f = X**6 + 3 * X**2 + 3  # Eisenstein at 3
    b = p_integral_basis_regular(f, 3)
    assert b.index_valuation == 0
    d = decomposition_type(f, 3)
    assert d.complete and d.ef_pairs() == [(6, 1)]


def test_constructed_module_contains_power_basis():
    """The module spanned by the construction contains Z_(p)[theta]: every
    power of theta has p-integral coordinates in the triangular basis."""
    rng = random.Random(16)
    n_done = 0
    while n_done < 30:
        a, b, c = (rng.randint(-40, 40) for _ in range(3))
        p = rng.choice([2, 3, 5])
        f = IntPoly.monic_quartic(a, b, c)
        from pintbasis.factor import is_irreducible_quartic
        from pintbasis.errors import NotRegularError

        if not is_irreducible_quartic(a, b, c):
            continue
        try:
            basis = p_integral_basis_regular(f, p)
        except NotRegularError:
            continue
        n_done += 1
        vecs = []
        for e in basis.elements:
            den = p**e.denom_exp
            vecs.append([Fraction(e.numerator[k], den) for k in range(4)])
        for k in range(4):
            target = [Fraction(1) if i == k else Fraction(0) for i in range(4)]
            for j in range(3, -1, -1):
                coord = target[j] / vecs[j][j]
                assert coord == 0 or vp_frac(coord, p) >= 0, (f.render(), p, k)
                target = [t - coord * v for t, v in zip(target, vecs[j])]
            assert all(t == 0 for t in target)


def test_basis_records_are_immutable_values():
    from pintbasis.basis import BasisElement, PIntegralBasis

    els = (BasisElement(IntPoly([1]), 0), BasisElement(X, 1))
    a = PIntegralBasis(2, els, 1, meta={"case": "A1"})
    b = PIntegralBasis(2, els, 1)
    assert a == b and hash(a) == hash(b)  # meta is not compared
    assert b.meta == {} and PIntegralBasis(2, els, 1).meta is not b.meta
    assert a != PIntegralBasis(3, els, 1)
    with pytest.raises(AttributeError):
        a.p = 3
    with pytest.raises(TypeError):
        BasisElement(X)
