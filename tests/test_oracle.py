import random
from collections import Counter
from fractions import Fraction

import pytest

from pintbasis.arith import vp
from pintbasis.errors import InconsistentError, NotIrreducibleError
from pintbasis.factor import is_irreducible
from pintbasis.intpoly import IntPoly, parse_poly
from pintbasis.oracle import (
    char_poly_of_numerator,
    disc_identity_check,
    gram_matrix,
    is_integral,
    is_ring_closed,
    power_sums,
    round2,
    saturate,
)
from pintbasis.basis import BasisElement, PIntegralBasis, p_integral_basis_regular, power_basis

from reference import basis_discriminant, fraction_gram_matrix

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


def _det_fraction(m):
    """Reference determinant: Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                factor = m[r][c] / m[c][c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return det


def test_basis_discriminant_matches_fraction_determinant():
    """The integer determinant of the numerators' traces over p^(2 sum e_i)
    equals the Fraction determinant of the Gram matrix: on random families
    of n elements with denominators (some of rank < n), on the power basis
    and on the oracle's basis.  The library's integer trace form equals the
    Fraction one wherever that is integral, and raises InconsistentError
    exactly where it is not."""
    rng = random.Random(31)
    zero = integral = fractional = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        p = rng.choice([2, 3, 5, 101])
        f = IntPoly([rng.randint(-20, 20) for _ in range(n)] + [1])
        els = [BasisElement(IntPoly([rng.randint(-p * p, p * p) for _ in range(n)]),
                            rng.randint(0, 3)) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:  # a repeated element: rank < n
            els[-1] = els[0]
        families = [PIntegralBasis(p, tuple(els), 0), power_basis(p, n)]
        if f.discriminant():
            families.append(round2(f, p))
        for basis in families:
            gram = fraction_gram_matrix(f, basis)
            d = basis_discriminant(f, basis)
            assert d == _det_fraction(gram), (f.render(), p, basis)
            zero += d == 0
            if all(x.denominator == 1 for row in gram for x in row):
                assert gram_matrix(f, basis) == gram, (f.render(), p, basis)
                integral += 1
            else:
                with pytest.raises(InconsistentError):
                    gram_matrix(f, basis)
                fractional += 1
    assert zero >= 20 and integral >= 200 and fractional >= 100, (zero, integral, fractional)


def test_gram_is_integral_on_orders():
    f = X**4 + 2 * X**2 + 4
    for basis in (power_basis(2, 4), saturate(f, 2)):
        gram = gram_matrix(f, basis)
        assert all(type(entry) is int for row in gram for entry in row)
        assert gram == fraction_gram_matrix(f, basis)


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


def test_coordinates_match_fraction_solve():
    """The integer back-substitution gives the residues mod p of the
    coordinates a Fraction solve finds, or None exactly when one of them is
    not p-integral, in triangular bases whose pivots carry p-units."""
    from pintbasis.oracle import _coordinates

    rng = random.Random(37)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3, 5, 7])
        els = []
        for k in range(n):
            unit = rng.choice([u for u in (1, 1, -1, 2, 3, -5, 7, 11) if u % p])
            lower = [rng.randint(-p**2, p**2) for _ in range(k)]
            els.append(BasisElement(IntPoly(lower + [unit * p ** rng.randint(0, 2)]),
                                    rng.randint(0, 3)))
        basis = PIntegralBasis(p, tuple(els), 0)
        vecs = [[Fraction(e.numerator[k], p**e.denom_exp) for k in range(n)] for e in els]
        if rng.random() < 0.5:  # an element of the span: every coordinate p-integral
            w = _combine([(rng.randint(-9, 9), e.numerator, e.denom_exp) for e in els], p)
            num, d = w.numerator, w.denom_exp
        else:
            num, d = IntPoly([rng.randint(-p**3, p**3) for _ in range(n)]), rng.randint(0, 4)
        target = [Fraction(num[k], p**d) for k in range(n)]
        expected = [0] * n
        for k in range(n - 1, -1, -1):
            coord = target[k] / vecs[k][k]
            target = [t - coord * v for t, v in zip(target, vecs[k])]
            if coord and vp(coord.denominator, p) > 0:
                expected = None
                break
            expected[k] = coord.numerator * pow(coord.denominator, -1, p) % p
        got = _coordinates(basis, p)(num, d)
        assert got == expected, (basis, num, d)
        verdicts[got is None] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


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


def test_mulmod_matches_intpoly():
    """The flat product a * b mod f equals the IntPoly product reduced mod
    f, for monic f up to degree 9 and coefficients up to 10^12."""
    from pintbasis.oracle import _mulmod

    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 9)
        f = IntPoly([rng.randint(-10**6, 10**6) for _ in range(n)] + [1])
        a, b = ([rng.choice([0, rng.randint(-10**12, 10**12)]) for _ in range(n)]
                for _ in range(2))
        expected = (IntPoly(a) * IntPoly(b)) % f
        assert _mulmod(a, b, f.coeffs) == [expected[k] for k in range(n)], (f, a, b)


def _frobenius_radical(f, order, p, table):
    """The p-radical of the order, as _radical returns it, from the kernel
    of x -> x^p on O/pO with the rows _frobenius gives; for p >= n that
    map is x -> x^q itself."""
    from pintbasis.basis import triangularize
    from pintbasis.oracle import _frobenius, _kernel_mod_p, _lift

    assert p >= order.n
    els = order.elements
    lifts = [_lift(c, els, p) for c in _kernel_mod_p(_frobenius(f, order, p, table), p)]
    return lifts, triangularize([BasisElement(e.numerator * p, e.denom_exp) for e in els]
                                + lifts, p, order.n)


def test_trace_form_radical_equals_frobenius_radical():
    """For p > n the p-radical is the kernel of the trace form mod p and
    also the kernel of x -> x^q, q = p^j >= n.  The trace form route that
    _radical takes gives the same radical, and the same multipliers, as the
    Frobenius kernel built from the order's table and from the powers
    w_i^p, on the power basis and on the p-maximal order of seeded inputs,
    most of them with a nonzero index."""
    from pintbasis.oracle import _multipliers, _radical, _table

    rng = random.Random(43)
    done = nontrivial = 0
    while done < 25:
        p = rng.choice([5, 7, 11, 13])
        n = rng.randint(2, 4)
        phi = X + rng.randint(-2, 2)
        pert = IntPoly([rng.randint(-3, 3) for _ in range(n)])
        f = phi**n + p ** rng.randint(1, 2) * pert + p ** rng.randint(2, 4)
        if f.discriminant() == 0 or is_irreducible(f) is not True:
            continue
        done += 1
        maximal = round2(f, p)
        nontrivial += maximal.index_valuation > 0
        for order in (power_basis(p, n), maximal):
            trace = _radical(f, order, p, None)
            grow = _multipliers(f, *trace, p)
            assert (order.elements == maximal.elements) == (grow == []), (f.render(), p)
            for table in (_table(f, order, p), None):
                frobenius = _frobenius_radical(f, order, p, table)
                assert trace[1].elements == frobenius[1].elements, (f.render(), p)
                assert bool(grow) == bool(_multipliers(f, *frobenius, p))
    assert nontrivial >= 10, nontrivial


def test_round2_from_any_order_reaches_the_maximal_order():
    """Round 2 started from an order with its table ends at the p-maximal
    order Round 2 from Z[theta] finds, and returns the start unchanged
    exactly when the start is that order: from the maximal order itself,
    from Z[theta], and from Z[p theta], which does not contain Z[theta]
    (so the rounds are bounded by the start's own discriminant), on both
    radical routes."""
    from pintbasis.basis import triangularize
    from pintbasis.oracle import _round2, _table

    rng = random.Random(47)
    done = nontrivial = 0
    while done < 20:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        phi = X + rng.randint(-2, 2)
        pert = IntPoly([rng.randint(-3, 3) for _ in range(n)])
        f = phi**n + p ** rng.randint(1, 2) * pert + p ** rng.randint(1, 4)
        disc = f.discriminant()
        if disc == 0 or is_irreducible(f) is not True:
            continue
        done += 1
        maximal = round2(f, p)
        nontrivial += maximal.index_valuation > 0
        below = triangularize([BasisElement(X**k * p**k, 0) for k in range(n)], p, n)
        for order in (maximal, power_basis(p, n), below):
            got = _round2(f, p, disc, (order, _table(f, order, p)))
            assert got.elements == maximal.elements, (f.render(), p, order.render())
            assert (got.elements is order.elements) is (order.elements == maximal.elements)
    assert nontrivial >= 10, nontrivial


def test_round2_degree_19():
    """Round 2 on (x-5)^7 (x+5)^7 (x-3)^5 + 101^2 at p = 101, where the
    radical is the kernel of the trace form, finishes in 0.2 s with the
    generic route's basis and index 8."""
    import time

    f = (X - 5) ** 7 * (X + 5) ** 7 * (X - 3) ** 5 + 101**2
    start = time.perf_counter()
    basis = round2(f, 101)
    elapsed = time.perf_counter() - start
    assert basis.index_valuation == 8
    assert basis.elements == p_integral_basis_regular(f, 101).elements
    assert elapsed < 0.2, elapsed


def test_round2_checks_its_final_order(monkeypatch):
    """Round 2 ends by building the multiplication table of the order it
    returns, on both radical routes: an order that is not a ring, here a
    fake starting order of x^3+x+1 (disc -31, so no round runs), is a
    broken invariant."""
    from pintbasis import oracle
    from pintbasis.errors import InconsistentError

    def fake_start(p, n):
        els = (BasisElement(IntPoly([1]), 0), BasisElement(X, 1), BasisElement(X**2, 0))
        return PIntegralBasis(p, els, 1, els)

    f = X**3 + X + 1
    for p in (2, 5):  # the Frobenius radical (p <= n) and the trace form
        assert round2(f, p).elements == power_basis(p, 3).elements
        monkeypatch.setattr(oracle, "power_basis", fake_start)
        with pytest.raises(InconsistentError, match="not a ring"):
            round2(f, p)
        monkeypatch.undo()
