"""Acceptance suite.

Every criterion is exercised at its stated size and tolerance (exact, zero
failures) and prints one PASS line; any violation fails the test outright.
Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from pintbasis.arith import vp, vp_frac
from pintbasis.errors import NotRegularError
from pintbasis.factor import (
    factor_mod_p,
    is_irreducible,
    is_irreducible_mod_p,
    is_irreducible_quartic,
    ord_mod_p,
)
from pintbasis.intpoly import IntPoly
from pintbasis.newton import (
    index_from_ordinates,
    lattice_point_count,
    newton_polygon,
    ordinates,
    phi_expand,
    phi_index,
    phi_polygon_data,
    principal_part,
)
from pintbasis.oracle import (
    basis_discriminant,
    disc_identity_check,
    is_integral,
    round2,
    saturate,
)
from pintbasis.basis import decomposition_type, ind_p_lower_bound, p_integral_basis_regular
from pintbasis.quartic import iterate_to_regular, quartic_p_integral_basis

X = IntPoly([0, 1])
PRIMES = (2, 3, 5, 7, 13)


def _corpus(seed=12345, size=520, bound=1000):
    """Pseudorandom irreducible quartics with p | disc(f), p in PRIMES."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        d = f.discriminant()
        ps = [p for p in PRIMES if d % p == 0]
        if not ps:
            continue
        out.append((a, b, c, rng.choice(ps)))
    return out


@pytest.fixture(scope="module")
def corpus_results():
    results = []
    for a, b, c, p in _corpus():
        f = IntPoly.monic_quartic(a, b, c)
        basis = quartic_p_integral_basis(a, b, c, p)
        oracle = saturate(f, p)
        results.append((f, p, basis, oracle))
    return results


def test_criterion_1_oracle_equivalence(corpus_results):
    bad = [
        (f.render(), p)
        for f, p, basis, oracle in corpus_results
        if basis.elements != oracle.elements
        or basis.index_valuation != oracle.index_valuation
    ]
    assert not bad, bad[:5]
    print(f"\nACCEPT-1 oracle equivalence: PASS "
          f"({len(corpus_results)}/{len(corpus_results)} quartic == saturation)")


def test_criterion_2_index_identity(corpus_results):
    checked = 0
    for f, p, basis, oracle in corpus_results:
        assert disc_identity_check(f, p, basis), (f.render(), p)
        # fully independent recomputation of both sides
        lhs = vp(f.discriminant(), p)
        rhs = 2 * basis.index_valuation + vp_frac(basis_discriminant(f, basis), p)
        assert lhs == rhs, (f.render(), p)
        checked += 1
    print(f"\nACCEPT-2 index identity v_p(disc f) = 2 ind + v_p(disc basis): "
          f"PASS ({checked} exact)")


def test_criterion_3_generic_regular_path():
    rng = random.Random(777)
    done = 0
    regular_tried = 0
    while done < 200:
        n = rng.choice([4, 5, 6])
        f = IntPoly([rng.randint(-50, 50) for _ in range(n)] + [1])
        p = rng.choice(PRIMES)
        if f.discriminant() == 0 or is_irreducible(f) is not True:
            continue
        try:
            basis = p_integral_basis_regular(f, p)
        except NotRegularError:
            regular_tried += 1
            continue
        done += 1
        for el in basis.elements:
            assert is_integral(f, el, p), (f.render(), p, el)
        for el in basis.generators:
            assert is_integral(f, el, p), (f.render(), p, el)
        assert basis.index_valuation == ind_p_lower_bound(f, p), (f.render(), p)
    print(f"\nACCEPT-3 generic degree-4..6 path: PASS "
          f"(200 p-regular inputs, all elements integral, index = sum of phi-indices)")


GOLDEN_REQUIRED = (
    [f"T2r{i}" for i in range(1, 11)]
    + [f"T4r{i}" for i in range(1, 26)]
    + ["eq10-r1", "eq10-r2", "eq15-r1", "eq15-r2", "eq15-r3", "eq15-r4", "S54"]
)


def test_criterion_4_golden_row_coverage():
    from test_quartic import GOLDEN_ROWS

    rows_hit = {}
    for row, a, b, c, p in GOLDEN_ROWS:
        basis = quartic_p_integral_basis(a, b, c, p)
        oracle = saturate(IntPoly.monic_quartic(a, b, c), p)
        assert basis.elements == oracle.elements, (row, a, b, c, p)
        for r in basis.meta["rows"]:
            rows_hit.setdefault(r, (a, b, c, p))
    # section 5.4 exposes both (Y, nu) pairs
    b16 = quartic_p_integral_basis(10, -120, 45, 2)
    b17 = quartic_p_integral_basis(-54, 296, -307, 2)
    assert b16.meta["Y"] == "5" and b17.meta["Y"] == "9/2"
    missing = [r for r in GOLDEN_REQUIRED if r not in rows_hit]
    assert not missing, f"unreached golden rows: {missing}"
    print("\nACCEPT-4 golden row coverage: PASS "
          f"({len(GOLDEN_REQUIRED)} required rows all reached and oracle-checked; "
          "S54 pairs (Y,nu) = (5,3/2) and (9/2,5/4))")


def test_criterion_5_iteration_monotonicity():
    """Monotonicity and the index bound are asserted inside the iteration;
    here a corpus rich in iteration paths is pushed through, and direct calls
    confirm the step counts stay within v_p(disc)/2 + 1."""
    rng = random.Random(424)
    routed = 0
    checked = 0
    while routed < 120:
        style = rng.randrange(3)
        if style == 0:  # C2-style
            a = 2 * rng.randint(-40, 40) + 1
            b = 2 * rng.randint(-40, 40)
            c = 2 * rng.randint(-40, 40)
            p = 2
        elif style == 1:  # E1 rows 7/8
            p = rng.choice([2, 3, 5])
            a = p * rng.choice([1, 2, -1, -2])
            b = p**2 * rng.randint(-4, 4)
            c = p**3 * rng.randint(-4, 4)
        else:  # D2
            p = 3
            a = 3 * rng.randint(-10, 10)
            b = rng.choice([1, 2, 4, 5, -1, -2])
            c = 3 * rng.randint(-10, 10)
        if c == 0 or not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        if f.discriminant() % p:
            continue
        routed += 1
        quartic_p_integral_basis(a, b, c, p)  # internal assertions armed
        # direct iteration from every admissible start we can name
        for s0 in (0, 1, -1):
            from pintbasis.errors import (
                InconsistentError,
                IterationPreconditionError,
                NonIntegerSlopeError,
            )

            steps = []
            try:
                iterate_to_regular(f, s0, p, record=steps)
            except IterationPreconditionError:
                continue
            except NonIntegerSlopeError:
                continue
            checked += 1
            bound = vp(f.discriminant(), p) // 2 + 1
            assert len(steps) <= bound, (f.render(), p, s0, len(steps), bound)
            inds = [st.ind for st in steps]
            assert all(x < y for x, y in zip(inds, inds[1:])), (f.render(), p, s0)
    print(f"\nACCEPT-5 iteration monotonicity/termination: PASS "
          f"({routed} routed inputs, {checked} direct iterations within "
          "v_p(disc)/2 + 1 steps, strictly growing index)")


def _random_phi(rng, p):
    while True:
        deg = rng.choice([1, 1, 1, 2, 2, 3])
        phi = IntPoly([rng.randint(-(p // 2) - 1, p // 2 + 1) for _ in range(deg)] + [1])
        if is_irreducible_mod_p(phi, p):
            return phi


def test_criterion_6_polygon_property_suite():
    rng = random.Random(616)
    checked = 0
    while checked < 10000:
        p = rng.choice(PRIMES)
        f = IntPoly([rng.randint(-p**3, p**3) for _ in range(rng.randint(2, 7))] + [1])
        if f.vp(p) != 0:
            continue
        phi = _random_phi(rng, p)
        checked += 1
        expansion = phi_expand(f, phi)
        polygon = newton_polygon(expansion, p)
        slopes = [s.slope for s in polygon.sides]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
        pp = principal_part(polygon)
        assert pp.length == ord_mod_p(f, phi, p), (f.render(), phi.render(), p)
        if pp.length >= 1 and pp.start_abscissa() == 0:
            ys = ordinates(pp)
            assert all(x > y for x, y in zip(ys, ys[1:])) and ys[-1] == 0
            assert phi_index(f, phi, p) == phi.degree * lattice_point_count(pp)
            assert phi.degree * index_from_ordinates(ys) == phi_index(f, phi, p)
            for sd in phi_polygon_data(f, phi, p)[2]:
                assert len(sd.residual) - 1 == sd.side.degree and sd.residual[-1]
                assert sd.residual[0]
    print(f"\nACCEPT-6 polygon property suite: PASS ({checked} random (f, phi, p), "
          "zero violations)")


def _order2_witnesses():
    rng = random.Random(909)
    found = {"T2r3": [], "T2r6": [], "T4r4": [], "T4r16": [], "T4r17": []}
    # curated seeds for each first-order-irregular case
    seeds = [
        (3, 9, 9, 3), (5, 25, 25, 5),           # T2r3 with v(a^2-4c) >= 3
        (-4, -4, -4, 2), (8, -320, 4, 2),       # T2r6
        (14, -44, 49, 2), (14, -56, 45, 2),     # T4r4
        (10, -120, 45, 2),                      # T4r16
        (-54, 296, -307, 2),                    # T4r17
    ]
    for _ in range(400):
        a = 4 * rng.randint(-20, 20)
        b = 4 * rng.randint(-20, 20)
        c = 4 * rng.choice([1, 3, 5, 7, -1, -3, -5, -7])
        seeds.append((a, b, c, 2))
    out = []
    for a, b, c, p in seeds:
        if not is_irreducible_quartic(a, b, c):
            continue
        try:
            basis = quartic_p_integral_basis(a, b, c, p)
        except Exception:
            continue
        if not basis.meta.get("order2"):
            continue
        for key in found:
            if key in basis.meta["rows"]:
                found[key].append((a, b, c, p))
        out.append((a, b, c, p, basis))
    missing = [k for k, v in found.items() if not v]
    assert not missing, f"order-2 cases not reached: {missing}"
    return out


def test_criterion_7_second_order_path():
    witnesses = _order2_witnesses()
    assert len(witnesses) >= 10
    unscaled = {"T2r3", "T2r6", "T4r4"}
    for a, b, c, p, basis in witnesses:
        f = IntPoly.monic_quartic(a, b, c)
        oracle = saturate(f, p)
        assert basis.elements == oracle.elements, (a, b, c, p)
        # floor(Y) - 2 is the index of the polynomial the second-order polygon
        # was computed for; on unscaled routes that is the oracle index itself
        # (a shift x -> x+m preserves the index)
        if unscaled & set(basis.meta["rows"]):
            Y = Fraction(basis.meta["Y"])
            assert int(Y // 1) - 2 == oracle.index_valuation, (a, b, c, p)
    # direct check of ind_p = floor(Y)-2 against the oracle on pure contexts
    from pintbasis import order2

    rng = random.Random(910)
    direct = 0
    while direct < 40:
        a = 4 * rng.randint(-30, 30)
        b = 4 * rng.randint(-30, 30)
        c = 4 * rng.choice([1, 3, 5, -1, -3, -5])
        if not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        if (a and vp(a, 2) < 2) or (b and vp(b, 2) < 2) or vp(c, 2) != 2:
            continue
        phi, tag = order2.choose_phi("E1_row6", {"a": a, "b": b, "c": c})
        o2 = order2.basis_order2(order2.SecondOrderContext(f, 2, phi, tag))
        oracle = saturate(f, 2)
        assert o2.ind_p == oracle.index_valuation, (a, b, c)
        from pintbasis.basis import triangularize

        assert triangularize(list(o2.elements), 2, 4).elements == oracle.elements
        direct += 1
    print(f"\nACCEPT-7 second-order path: PASS ({len(witnesses)} routed inputs "
          f"match saturation; {direct} direct second-order bases with "
          "ind_p = floor(Y)-2 = oracle index)")


def test_criterion_8_decomposition_sanity(corpus_results):
    complete = 0
    ram_checked = 0
    for f, p, basis, oracle in corpus_results:
        dec = decomposition_type(f, p)
        if not dec.complete:
            continue
        complete += 1
        assert sum(e.e * e.f for e in dec.entries) == 4, (f.render(), p)
        ramified = any(e.e > 1 for e in dec.entries)
        disc_basis_v = vp_frac(basis_discriminant(f, oracle), p)
        assert ramified == (disc_basis_v >= 1), (f.render(), p)
        ram_checked += 1
    assert complete >= 100
    print(f"\nACCEPT-8 decomposition sanity: PASS ({complete} complete types, "
          "sum e*f = 4 and ramification iff v_p(disc K) >= 1)")


def _round2_corpus(rng, size):
    """Monic f of degree 2-6 at p in {2, 3, 5, 7}: powers of a small phi
    perturbed by multiples of p^k, and random f with p-power coefficients;
    only f the guard proves irreducible."""
    out = []
    while len(out) < size:
        p = rng.choice([2, 3, 5, 7])
        if len(out) % 2:
            n = rng.randint(2, 6)
            f = IntPoly([p ** rng.randint(0, 3) * rng.randint(-20, 20) for _ in range(n)] + [1])
        else:
            phi = X + rng.randint(-3, 3) if rng.random() < 0.6 else X**2 + IntPoly(
                [rng.randint(-2, 2) for _ in range(2)])
            m = rng.randint(2, 6 // phi.degree)
            pert = IntPoly([rng.randint(-3, 3) for _ in range(m * phi.degree)])
            f = phi**m + p ** rng.randint(1, 3) * pert + p ** rng.randint(1, 4)
        if f.discriminant() and is_irreducible(f) is True:
            out.append((f, p))
    return out


def _ore_family(rng, p, max_degree, tail=IntPoly.const(1)):
    """f = prod phi^m + c p^k tail, p not dividing c, with distinct phi of
    degree 1 or 2 irreducible mod p and with symmetric coefficients (the
    lifts the program develops f in), gcd(m, k) = 1 and m >= 2 for linear
    phi.  With tail 1, or x when no phi is x, each phi-polygon is one side
    with a linear residual polynomial, so f is p-regular of index
    sum deg(phi) (m-1)(k-1)/2 (Ore).  The tail x keeps f(0) small at
    large p^k."""
    k = rng.randint(1, 3 if p < 100 else 2)
    lo, hi = max(-5, -((p - 1) // 2)), min(5, p // 2)
    factors, seen, degree = [], set(), 0
    while not factors or (degree < max_degree - 1 and rng.random() < 0.6):
        d = rng.choice([1, 2])
        phi = X**d + IntPoly([rng.randint(lo, hi) for _ in range(d)])
        ms = [m for m in range(3 - d, (max_degree - degree) // d + 1) if gcd(m, k) == 1]
        key = tuple(c % p for c in phi.coeffs)
        if key in seen or not ms or (d == 2 and not is_irreducible_mod_p(phi, p)):
            continue
        m = rng.choice(ms)
        seen.add(key)
        factors.append((phi, m))
        degree += d * m
    f = IntPoly.const(1)
    for phi, m in factors:
        f = f * phi**m
    f = f + rng.choice([-1, 1]) * rng.randint(1, max(1, p - 1)) * p**k * tail
    return f, sum(phi.degree * (m - 1) * (k - 1) // 2 for phi, m in factors)


def test_criterion_9_round2_oracle():
    """Round 2 returns the saturation basis element for element on a seeded
    corpus of degree 2-6, and the generic route equals Round 2 and Ore's
    index on closed-form p-regular families up to degree 12 and p = 10^4+7,
    and up to degree 20 at p in {101, 10^4+7, 10^6+3}.  The corpus reaches
    both radicals of Round 2: the trace form for p > n and the Frobenius
    for p <= n; the large families take the trace form."""
    corpus = _round2_corpus(random.Random(91), 80)
    by_radical = Counter()  # index > 0 by radical: trace form (p > n) or Frobenius
    for f, p in corpus:
        r2 = round2(f, p)
        assert r2 == saturate(f, p), (f.render(), p)
        assert r2.meta == {"method": "round2"}
        by_radical[p > f.degree] += r2.index_valuation > 0
    assert sum(by_radical.values()) >= 30, by_radical
    assert min(by_radical[True], by_radical[False]) >= 10, by_radical
    rng = random.Random(92)
    families = 0
    while families < 40:
        p = rng.choice([2, 3, 5, 7, 101, 10007])
        f, index = _ore_family(rng, p, 12)
        if is_irreducible(f) is not True:
            continue
        families += 1
        r2 = round2(f, p)
        assert p_integral_basis_regular(f, p).elements == r2.elements, (f.render(), p)
        assert r2.index_valuation == index, (f.render(), p)
    # the irreducibility guard trial-divides up to sqrt|f(0)|, so the tail x
    # keeps f(0) a product of the phi(0) and the bound keeps it moderate
    rng = random.Random(93)
    large, nontrivial, degrees, primes = 0, 0, [], set()
    while large < 12 or nontrivial < 6:
        p = rng.choice([101, 10007, 1000003])
        f, index = _ore_family(rng, p, 20, X)
        if abs(f[0]) > 10**12 or is_irreducible(f) is not True:
            continue
        large += 1
        nontrivial += index > 0
        degrees.append(f.degree)
        primes.add(p)
        r2 = round2(f, p)
        assert p_integral_basis_regular(f, p).elements == r2.elements, (f.render(), p)
        assert r2.index_valuation == index, (f.render(), p)
    assert max(degrees) >= 19 and primes == {101, 10007, 1000003}, (degrees, primes)
    print(f"\nACCEPT-9 Round 2 oracle: PASS ({len(corpus)} inputs equal saturation, "
          f"{by_radical[True]} of index > 0 at p > n and {by_radical[False]} at p <= n; "
          f"{families} Ore families up to degree 12 and {large} up to degree "
          f"{max(degrees)}, {nontrivial} of index > 0, equal the generic route)")
