import random
from pathlib import Path

import pytest

from pintbasis.arith import INFINITY, vp
from pintbasis.errors import IterationPreconditionError, NotIrreducibleError
from pintbasis.factor import is_irreducible_quartic
from pintbasis.intpoly import IntPoly
from pintbasis.newton import LocalAnalysis, is_phi_regular
from pintbasis.oracle import is_integral, saturate
from pintbasis.basis import BasisElement, triangularize
from pintbasis.quartic import (
    QuarticCase,
    check_initial_conditions,
    classify,
    iterate_to_regular,
    make_context,
    quartic_p_integral_basis,
    reduce_E1,
    valuation_profile,
    _transport,
)

X = IntPoly([0, 1])


def test_classify_examples():
    assert classify(1, 0, 50, 5) == QuarticCase.B1
    assert classify(1, 2, 1, 2) == QuarticCase.A2
    assert classify(2, 4, 2, 2) == QuarticCase.E1
    assert classify(1, 25, 19, 5) == QuarticCase.A1
    assert classify(1, 0, 3, 7) == QuarticCase.SEPARABLE  # disc = -8748 = -4*3^7
    assert classify(0, 0, -2, 2) == QuarticCase.E1
    assert classify(3, 2, 4, 2) == QuarticCase.C2
    assert classify(3, 1, 3, 3) == QuarticCase.D2


def test_classify_exhaustive_random():
    rng = random.Random(20)
    n = 0
    while n < 800:
        a, b, c = (rng.randint(-60, 60) for _ in range(3))
        p = rng.choice([2, 3, 5, 7, 13])
        if not is_irreducible_quartic(a, b, c):
            continue
        n += 1
        classify(a, b, c, p)  # must never raise Inconsistent


def _profile(F, s, p):
    """The profile of F at s, read from the record of the lift x - s."""
    return valuation_profile(is_phi_regular(F, X - s, p), p)


def test_valuation_profile():
    F = X**4 - 2
    pr = _profile(F, 0, 2)
    assert pr.us() == (1, INFINITY, INFINITY, INFINITY)

    F = X**4 + 2 * X**3 + 3 * X**2 + 4 * X + 4
    pr = _profile(F, 0, 2)
    assert pr.us() == (2, 2, 0, 1)
    pr = _profile(F, 2, 2)
    assert (pr.u0, pr.u1, pr.u2) == (3, 3, 0)
    assert F(2) == 56 and F.derivative()(2) == 72 and F.derivative().derivative()(2) // 2 == 39


def test_initial_conditions():
    F = X**4 + 2 * X**3 + 3 * X**2 + 4 * X + 4
    assert check_initial_conditions(_profile(F, 0, 2), is_phi_regular(F, X, 2)) == "I"
    F2 = X**4 + X**3 + 3 * X**2 + 3 * X + 3  # u3 = v3(1) = 0, rest positive
    pr = _profile(F2, 0, 3)
    assert check_initial_conditions(pr, is_phi_regular(F2, X, 3)) == "II"
    F3 = IntPoly.monic_quartic(0, 0, 3)
    pr = _profile(F3, 0, 3)  # u0 = 1, u1 = inf, u2 = inf, u3 = inf
    assert check_initial_conditions(pr, is_phi_regular(F3, X, 3)) is None


def test_iterate_example_from_condition_i():
    # one step: s0 = 0 irregular (side slope -1, residual (y+1)^2), t = 2 regular
    F = X**4 + 2 * X**3 + 3 * X**2 + 4 * X + 4
    steps = []
    reg = iterate_to_regular(LocalAnalysis(F, 2), 0, record=steps)
    assert reg.phi == X - 2 and reg.regular  # s = 2
    assert len(steps) == 1
    assert steps[0].delta == 1 and steps[0].y == 1


def test_iterate_rejects_bad_start():
    with pytest.raises(IterationPreconditionError):
        iterate_to_regular(LocalAnalysis(IntPoly.monic_quartic(0, 0, 3), 3), 0)


def test_iterate_non_integer_slope():
    # x^4+4x^2-4 at p=2: inseparable side of slope -1/2, which no admissible
    # starting pattern allows, so the iteration refuses s = 0 at the start
    with pytest.raises(IterationPreconditionError):
        iterate_to_regular(LocalAnalysis(X**4 + 4 * X**2 - 4, 2), 0)


def test_reduce_E1():
    assert reduce_E1(25 * 4, 125 * 8, 625 * 16, 5) == (4, 8, 16, 1)
    assert reduce_E1(5, 0, 50, 5) == (5, 0, 50, 0)
    assert reduce_E1(5**4, 5**6, 5**8, 5) == (1, 1, 1, 2)


def test_reduce_E1_double():
    a, b, c, k = reduce_E1(2**4, 2**7, 2**9, 2)
    assert k == 2 and (a, b, c) == (1, 2, 2)


def test_spec_basis_examples():
    b = quartic_p_integral_basis(1, 0, 50, 5)
    assert b.render() == "1, θ, θ², (θ³+θ)/5" and b.index_valuation == 1

    b = quartic_p_integral_basis(0, 0, -2, 2)
    assert b.render() == "1, θ, θ², θ³"

    b = quartic_p_integral_basis(1, 25, 19, 5)
    assert b.index_valuation == 2
    assert b.meta["case"] == "A1"
    # display family uses s = 13 (2s = 1 mod 25)
    gens = b.render_generators()
    assert "13" in gens

    b = quartic_p_integral_basis(1, 0, 5, 5)
    assert b.index_valuation == 0


# One frozen witness per golden table row (found by search, verified against
# the saturation oracle).  Each runs the full pipeline and must fire its row.
GOLDEN_ROWS = [
    ("T2r1", -4, -4, -6, 2),
    ("T2r2", -2, -2, 4, 2),
    ("T2r3", -6, 0, -9, 3),
    ("T2r3-order2", 3, 9, 9, 3),  # v3(a^2-4c) = 3 routes through second order
    ("T2r4", -2, -4, -4, 2),
    ("T2r5", 0, 0, 9, 3),
    ("T2r6", -4, -4, -4, 2),
    ("T2r7", 6, 27, -27, 3),
    ("T2r8", 2, -24, -24, 2),
    ("T2r9", 0, -4, 8, 2),
    ("T2r10", 16, 32, 8, 2),
    ("T4r1", 0, 6, -1, 2),
    ("T4r2", -12, 10, -19, 2),
    ("T4r3", 4, 0, 7, 2),
    ("T4r4", 14, -44, 49, 2),
    ("T4r5", -12, 32, -29, 2),
    ("T4r6", -2, 4, 37, 2),
    ("T4r7", -10, -8, 9, 2),
    ("T4r8", 14, 8, -71, 2),
    ("T4r9", -30, 64, -115, 2),
    ("T4r10", -18, -48, -15, 2),
    ("T4r11", -18, 48, -191, 2),
    ("T4r12", -26, 72, -143, 2),
    ("T4r13", -46, 104, -91, 2),
    ("T4r14", 18, 8, 165, 2),
    ("T4r15", 2, -168, -155, 2),
    ("T4r16", 10, -120, 45, 2),
    ("T4r17", -54, 296, -307, 2),
    ("T4r18", -30, -40, -571, 2),
    ("T4r19", 10, 136, -787, 2),
    ("T4r20", 42, 104, -531, 2),
    ("T4r21", -54, -88, -115, 2),
    ("T4r22", 10, -408, -883, 2),
    ("T4r23", 90, -504, -2147, 2),
    ("T4r24", -22, 424, 109, 2),
    ("T4r25", 154, -952, 1309, 2),
    ("eq10-r1", 1, 2, 1, 2),
    ("eq10-r2", 1, 4, 5, 2),
    ("eq15-r1", 1, 2, 2, 2),
    ("eq15-r1", -4, 0, 32, 2),  # reaches C2 through the 4-tuple reduction
    ("eq15-r2", 1, 8, 2, 2),
    ("eq15-r2", -4, 48, 32, 2),
    ("eq15-r3", 3, 2, 4, 2),
    ("eq15-r4", 1, 2, 4, 2),
    ("eq15-r4", 3, 4, 4, 2),
]


@pytest.mark.parametrize("row,a,b,c,p", GOLDEN_ROWS)
def test_golden_rows_fire_and_match_oracle(row, a, b, c, p):
    basis = quartic_p_integral_basis(a, b, c, p)
    tag = row.replace("-order2", "")
    assert tag in basis.meta["rows"], basis.meta
    if row.endswith("-order2"):
        assert basis.meta.get("order2") == 1
    oracle = saturate(IntPoly.monic_quartic(a, b, c), p)
    assert basis.elements == oracle.elements
    assert basis.index_valuation == oracle.index_valuation


# Explicit element patterns stated by the golden rows, as (power, denom_exp)
# pairs for the pure-power rows of the reduced 4-tuple table.
def test_table2_power_rows_shapes():
    shapes = {
        ("T2r1", -4, -4, -6, 2): (0, 0, 0),
        ("T2r2", -2, -2, 4, 2): (0, 0, 1),
        ("T2r4", -2, -4, -4, 2): (0, 1, 1),
        ("T2r5", 0, 0, 9, 3): (0, 1, 1),
        ("T2r9", 0, -4, 8, 2): (0, 1, 2),
        ("T2r10", 16, 32, 8, 2): (0, 1, 2),
    }
    for (row, a, b, c, p), denoms in shapes.items():
        basis = quartic_p_integral_basis(a, b, c, p)
        assert row in basis.meta["rows"]
        got = tuple(e.denom_exp for e in basis.elements[1:])
        assert got == denoms, (row, basis.render())
        # pure powers in the numerators
        for k, e in enumerate(basis.elements):
            assert e.numerator == IntPoly.x(k), (row, basis.render())


def _irregular_rows():
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    rows = []
    for line in (data / "quartic_irregular.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(t) for t in line.split()))
    return rows


def test_display_families_span_the_module():
    """Every fired row keeps the paper's display family as the generators,
    moved back to theta where the row works in a shifted or scaled root,
    and that family spans exactly the computed module: on every golden row
    and every quartic-irregular benchmark input.  The omega-power bases
    stated by the shifted table's direct rows also span it after
    transporting omega = theta - m."""
    quartics = [(a, b, c, p) for _r, a, b, c, p in GOLDEN_ROWS] + _irregular_rows()
    assert len(quartics) == 45 + 168
    for a, b, c, p in quartics:
        basis = quartic_p_integral_basis(a, b, c, p)
        span = triangularize(basis.generators, p, 4)
        assert span.elements == basis.elements, ((a, b, c, p), basis.meta["rows"])
    denoms = {
        "T4r1": (0, 0, 0), "T4r2": (0, 0, 1), "T4r3": (0, 1, 1),
        "T4r6": (0, 1, 2), "T4r7": (0, 1, 2), "T4r8": (1, 2, 3),
        "T4r9": (1, 2, 3), "T4r12": (1, 2, 3), "T4r13": (1, 2, 3),
        "T4r14": (1, 2, 4), "T4r15": (1, 3, 4), "T4r19": (1, 3, 5),
        "T4r20": (1, 3, 5), "T4r21": (2, 4, 6), "T4r22": (2, 4, 6),
        "T4r23": (2, 4, 6),
    }
    rows = {r: (a, b, c) for r, a, b, c, _p in GOLDEN_ROWS if r in denoms}
    assert len(rows) == len(denoms)
    for row, (a, b, c) in rows.items():
        basis = quartic_p_integral_basis(a, b, c, 2)
        assert row in basis.meta["rows"]
        m = basis.meta["m"]
        display = [BasisElement(IntPoly([1]), 0)] + [
            BasisElement(X ** (k + 1), denoms[row][k]) for k in range(3)
        ]
        transported = _transport(display, 2, 0, m)
        span = triangularize(transported, 2, 4)
        assert span.elements == basis.elements, (row, basis.render())


def test_table4_row16_explicit_family():
    # stated family: 1, w/2, (w^2+8)/8, (w^3+8w)/32 with w = theta - m
    a, b, c = 10, -120, 45
    basis = quartic_p_integral_basis(a, b, c, 2)
    assert "T4r16" in basis.meta["rows"]
    m = basis.meta["m"]
    display = [
        BasisElement(IntPoly([1]), 0),
        BasisElement(X, 1),
        BasisElement(X**2 + 8, 3),
        BasisElement(X**3 + 8 * X, 5),
    ]
    span = triangularize(_transport(display, 2, 0, m), 2, 4)
    assert span.elements == basis.elements


def test_section54_Y_nu_pairs():
    b16 = quartic_p_integral_basis(10, -120, 45, 2)
    assert b16.meta["Y"] == "5"  # nu = 3/2
    b17 = quartic_p_integral_basis(-54, 296, -307, 2)
    assert b17.meta["Y"] == "9/2"  # nu = 5/4
    for b in (b16, b17):
        assert "S54" in b.meta["rows"] and b.meta["order2"] == 1


def test_eq10_displays():
    b = quartic_p_integral_basis(1, 2, 1, 2)
    assert [e.denom_exp for e in b.elements] == [0, 0, 0, 0]
    b = quartic_p_integral_basis(1, 4, 5, 2)
    disp = [
        BasisElement(IntPoly([1]), 0), BasisElement(X, 0),
        BasisElement(IntPoly([1, 1, 1]), 1), BasisElement(IntPoly([0, 1, 1, 1]), 1),
    ]
    assert triangularize(disp, 2, 4).elements == b.elements


def test_eq15_row4_contains_theta2_plus_theta_over_2():
    for (a, b, c) in ((1, 2, 4), (3, 4, 4)):
        basis = quartic_p_integral_basis(a, b, c, 2)
        assert "eq15-r4" in basis.meta["rows"]
        assert is_integral(IntPoly.monic_quartic(a, b, c),
                           BasisElement(IntPoly([0, 1, 1]), 1), 2)
        assert basis.elements[2].denom_exp >= 1


def test_rejects_reducible():
    with pytest.raises(NotIrreducibleError):
        quartic_p_integral_basis(4, 0, 4, 2)  # (x^2+2)^2


def test_every_element_is_integral_random():
    rng = random.Random(21)
    n = 0
    while n < 60:
        a, b, c = (rng.randint(-90, 90) for _ in range(3))
        p = rng.choice([2, 3, 5])
        if not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        if f.discriminant() % p:
            continue
        n += 1
        basis = quartic_p_integral_basis(a, b, c, p)
        for e in basis.elements:
            assert is_integral(f, e, p)
        for g in basis.generators:
            assert is_integral(f, g, p)


def test_consistency_with_generic_path_when_regular():
    from pintbasis.errors import NotRegularError
    from pintbasis.basis import p_integral_basis_regular

    rng = random.Random(22)
    n = 0
    while n < 40:
        a, b, c = (rng.randint(-60, 60) for _ in range(3))
        p = rng.choice([2, 3, 5, 7])
        if not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        if f.discriminant() % p:
            continue
        try:
            generic = p_integral_basis_regular(f, p)
        except NotRegularError:
            continue
        n += 1
        fast = quartic_p_integral_basis(a, b, c, p)
        assert generic.elements == fast.elements


def test_deep_valuation_families_match_oracle():
    """Structured families that force large Delta through every case."""
    from pintbasis.arith import inv_mod, legendre

    rng = random.Random(97)
    tested = 0
    gens = []
    for want in (-1, 1):  # deep A1 / C1
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            a = rng.randint(-30, 30)
            if a % p == 0 or legendre((-a * inv_mod(2, p)) % p, p) != want:
                continue
            k = rng.randint(1, 4)
            c = (a * a * inv_mod(4, p**(k + 1))) % p**(k + 1) + p**k * rng.randint(-3, 3)
            gens.append((a, p**rng.randint(1, 4) * rng.randint(-4, 4), c, p))
    for _ in range(60):  # deep B
        p = rng.choice([3, 5, 7])
        s, t = rng.randint(-9, 9), rng.randint(-9, 9)
        base = (X - s) ** 2 * IntPoly([t, 2 * s, 1])
        k = rng.randint(1, 5)
        f = base + IntPoly([p**k * rng.randint(-2, 2), p**max(1, k - 1) * rng.randint(-2, 2)])
        if f.degree == 4 and f[3] == 0:
            gens.append((f[2], f[1], f[0], p))
    for _ in range(60):  # deep D1 triple roots
        p = rng.choice([5, 7])
        s = rng.randint(-8, 8)
        if s % p == 0:
            continue
        k = rng.randint(1, 4)
        gens.append((-6 * s * s + p**k * rng.randint(-3, 3),
                     8 * s**3 + p**k * rng.randint(-3, 3),
                     -3 * s**4 + p**k * rng.randint(-3, 3), p))
    for _ in range(80):  # deep D2 and A1-with-4c=a^2 corner
        a = rng.choice([0, 3, 6]) + 9 * rng.randint(-6, 6)
        gens.append((a, rng.choice([1, 2, 4, 5, -1, -2]),
                     3 * rng.randint(-20, 20) * rng.choice([1, 3, 9]), 3))
    gens.append((8, -16807, 16, 7))   # v_p(4c - a^2) infinite
    gens.append((2, 49, 1, 7))
    for a, b, c, p in gens:
        if not is_irreducible_quartic(a, b, c):
            continue
        f = IntPoly.monic_quartic(a, b, c)
        if c == 0 or f.discriminant() % p:
            continue
        tested += 1
        basis = quartic_p_integral_basis(a, b, c, p)
        oracle = saturate(f, p)
        assert basis.elements == oracle.elements, (a, b, c, p)
    assert tested >= 80


def test_e1_half_a_when_a_squared_is_4c():
    # row T2r3 with a^2 = 4c: v_p(a^2 - 4c) is infinite, and the basis must
    # still come out and match saturation
    cases = [(6, -27, 9, 3), (-10, 1250, 25, 5)]
    rng = random.Random(31)
    for p in (3, 5, 7):
        found = 0
        while found < 3:
            u = rng.choice([1, -1]) * rng.randint(1, 3)
            w = rng.choice([1, -1]) * rng.randint(1, 2 * p)
            a, b, c = 2 * p * u, p * p * w, p * p * u * u
            if u % p == 0 or not is_irreducible_quartic(a, b, c):
                continue
            cases.append((a, b, c, p))
            found += 1
    for a, b, c, p in cases:
        assert a * a == 4 * c
        basis = quartic_p_integral_basis(a, b, c, p)
        assert basis.meta["rows"][0] == "T2r3"
        f = IntPoly.monic_quartic(a, b, c)
        assert basis.elements == saturate(f, p).elements, (a, b, c, p)
    assert quartic_p_integral_basis(6, -27, 9, 3).index_valuation == 3
    assert quartic_p_integral_basis(-10, 1250, 25, 5).index_valuation == 4
