import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from pintbasis.factor import is_irreducible_mod_p
from pintbasis.fq import FqField
from pintbasis.intpoly import IntPoly
from pintbasis.newton import (
    is_p_regular,
    is_phi_regular,
    newton_polygon,
    ordinates,
    phi_expand,
    phi_polygon_data,
    polygon_to_json,
    polygon_to_svg,
    principal_part,
    residual_polynomial,
)

from reference import (
    check_polygon_geometry,
    exact_ordinate,
    exact_ordinates,
    fraction_residual,
    fraction_slope,
    phi_index,
)

X = IntPoly([0, 1])


def poly_of(f, phi, p):
    return newton_polygon(phi_expand(f, phi), p)


def test_phi_expand_examples():
    e = phi_expand(X**4 - 2, X)
    assert [a.coeffs for a in e.coefficients] == [(-2,), (), (), (), (1,)]
    assert list(e.quotients) == [X**3, X**2, X, IntPoly([1])]

    e = phi_expand(IntPoly.monic_quartic(1, 0, 50), X)
    assert [a[0] for a in e.coefficients] == [50, 0, 1, 0, 1]
    assert e.quotients[0] == X**3 + X

    e = phi_expand(X**4 + 2 * X**2 + 4, X**2)
    assert [a[0] for a in e.coefficients] == [4, 2, 1]
    assert e.quotients[0] == X**2 + 2


def test_phi_expand_invariants_random():
    """The reference is computed here from the coefficients: the partial sums
    r_j = sum_{i<j} a_i phi^i and the tails sum_{i>=j} a_i phi^(i-j)."""
    rng = random.Random(10)
    for _ in range(200):
        f = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(1, 7))] + [1])
        phi = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
        e = phi_expand(f, phi)
        assert all(a.degree < phi.degree for a in e.coefficients)
        assert len(e.quotients) == len(e.coefficients) - 1
        powers = [phi**i for i in range(len(e.coefficients))]
        assert sum((a * w for a, w in zip(e.coefficients, powers)), IntPoly()) == f
        for j, q in enumerate(e.quotients, start=1):
            r = sum((a * w for a, w in zip(e.coefficients[:j], powers)), IntPoly())
            assert r + q * powers[j] == f
            assert r.degree < j * phi.degree
            tail = zip(e.coefficients[j:], powers)
            assert sum((a * w for a, w in tail), IntPoly()) == q


def test_phi_expand_divides_once_per_coefficient(monkeypatch):
    """The development is one schoolbook division by phi per coefficient on
    plain integer lists: no IntPoly arithmetic at all (no division, product
    or sum of IntPolys), and an IntPoly is built only for each digit and
    quotient returned, through the trusted constructor."""
    counts = {"__divmod__": 0, "__mul__": 0, "__add__": 0, "__init__": 0, "_of_list": 0}

    def counting(name):
        method = getattr(IntPoly, name)

        def wrapper(*args):
            counts[name] += 1
            return method(*args)
        return wrapper

    for name in ("__divmod__", "__mul__", "__add__", "__init__"):
        monkeypatch.setattr(IntPoly, name, counting(name))
    monkeypatch.setattr(IntPoly, "_of_list", staticmethod(counting("_of_list")))
    monkeypatch.setattr(IntPoly, "__rmul__", IntPoly.__mul__)
    monkeypatch.setattr(IntPoly, "__radd__", IntPoly.__add__)
    f = IntPoly([7, -3, 12, 5, -9, 2, 4, -1, 6, 3, 1])
    for phi in (IntPoly([3, 1]), IntPoly([1, 1, 1]), IntPoly([2, 0, 1, 1])):
        for name in counts:
            counts[name] = 0
        e = phi_expand(f, phi)
        built = len(e.coefficients) + len(e.quotients)
        assert counts == {"__divmod__": 0, "__mul__": 0, "__add__": 0, "__init__": 0,
                          "_of_list": built}
        assert len(e.coefficients) == f.degree // phi.degree + 1


def _divmod_development(f, phi):
    """The development by repeated IntPoly division: (digits, quotients)."""
    digits, quotients, q = [], [], f
    while True:
        q, a = divmod(q, phi)
        digits.append(a)
        if q.is_zero():
            return digits, quotients
        quotients.append(q)


_BIG = st.integers(min_value=-10**40, max_value=10**40)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_BIG, max_size=21), st.lists(_BIG, min_size=1, max_size=4),
       st.lists(_BIG, max_size=18), st.booleans())
@example([5, 1], [0, 0, 1], [], False)  # deg f < deg phi
@example([], [3, 0, 1], [1, 2, 3], True)  # phi | f
def test_phi_expand_is_repeated_division(fs, low, gs, divisible):
    """phi_expand gives the digits and the quotients of repeated division by
    phi: deg f <= 20 with coefficients up to 10^40, monic phi of degree
    1-4, and f = g phi when divisible."""
    phi = IntPoly(low + [1])
    f = IntPoly(gs) * phi if divisible else IntPoly(fs)
    e = phi_expand(f, phi)
    digits, quotients = _divmod_development(f, phi)
    assert list(e.coefficients) == digits and list(e.quotients) == quotients
    assert all(a.coeffs[-1:] != (0,) for a in digits + quotients)
    assert len(digits) == max(f.degree, 0) // phi.degree + 1


def test_newton_polygon_examples():
    n = poly_of(X**4 - 2, X, 2)
    assert n.vertices == ((0, 1), (4, 0))
    s = n.sides[0]
    assert fraction_slope(s) == Fraction(-1, 4) and s.slope == "-1/4"
    assert s.length == 4 and s.degree == 1 and s.ramification == 4

    n = poly_of(X**4 + 2 * X**2 + 4, X, 2)
    assert n.vertices == ((0, 2), (4, 0))
    s = n.sides[0]
    assert fraction_slope(s) == Fraction(-1, 2) and s.slope == "-1/2"
    assert s.degree == 2 and s.ramification == 2
    assert exact_ordinate(n, 2) == 1  # (2, 1) lies on the polygon

    n = poly_of(X**4 + 2 * X + 4, X, 2)
    assert [fraction_slope(s) for s in n.sides] == [Fraction(-1), Fraction(-1, 3)]
    assert [s.slope for s in n.sides] == ["-1", "-1/3"]
    assert [(s.height, s.length, s.ramification, s.degree) for s in n.sides] == [
        (1, 1, 1, 1), (1, 3, 3, 1)]


def test_side_slopes_zero_and_positive():
    """The full polygon keeps its sides of slope 0 and of positive slope
    (the latter only for a non-monic f); the slope text is str(Fraction),
    and a side of slope 0 has the full length as its ramification."""
    cases = [
        ([1, 0, 0, 1], ["0"], [(3, 1)]),  # (0,0) (3,0)
        ([2, 0, 1, 4, 1], ["-1/2", "0"], [(2, 1), (2, 1)]),  # (0,1) (2,0) (4,0)
        ([1, 1, 4], ["0", "2"], [(1, 1), (1, 1)]),  # (0,0) (1,0) (2,2)
        ([8, 4, 1, 0, 2], ["-3/2", "1/2"], [(2, 1), (2, 1)]),  # (0,3) (2,0) (4,1)
        ([2, 4, 8, 4, 1, 2, 4], ["-1/4", "1"], [(4, 1), (1, 2)]),  # (0,1) (4,0) (6,2)
    ]
    for coeffs, slopes, ed in cases:
        n = poly_of(IntPoly(coeffs), X, 2)
        assert [s.slope for s in n.sides] == slopes
        assert [str(fraction_slope(s)) for s in n.sides] == slopes
        assert [(s.ramification, s.degree) for s in n.sides] == ed
        assert principal_part(n).sides == tuple(s for s in n.sides if s.slope.startswith("-"))
    pp = principal_part(poly_of(IntPoly([8, 4, 1, 0, 2]), X, 2))
    assert exact_ordinates(pp) == [3, Fraction(3, 2), 0] and ordinates(pp) == [3, 1, 0]


def test_principal_part_and_ordinates():
    f = IntPoly.monic_quartic(1, 0, 50)
    pp = principal_part(poly_of(f, X, 5))
    assert pp.length == 2
    assert [fraction_slope(s) for s in pp.sides] == [Fraction(-1)]
    assert [s.slope for s in pp.sides] == ["-1"]
    assert exact_ordinates(pp) == [2, 1, 0]
    assert ordinates(pp) == [2, 1, 0]

    pp = principal_part(poly_of(X**4 - 2, X, 2))
    assert pp.length == 4
    assert exact_ordinates(pp) == [1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), 0]
    assert ordinates(pp) == [1, 0, 0, 0, 0]

    pp = principal_part(poly_of(X**4 + 2 * X**2 + 4, X, 2))
    assert exact_ordinates(pp) == [2, Fraction(3, 2), 1, Fraction(1, 2), 0]
    assert ordinates(pp) == [2, 1, 1, 0, 0]

    # no negative sides at all
    pp = principal_part(poly_of(X**4 + X + 1, X, 2))
    assert pp.length == 0 and pp.sides == ()


def test_phi_index_examples():
    assert phi_index(X**4 - 2, X, 2) == 0
    assert phi_index(X**4 + 2 * X**2 + 4, X, 2) == 2
    assert phi_index(IntPoly.monic_quartic(1, 0, 50), X, 5) == 1


def test_residual_polynomials():
    f = IntPoly.monic_quartic(1, 0, 50)
    e, pp, data = phi_polygon_data(f, X, 5)
    assert residual_polynomial(pp.sides[0], pp, e, FqField(5, X)) == [2, 0, 1]
    assert fraction_residual(pp, pp.sides[0], e, FqField(5, X)) == [2, 0, 1]
    assert len(data) == 1
    r = data[0].residual
    assert r == [2, 0, 1]  # y^2+2
    assert data[0].separable

    f = X**4 + 2 * X**2 + 4
    e, pp, data = phi_polygon_data(f, X, 2)
    r = data[0].residual
    assert r == [1, 1, 1]  # y^2+y+1
    assert data[0].separable

    # over F_9 = F_3[t]/(t^2+1): y^2+1 = (y+t)(y+2t), coefficients as tuples
    f = IntPoly.monic_quartic(2, 0, 10)  # (x^2+1)^2 + 9
    e, pp, data = phi_polygon_data(f, X**2 + 1, 3)
    assert [sd.residual for sd in data] == [[(1,), (), (1,)]]
    assert data[0].separable and data[0].field.render(data[0].residual) == "y^2 + 1"


def test_shared_vertex_is_reduced_once(monkeypatch):
    """x^4+2x+4 at p = 2, phi = x: the sides (0,2)-(1,1) and (1,1)-(4,0)
    read 3 distinct points, so the analysis reduces 3 coefficients, not one
    per side and point."""
    calls = []
    elem = FqField.elem

    def counted(self, *args):
        calls.append(args)
        return elem(self, *args)

    monkeypatch.setattr(FqField, "elem", counted)
    reg = is_phi_regular(X**4 + 2 * X + 4, X, 2)
    assert [sd.side.start for sd in reg.sides] == [(0, 2), (1, 1)]
    assert [sd.residual for sd in reg.sides] == [[1, 1], [1, 1]]
    assert len(calls) == 3


def test_regularity_examples():
    assert is_phi_regular(X**4 + 2 * X**2 + 4, X, 2).regular
    assert is_phi_regular(IntPoly.monic_quartic(1, 0, 50), X, 5).regular
    rep = is_phi_regular(X**4 + 4 * X**2 + 4, X, 2)
    assert not rep.regular
    side, g, m = rep.witnesses[0]
    assert fraction_slope(side) == Fraction(-1, 2) and side.slope == "-1/2"
    assert side.ramification == 2 and side.degree == 2
    assert rep.ordinates == [2, 1, 1, 0, 0] and rep.index == 2
    assert m == 2 and g == [1, 1]  # (y+1)^2

    assert is_p_regular(X**4 + 2 * X**2 + 4, 2).regular
    assert not is_p_regular(X**4 + 4 * X**2 + 4, 2).regular
    assert is_p_regular(X**4 + X + 1, 2).regular  # separable mod 2


def _random_phi(rng, p):
    while True:
        deg = rng.choice([1, 1, 1, 2, 2, 3])
        phi = IntPoly([rng.randint(-p // 2, p // 2) for _ in range(deg)] + [1])
        if is_irreducible_mod_p(phi, p):
            return phi


def test_polygon_property_suite_small():
    """Smaller version of the acceptance property suite for fast feedback,
    with the integer geometry checked against the Fraction reference: on
    the full polygon of f (monic) and of a non-monic g, whose polygon can
    also have sides of positive slope, and on the PhiRegularity record."""
    rng = random.Random(12)
    kinds = set()
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 13])
        f = IntPoly([rng.randint(-p**3, p**3) for _ in range(rng.randint(2, 7))] + [1])
        if f.vp(p) != 0:
            continue
        phi = _random_phi(rng, p)
        n = check_polygon_geometry(f, phi, p)
        g = f + rng.randint(1, p**3) * p * IntPoly.x(f.degree + 1)
        kinds |= {(s.height > 0) - (s.height < 0) for s in check_polygon_geometry(g, phi, p).sides}
        pp = principal_part(n)
        if pp.length >= 1 and pp.start_abscissa() <= 1:
            reg = is_phi_regular(f, phi, p)
            assert reg.ordinates == ordinates(pp) and reg.index == phi_index(f, phi, p)
    assert kinds == {-1, 0, 1}  # sides of positive, zero and negative slope


def test_serialization():
    n = poly_of(X**4 + 2 * X + 4, X, 2)
    js = polygon_to_json(n)
    assert js["sides"][0]["slope"] == "-1"
    assert js["sides"][1]["slope"] == "-1/3"
    svg = polygon_to_svg(n)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "circle" in svg and "polyline" in svg
