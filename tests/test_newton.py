import random
from fractions import Fraction

from pintbasis.factor import factor_mod_p, is_irreducible_mod_p, ord_mod_p
from pintbasis.fq import FqField
from pintbasis.intpoly import IntPoly
from pintbasis.newton import (
    index_from_ordinates,
    is_p_regular,
    is_phi_regular,
    lattice_point_count,
    newton_polygon,
    ordinates,
    phi_expand,
    phi_index,
    phi_polygon_data,
    polygon_to_json,
    polygon_to_svg,
    principal_part,
    residual_coefficients,
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
    """The development is one division by phi per coefficient and nothing
    else: no products of polynomials (no partial sums or powers of phi)."""
    counts = {"__divmod__": 0, "__mul__": 0, "__add__": 0}

    def counting(name):
        method = getattr(IntPoly, name)

        def wrapper(self, other):
            counts[name] += 1
            return method(self, other)
        return wrapper

    for name in counts:
        monkeypatch.setattr(IntPoly, name, counting(name))
    monkeypatch.setattr(IntPoly, "__rmul__", IntPoly.__mul__)
    monkeypatch.setattr(IntPoly, "__radd__", IntPoly.__add__)
    f = IntPoly([7, -3, 12, 5, -9, 2, 4, -1, 6, 3, 1])
    for phi in (IntPoly([3, 1]), IntPoly([1, 1, 1]), IntPoly([2, 0, 1, 1])):
        for name in counts:
            counts[name] = 0
        e = phi_expand(f, phi)
        assert counts == {"__divmod__": len(e.coefficients), "__mul__": 0, "__add__": 0}
        assert len(e.coefficients) == f.degree // phi.degree + 1


def test_newton_polygon_examples():
    n = poly_of(X**4 - 2, X, 2)
    assert n.vertices == ((0, 1), (4, 0))
    s = n.sides[0]
    assert s.slope == Fraction(-1, 4) and s.length == 4 and s.degree == 1 and s.ramification == 4

    n = poly_of(X**4 + 2 * X**2 + 4, X, 2)
    assert n.vertices == ((0, 2), (4, 0))
    s = n.sides[0]
    assert s.slope == Fraction(-1, 2) and s.degree == 2 and s.ramification == 2
    assert n.on_polygon(2, 1)

    n = poly_of(X**4 + 2 * X + 4, X, 2)
    assert [s.slope for s in n.sides] == [Fraction(-1), Fraction(-1, 3)]


def test_principal_part_and_ordinates():
    f = IntPoly.monic_quartic(1, 0, 50)
    pp = principal_part(poly_of(f, X, 5))
    assert pp.length == 2
    assert [s.slope for s in pp.sides] == [Fraction(-1)]
    assert ordinates(pp) == [2, 1, 0]

    pp = principal_part(poly_of(X**4 - 2, X, 2))
    assert pp.length == 4
    assert ordinates(pp) == [1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), 0]

    pp = principal_part(poly_of(X**4 + 2 * X**2 + 4, X, 2))
    assert ordinates(pp) == [2, Fraction(3, 2), 1, Fraction(1, 2), 0]

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
    cs = residual_coefficients(pp, e, FqField(5, X))
    assert cs == [2, 0, 1]
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


def test_regularity_examples():
    assert is_phi_regular(X**4 + 2 * X**2 + 4, X, 2).regular
    assert is_phi_regular(IntPoly.monic_quartic(1, 0, 50), X, 5).regular
    rep = is_phi_regular(X**4 + 4 * X**2 + 4, X, 2)
    assert not rep.regular
    side, g, m = rep.witnesses[0]
    assert side.slope == Fraction(-1, 2)
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
    """Smaller version of the acceptance property suite for fast feedback."""
    rng = random.Random(12)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 13])
        f = IntPoly([rng.randint(-p**3, p**3) for _ in range(rng.randint(2, 7))] + [1])
        if f.vp(p) != 0:
            continue
        phi = _random_phi(rng, p)
        e = phi_expand(f, phi)
        n = newton_polygon(e, p)
        slopes = [s.slope for s in n.sides]
        assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
        for i, u in n.points:
            if u is not None and not isinstance(u, int):
                continue
            if isinstance(u, int):
                for s in n.sides:
                    if s.start[0] <= i <= s.end[0]:
                        assert Fraction(u) >= s.ordinate_at(i)
        pp = principal_part(n)
        assert pp.length == ord_mod_p(f, phi, p)
        if pp.length >= 1 and pp.start_abscissa() == 0:
            ys = ordinates(pp)
            assert all(a > b for a, b in zip(ys, ys[1:]))
            assert ys[-1] == 0
            assert phi.degree * index_from_ordinates(ys) == phi.degree * lattice_point_count(pp)
            assert phi_index(f, phi, p) == phi.degree * lattice_point_count(pp)
            cs = residual_coefficients(pp, e, FqField(p, phi))
            assert len(cs) == pp.length + 1 and cs[0] and cs[-1]
            for sd in phi_polygon_data(f, phi, p)[2]:
                assert len(sd.residual) - 1 == sd.side.degree and sd.residual[-1]
                assert sd.residual[0]


def test_serialization():
    n = poly_of(X**4 + 2 * X + 4, X, 2)
    js = polygon_to_json(n)
    assert js["sides"][0]["slope"] == "-1"
    assert js["sides"][1]["slope"] == "-1/3"
    svg = polygon_to_svg(n)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "circle" in svg and "polyline" in svg
