"""Test-side references for the Newton-polygon layer and the quartic
irreducibility guard.

The library does its polygon geometry in integers: floored ordinates,
integer side data and a slope that exists only as text.  The references
here recompute the same facts the textbook way, with Fraction ordinates
interpolated between the vertices and the slope as a Fraction, and share
no code with pintbasis.newton beyond the polygon records they read.  The
second-order step is recomputed the same way, with the ordinate Y and nu as
Fractions.  The guard's exact quartic test is checked against a search for
linear and quadratic factors by division.

The library's local linear algebra runs on integers too.  The Hermite form
over Z_(p) is recomputed by elimination over Fractions with p-free
denominators (fraction_triangularize), and the trace form of any family,
order or not, as a matrix of Fractions with its determinant, the
discriminant of the family (fraction_gram_matrix, basis_discriminant).
"""

from fractions import Fraction

from pintbasis.arith import INFINITY, check_prime, is_finite, vp
from pintbasis.basis import BasisElement, PIntegralBasis
from pintbasis.errors import InconsistentError, RankDeficientError
from pintbasis.fq import FpArith, FqField
from pintbasis.intpoly import IntPoly
from pintbasis.newton import (
    is_p_regular,
    newton_polygon,
    ordinates,
    phi_expand,
    phi_polygon_data,
    principal_part,
)
from pintbasis.oracle import _det_bareiss, _numerator_traces


def ord_mod_p(f, phi, p):
    """Largest a with phi^a | f mod p (0 when phi does not divide f mod p)."""
    check_prime(p)
    fp = FpArith(p)
    fbar = fp.reduce(f.coeffs)
    pbar = fp.reduce(phi.coeffs)
    a = 0
    while True:
        q, r = fp.divmod(fbar, pbar)
        if r:
            return a
        a += 1
        fbar = q


def phi_index(f, phi, p):
    """ind_phi(f) from a development of its own: deg(phi) times the sum of
    floor(y_j) for 0 < j < ell over the principal polygon, which the
    PhiRegularity record of phi must give as its index."""
    principal = principal_part(newton_polygon(phi_expand(f, phi), p))
    if principal.length < 1:
        return 0
    return phi.degree * sum(ordinates(principal)[1:-1])


def ind_p_lower_bound(f, p):
    """sum of ind_phi(f) over the lifts; equals ind_p(f) when f is p-regular."""
    return sum(reg.index for reg in is_p_regular(f, p).by_phi)


def fraction_slope(side):
    return Fraction(side.end[1] - side.start[1], side.end[0] - side.start[0])


def exact_ordinate(polygon, x):
    """The ordinate of the polygon above abscissa x, interpolated as a
    Fraction between the vertices around x."""
    vs = polygon.vertices
    if vs and x == vs[0][0]:
        return Fraction(vs[0][1])
    for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
        if x0 <= x <= x1:
            return y0 + Fraction(y1 - y0, x1 - x0) * (x - x0)
    raise ValueError(f"abscissa {x} outside polygon")


def exact_ordinates(principal):
    """y_0 .. y_ell as Fractions, with the INFINITY prefix of ordinates."""
    start = principal.start_abscissa()
    return [INFINITY] * start + [exact_ordinate(principal, j)
                                 for j in range(start, principal.length + 1)]


def lattice_point_count(principal):
    """Number of integer points strictly right of the vertical axis and
    strictly above the horizontal axis, on or below the polygon, counted
    one by one against the Fraction ordinates."""
    count = 0
    for i in range(1, principal.length + 1):
        y = exact_ordinate(principal, i)
        j = 1
        while j <= y:
            count += 1
            j += 1
    return count


def fraction_residual(principal, side, expansion, field):
    """The residual polynomial of a principal side: c_i = red(a_i / p^u_i)
    for every point (i, u_i) that a Fraction test puts on the polygon, 0
    off it, read at s, s + e, ..., s + d e with e the denominator of the
    Fraction slope."""
    cs = []
    for i, u in principal.points:
        on = is_finite(u) and Fraction(u) == exact_ordinate(principal, i)
        a = expansion.coefficients[i]
        cs.append(field.elem(a.divide_exact(field.p**u)) if on else field.arith.zero)
    e = fraction_slope(side).denominator
    return [cs[side.start[0] + k * e] for k in range(side.length // e + 1)]


def check_polygon_geometry(f, phi, p):
    """Every integer fact the library reads off the phi-polygon of f at p,
    checked against the Fraction reference: slopes, ramification and degree
    on every side of the full polygon; floors, the index and the residual
    polynomials on the principal part.  Returns the polygon."""
    expansion = phi_expand(f, phi)
    polygon = newton_polygon(expansion, p)
    slopes = [fraction_slope(s) for s in polygon.sides]
    assert slopes == sorted(slopes) and len(set(slopes)) == len(slopes)
    for side, slope in zip(polygon.sides, slopes):
        assert side.slope == str(slope), (side, slope)
        e = slope.denominator if slope else side.length
        assert side.ramification == e and side.degree == side.length // e, side
    for i, u in polygon.points:
        if is_finite(u):
            assert u >= exact_ordinate(polygon, i)
    pp = principal_part(polygon)
    assert pp.length == ord_mod_p(f, phi, p), (f.render(), phi.render(), p)
    assert [fraction_slope(s) for s in pp.sides] == [s for s in slopes if s < 0]
    if pp.length < 1:
        assert phi_index(f, phi, p) == 0
        return polygon
    if pp.start_abscissa() <= 1:  # else phi^2 divides f, and ordinates refuses it
        exact = exact_ordinates(pp)
        finite = exact[pp.start_abscissa():]
        assert all(a > b for a, b in zip(finite, finite[1:])) and exact[-1] == 0
        assert ordinates(pp) == [y // 1 if is_finite(y) else y for y in exact]
        assert phi_index(f, phi, p) == phi.degree * lattice_point_count(pp)
    field = FqField(p, phi)
    data = phi_polygon_data(f, phi, p)[2]
    assert [sd.side for sd in data] == list(pp.sides)
    for sd in data:
        assert sd.residual == fraction_residual(pp, sd.side, expansion, field)
        assert len(sd.residual) - 1 == sd.side.degree and sd.residual[-1]
        assert sd.residual[0]
    return polygon


def fraction_second_order(F, p, phi):
    """The second-order step the textbook way: the development
    F = phi^2 + a1 phi + a0 by two long divisions, v2(m x + n) =
    min(2 v(m) + 1, 2 v(n)), the ordinate Y at abscissa 1 of the lower hull
    of (0, v2(a0)), (1, v2(a1) + 2), (2, 4) as a Fraction, nu = Y/2 - 1 and
    the elements 1, theta, Q/p^floor(nu), theta Q/p^floor(nu + 1/2) with
    Q = phi + a1.  Returns (elements, Y, ind_p) with ind_p = floor(Y) - 2."""
    Q, a0 = divmod(F, phi)
    one, a1 = divmod(Q, phi)
    assert one == IntPoly([1]) and not a0.is_zero()

    def v2(a):
        vals = [2 * vp(a[0], p)] if a[0] else []
        vals += [2 * vp(a[1], p) + 1] if a[1] else []
        return min(vals) if vals else INFINITY

    Y = Fraction(v2(a0) + 4, 2)
    if is_finite(v2(a1)):
        Y = min(Y, Fraction(v2(a1) + 2))
    nu = Y / 2 - 1
    x = IntPoly([0, 1])
    elements = (BasisElement(IntPoly([1]), 0), BasisElement(x, 0),
                BasisElement(Q, nu // 1), BasisElement(Q * x, (nu + Fraction(1, 2)) // 1))
    return elements, Y, Y // 1 - 2


def quartic_is_reducible(f):
    """Whether the monic quartic f has a monic integer factor of degree 1
    or 2, by trial division.  A linear factor x - r has r | f(0).  A
    quadratic factor x^2 + ux + v has v | f(0), and -u is a sum of two roots
    of f, so |u| is at most twice Cauchy's bound 1 + max |a_i|."""
    a = f.coeffs
    if a[0] == 0:
        return True
    divisors = [d for d in range(1, abs(a[0]) + 1) if a[0] % d == 0]
    divisors += [-d for d in divisors]
    if any(f(r) == 0 for r in divisors):
        return True
    bound = 2 * (1 + max(abs(c) for c in a[:-1]))
    for v in divisors:
        for u in range(-bound, bound + 1):
            r = list(a)  # the remainder of f by x^2 + ux + v, by long division
            for k in range(4, 1, -1):
                r[k - 1] -= r[k] * u
                r[k - 2] -= r[k] * v
            if r[0] == r[1] == 0:
                return True
    return False


def fraction_triangularize(elements, p, n, generators=None, meta=None):
    """The Hermite form over Z_(p) the textbook way, with Fractions: the
    canonical triangular basis of the Z_(p)-module spanned by the given
    elements.

    Denominators are cleared to a common power p^E, then one elimination
    over Z_(p) runs from the top degree down.  Each column takes as pivot a
    remaining row whose entry has the least p-valuation v, divided by the
    unit part of that entry so the pivot is exactly p^v; every other row
    loses a p-integral multiple of it, which keeps the local span.  Entries
    stay integers while those divisions are exact and are otherwise
    Fractions with p-free denominators, bounded by minors of the input.
    Walking downward, each row is then reduced modulo the pivots below it
    into [0, p^v).  The Hermite form over Z_(p) is unique, so the result is
    one element per degree with minimal denominator, and two families give
    the same result iff they span the same module."""
    elements = list(elements)
    E = max((e.denom_exp for e in elements), default=0)
    rows = []
    for e in elements:
        if e.numerator.degree >= n:
            raise ValueError("numerator degree exceeds ambient rank")
        scale = p ** (E - e.denom_exp)
        rows.append([e.numerator[k] * scale for k in range(n)])
    pivots = [None] * n  # pivots[col] has length col + 1, as do the rows left
    for col in range(n - 1, -1, -1):
        candidates = [(vp(r[col].numerator, p), i) for i, r in enumerate(rows) if r[col]]
        if not candidates:
            raise RankDeficientError("elements do not span a rank-n module")
        v, i = min(candidates)
        piv, pv = rows.pop(i), p**v
        if piv[col] != pv:
            unit = Fraction(piv[col]) / pv
            u = unit.numerator
            if unit.denominator == 1 and all(type(c) is int and c % u == 0 for c in piv):
                piv = [c // u for c in piv]
            else:
                piv = [c / unit for c in piv]
        piv[col] = pv  # an int, even where the entry was a Fraction
        pivots[col] = piv
        for j, r in enumerate(rows):
            if r[col]:
                m = r[col] // pv if type(r[col]) is int else r[col] / pv
                r = [a - m * b for a, b in zip(r, piv)]
            rows[j] = r[:col]
    # reduce the entries of each row into [0, pivot), walking the reference
    # pivots downward so a subtraction never disturbs a column that was
    # already reduced (pivot rows vanish above their own column)
    for col2 in range(n):
        row = pivots[col2]
        for col in range(col2 - 1, -1, -1):
            piv = pivots[col]
            pv, c = piv[col], row[col]
            if type(c) is int:
                q = c // pv
            else:
                q = (c - c.numerator * pow(c.denominator, -1, pv) % pv) / pv
            if q:
                row = [a - q * b for a, b in zip(row, piv)] + row[col + 1 :]
        pivots[col2] = row
    out = []
    index_valuation = 0
    for k, row in enumerate(pivots):
        if any(c.denominator != 1 for c in row):
            raise InconsistentError("triangular row is not p-integral after reduction")
        row = [int(c) for c in row]
        piv_v = vp(row[k], p)
        if p**piv_v != row[k]:
            raise InconsistentError("pivot is not a power of p after elimination")
        index_valuation += E - piv_v
        strip = min([E] + [vp(c, p) for c in row if c])
        num = IntPoly([c // p**strip for c in row])
        out.append(BasisElement(num, E - strip))
    return PIntegralBasis(
        p,
        tuple(out),
        index_valuation,
        tuple(generators if generators is not None else elements),
        dict(meta or {}),
    )


def vp_frac(q, p):
    """p-adic valuation of a rational number (INFINITY for 0)."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return vp(q.numerator, p) - vp(q.denominator, p)


def fraction_gram_matrix(f, basis):
    """Tr(w_i w_j) as exact Fractions, for any family of elements: the
    numerators' traces over p^(e_i + e_j)."""
    p, els = basis.p, basis.elements
    return [[Fraction(t, p ** (els[i].denom_exp + els[j].denom_exp)) for j, t in enumerate(row)]
            for i, row in enumerate(_numerator_traces(f, basis))]


def basis_discriminant(f, basis):
    """disc of the family, the determinant of its trace-form Gram matrix:
    the integer determinant of the numerators' traces over p^(2 sum e_i)."""
    e = sum(el.denom_exp for el in basis.elements)
    return Fraction(_det_bareiss(_numerator_traces(f, basis)), basis.p ** (2 * e))
