"""p-integral bases for p-regular polynomials of arbitrary degree, the
decomposition type of p, the index lower bound, and canonical
triangularization of generating sets over the localization at p.

A basis element represents g(theta)/p^e by an integer numerator polynomial
of degree < n and a denominator exponent e.  Triangularized bases have one
element per degree 0..n-1 with pivot coefficient a power of p, reduced
entries above it, and minimal denominators; two modules are equal iff their
triangularized forms are identical.
"""

from math import gcd

from .arith import vp
from .errors import InconsistentError, NotRegularError, RankDeficientError
from .factor import sanity_check_irreducible
from .intpoly import IntPoly
from .newton import is_p_regular
from .record import Record


class BasisElement(Record):
    """numerator(theta) / p^denom_exp with deg numerator < deg f."""

    numerator: IntPoly
    denom_exp: int

    def render(self, p, var="θ"):
        num = self.numerator.render(var, unicode_powers=True)
        if self.denom_exp == 0:
            return num
        den = p**self.denom_exp
        if self.numerator.degree > 0 and len([c for c in self.numerator.coeffs if c]) > 1:
            return f"({num})/{den}"
        return f"{num}/{den}"

    def to_json(self):
        return {"numerator": self.numerator.render("x"), "denom_exp": self.denom_exp}


class PIntegralBasis(Record):
    p: int
    elements: tuple  # one BasisElement per degree 0..n-1, triangular
    index_valuation: int
    generators: tuple = ()  # pre-triangularization family, for display
    meta: dict = None  # route and table rows; not compared
    _compare = ("p", "elements", "index_valuation", "generators")

    def __post_init__(self):
        if self.meta is None:
            self.__dict__["meta"] = {}

    @property
    def n(self):
        return len(self.elements)

    def render(self, var="θ"):
        return ", ".join(e.render(self.p, var) for e in self.elements)

    def render_generators(self, var="θ"):
        return ", ".join(e.render(self.p, var) for e in self.generators)

    def to_json(self, decomposition=None):
        out = {
            "p": self.p,
            "index_valuation": self.index_valuation,
            "elements": [e.to_json() for e in self.elements],
        }
        if decomposition is not None:
            out["decomposition"] = [
                {"e": entry.e, "f": entry.f} for entry in decomposition.entries
            ]
        if self.meta:
            out["meta"] = {
                k: v for k, v in self.meta.items() if isinstance(v, (str, int, list))
            }
        return out


def power_basis(p, n):
    els = tuple(BasisElement(IntPoly.x(k), 0) for k in range(n))
    return PIntegralBasis(p, els, 0, els)


# -- triangularization -----------------------------------------------------------


def triangularize(elements, p, n, generators=None, meta=None):
    """Canonical triangular basis of the Z_(p)-module spanned by the given
    elements, in integers (Cohen, GTM 138, 2.4).

    Denominators are cleared to a common power p^E, then one elimination
    over Z_(p) runs from the top degree down.  Each column takes as pivot a
    remaining row whose entry u*p^v has the least p-valuation, negated so
    that u > 0; every other row r becomes u*r - (r[col]/p^v)*pivot and is
    divided by the p-free part of its content.  Both are scalings by
    p-units, so the local span is kept.  Walking upward, each pivot row,
    still u times its canonical row, has its entry c above a lower pivot p^w
    reduced to u*(c*u^-1 mod p^w), and is then divided by u exactly.  Rows
    with u = 1 skip the scalings.  The Hermite form over Z_(p) is unique, so
    the result is one element per degree with minimal denominator, and two
    families give the same result iff they span the same module."""
    elements = list(elements)
    E = max((e.denom_exp for e in elements), default=0)
    rows = []
    for e in elements:
        if e.numerator.degree >= n:
            raise ValueError("numerator degree exceeds ambient rank")
        scale = p ** (E - e.denom_exp)
        rows.append([e.numerator[k] * scale for k in range(n)])
    pivots = [None] * n  # pivots[col] has length col + 1, as do the rows left
    units = [1] * n  # the pivot entry of pivots[col] is units[col] * p^v
    for col in range(n - 1, -1, -1):
        candidates = [(vp(r[col], p), i) for i, r in enumerate(rows) if r[col]]
        if not candidates:
            raise RankDeficientError("elements do not span a rank-n module")
        v, i = min(candidates)
        piv, pv = rows.pop(i), p**v
        if piv[col] < 0:
            piv = [-a for a in piv]
        u = units[col] = piv[col] // pv
        pivots[col] = piv
        for j, r in enumerate(rows):
            m = r[col] // pv
            if not m:
                r = r[:col]
            elif u == 1:
                r = [a - m * b for a, b in zip(r[:col], piv)]
            else:
                r = [u * a - m * b for a, b in zip(r[:col], piv)]
                g = gcd(*r)
                if g > 1:
                    g //= p ** vp(g, p)
                    if g > 1:
                        r = [a // g for a in r]
            rows[j] = r
    # reduce the entries of each row into [0, pivot), walking the reference
    # pivots downward so a subtraction never disturbs a column that was
    # already reduced (pivot rows vanish above their own column)
    for col2 in range(n):
        row, u = pivots[col2], units[col2]
        if u != 1:
            inv = pow(u, -1, max((pivots[col][col] for col in range(col2)), default=1))
        for col in range(col2 - 1, -1, -1):
            piv = pivots[col]
            pw, c = piv[col], row[col]
            q = c // pw if u == 1 else (c - u * (c * inv % pw)) // pw
            if q:
                row = [a - q * b for a, b in zip(row, piv)] + row[col + 1 :]
        if u != 1:
            if any(a % u for a in row):
                raise InconsistentError("triangular row is not p-integral after reduction")
            row = [a // u for a in row]
        pivots[col2] = row
    out = []
    index_valuation = 0
    for k, row in enumerate(pivots):
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


# -- decomposition data ----------------------------------------------------------


class PrimeEntry(Record):
    """One p-adic prime (or unresolved cluster) attached to an irreducible
    residual factor, a kernel polynomial over field (the residue field of
    phi): e and f are None when the factor is multiple."""

    phi: IntPoly
    slope: str  # as Side.slope renders it, or "-inf"
    field: object
    residual_factor: list
    multiplicity: int
    e: int | None
    f: int | None


class DecompositionType(Record):
    entries: tuple
    complete: bool

    def ef_pairs(self):
        return [(en.e, en.f) for en in self.entries]


def decomposition_type(f, p):
    """Slopes and residual factorizations for every lift; when every residual
    factor is simple the full list of (e, f) invariants of the primes above p
    is emitted and checked against deg f."""
    sanity_check_irreducible(f)
    return _decomposition(is_p_regular(f, p))


def _decomposition(report):
    """decomposition_type for an f already checked by the irreducibility
    guard, read from the p-regularity report of its lifts (is_p_regular),
    which holds the residual factorization of every principal side."""
    f, p = report.analysis.f, report.analysis.p
    entries = []
    complete = True
    for reg in report.by_phi:
        phi = reg.phi
        if phi == f:  # f mod p is irreducible: one side of slope -infinity
            entries.append(PrimeEntry(phi, "-inf", reg.field, [0, 1], 1, 1, phi.degree))
            continue
        if not reg.sides:  # an empty principal polygon
            raise InconsistentError(f"lift {phi.render()} does not divide f mod {p}")
        for sd in reg.sides:
            for g, m in sd.factors:
                if m == 1:
                    entries.append(
                        PrimeEntry(
                            phi,
                            sd.side.slope,
                            sd.field,
                            g,
                            1,
                            sd.side.ramification,
                            phi.degree * (len(g) - 1),
                        )
                    )
                else:
                    complete = False
                    entries.append(
                        PrimeEntry(phi, sd.side.slope, sd.field, g, m, None, None))
    if complete:
        total = sum(en.e * en.f for en in entries)
        if total != f.degree:
            raise InconsistentError(
                f"sum of e*f = {total} differs from deg f = {f.degree}"
            )
    return DecompositionType(tuple(entries), complete)


def regular_basis_generators(report):
    """The n elements q_{i,j}(theta) theta^k / p^{floor(y_{i,j})} of the
    regular-case basis construction: quotients of the phi-adic developments
    over the floored polygon ordinates, read from the record of each lift
    in the p-regularity report (is_p_regular).  Raises NotRegularError when
    the report names an inseparable residual polynomial."""
    if not report.regular:
        raise NotRegularError(*report.first_witness())
    f, p = report.analysis.f, report.analysis.p
    n = f.degree
    gens = []
    total_m = 0
    for reg in report.by_phi:
        phi, ell = reg.phi, reg.principal.length
        if ell == 0:
            raise InconsistentError(f"lift {phi.render()} does not divide f mod {p}")
        ys = reg.ordinates
        total_m += ell * phi.degree
        for j in range(1, ell + 1):
            q = reg.expansion.quotients[j - 1]
            for k in range(phi.degree):
                num = q * IntPoly.x(k)
                if num.degree >= n:
                    raise InconsistentError("generator degree out of range")
                gens.append(BasisElement(num, ys[j]))
    if total_m != n:
        raise InconsistentError(
            "lifts do not cover f mod p: sum ell_i * m_i != deg f"
        )
    return gens


def p_integral_basis_regular(f, p):
    """Triangularized p-integral basis for a p-regular monic irreducible f,
    from the quotients of the phi-adic developments and the polygon
    ordinates.  The index valuation is checked against the sum of the
    phi-indices (they must agree in the regular case) before returning."""
    sanity_check_irreducible(f)
    return _regular_basis(is_p_regular(f, p))


def _regular_basis(report):
    """p_integral_basis_regular for an f already checked by the
    irreducibility guard, with the p-regularity report of its lifts in
    hand.  The phi-indices are read from the records of the report."""
    f, p = report.analysis.f, report.analysis.p
    gens = regular_basis_generators(report)
    expected = sum(reg.index for reg in report.by_phi)
    basis = triangularize(gens, p, f.degree, generators=gens)
    if basis.index_valuation != expected:
        raise InconsistentError(
            f"index valuation {basis.index_valuation} != sum of phi-indices {expected}"
        )
    return basis
