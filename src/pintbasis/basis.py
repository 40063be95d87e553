"""p-integral bases for p-regular polynomials of arbitrary degree, the
decomposition type of p, the index lower bound, and canonical
triangularization of generating sets over the localization at p.

A basis element represents g(theta)/p^e by an integer numerator polynomial
of degree < n and a denominator exponent e.  Triangularized bases have one
element per degree 0..n-1 with pivot coefficient a power of p, reduced
entries above it, and minimal denominators; two modules are equal iff their
triangularized forms are identical.
"""

from fractions import Fraction

from .arith import vp
from .errors import InconsistentError, NotRegularError, RankDeficientError
from .factor import factor_mod_p, sanity_check_irreducible
from .fq import factor_fqpoly
from .intpoly import IntPoly
from .newton import is_p_regular, ordinates, phi_index, phi_polygon_data
from .record import Record

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


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


# -- decomposition data ----------------------------------------------------------


class PrimeEntry(Record):
    """One p-adic prime (or unresolved cluster) attached to an irreducible
    residual factor, a kernel polynomial over field (the residue field of
    phi): e and f are None when the factor is multiple."""

    phi: IntPoly
    slope: object
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
    return _decomposition(f, p, is_p_regular(f, p))


def _decomposition(f, p, report):
    """decomposition_type for an f already checked by the irreducibility
    guard, read from the p-regularity report of its lifts (is_p_regular),
    which holds the residual polynomial of every principal side."""
    entries = []
    complete = True
    for reg in report.by_phi:
        phi = reg.phi
        if not reg.sides:  # an empty principal polygon
            raise InconsistentError(f"lift {phi.render()} does not divide f mod {p}")
        for sd in reg.sides:
            _, factors = factor_fqpoly(sd.field, sd.residual)
            for g, m in factors:
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


def ind_p_lower_bound(f, p):
    """sum of ind_phi(f) over the lifts; equals ind_p(f) when f is p-regular."""
    return sum(phi_index(f, phi, p) for phi, _ in factor_mod_p(f, p))


def regular_basis_generators(f, p, report):
    """The n elements q_{i,j}(theta) theta^k / p^{floor(y_{i,j})} of the
    regular-case basis construction: quotients of the phi-adic developments
    over the floored polygon ordinates, for the lifts of the p-regularity
    report (is_p_regular).  Raises NotRegularError when the report names an
    inseparable residual polynomial."""
    if not report.regular:
        raise NotRegularError(*report.first_witness())
    n = f.degree
    gens = []
    total_m = 0
    for phi in (reg.phi for reg in report.by_phi):
        expansion, principal, _ = phi_polygon_data(f, phi, p)
        ell = principal.length
        if ell == 0:
            raise InconsistentError(f"lift {phi.render()} does not divide f mod {p}")
        ys = ordinates(principal)
        total_m += ell * phi.degree
        for j in range(1, ell + 1):
            denom = int(ys[j] // 1)
            q = expansion.quotients[j - 1]
            for k in range(phi.degree):
                num = q * IntPoly.x(k)
                if num.degree >= n:
                    raise InconsistentError("generator degree out of range")
                gens.append(BasisElement(num, denom))
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
    return _regular_basis(f, p, is_p_regular(f, p))


def _regular_basis(f, p, report):
    """p_integral_basis_regular for an f already checked by the
    irreducibility guard, with the p-regularity report of its lifts in
    hand."""
    gens = regular_basis_generators(f, p, report)
    expected = sum(phi_index(f, reg.phi, p) for reg in report.by_phi)
    basis = triangularize(gens, p, f.degree, generators=gens)
    if basis.index_valuation != expected:
        raise InconsistentError(
            f"index valuation {basis.index_valuation} != sum of phi-indices {expected}"
        )
    return basis
