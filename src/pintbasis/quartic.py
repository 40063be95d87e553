"""p-integral bases of quartic fields x^4 + a x^2 + b x + c, by explicit
case analysis on the factorization of f mod p.

The classifier distinguishes thirteen mutually exclusive cases; each case
picks regular lifts of the repeated factors (iterating a shift s -> s + y p^d
when a chosen lift is irregular) and then reads the basis off the polygon
ordinates.  Every dispatch table is encoded as literal rows with guard
predicates so individual rows are unit-testable, and the row that fired is
recorded in the result metadata.  The tables are in pintbasis.tables and the
constructions of the 4-tuple-root cases E1 and E2 in pintbasis.quartic_e.

A row works on f itself or on the quartic F(x) = f(p^k x + m)/p^(4k) of
tau = (theta - m)/p^k, whose analysis _transformed builds with disc f
carried over.  Every fired row ends in _finish, which builds Ore's basis on
lifts of F or takes a second-order family or E1's reduced basis, moves it
back to theta and keeps the row's display family as the generators.
"""

from enum import Enum

from .arith import INFINITY, inv_mod, is_finite, legendre, symmetric_rep, vp
from .errors import InconsistentError, IterationPreconditionError
from .factor import sanity_check_irreducible
from .fq import FpArith
from .intpoly import IntPoly
from .newton import LocalAnalysis
from .basis import BasisElement, PIntegralBasis, _regular_basis, triangularize
from .record import Record
from .tables import match_table1

_X = IntPoly([0, 1])
_ONE = IntPoly([1])


class QuarticCase(Enum):
    SEPARABLE = "SEPARABLE"
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    B4 = "B4"
    C1 = "C1"
    C2 = "C2"
    D1 = "D1"
    D2 = "D2"
    E1 = "E1"
    E2 = "E2"


class QuarticContext(Record):
    """What the case constructions read about (f, p), computed once: the
    coefficients of f, Delta = v_p(disc f), the factorization case mod p and
    the analysis of (f, p): disc f, the factors of f mod p, the lift records."""

    a: int
    b: int
    c: int
    Delta: int
    case: QuarticCase
    analysis: LocalAnalysis
    f = property(lambda self: self.analysis.f)
    p = property(lambda self: self.analysis.p)


def make_context(analysis):
    """The context of f = x^4+ax^2+bx+c at p from the analysis of (f, p),
    which may already hold records, such as the generic route's report.
    The closed form of disc f is checked against the analysis' disc: the
    resultant, the guard's, or the one a transformed quartic carries."""
    f, p = analysis.f, analysis.p
    a, b, c = f[2], f[1], f[0]
    disc = (
        16 * a**4 * c - 128 * a**2 * c**2 + 144 * a * b**2 * c
        - 4 * a**3 * b**2 + 256 * c**3 - 27 * b**4
    )
    if disc != analysis.disc:
        raise InconsistentError("closed-form discriminant disagrees with resultant")
    return QuarticContext(a, b, c, vp(disc, p) if disc else 0, _case(a, b, c, p, disc),
                          analysis)


def classify(a, b, c, p):
    """The factorization shape of x^4+ax^2+bx+c mod p, assuming f irreducible
    over Q.  Exactly one case applies; Inconsistent would indicate a bug."""
    return make_context(LocalAnalysis(IntPoly.monic_quartic(a, b, c), p)).case


def _case(a, b, c, p, disc):
    if disc % p != 0:
        return QuarticCase.SEPARABLE
    if p == 2:
        # 2 | disc forces 2 | b; split on the parities of a and c
        if b % 2 != 0:
            raise InconsistentError("2 | disc(f) requires 2 | b")
        if a % 2 and c % 2:
            return QuarticCase.A2
        if a % 2:
            return QuarticCase.C2
        if c % 2:
            return QuarticCase.E2
        return QuarticCase.E1
    if a % p and b % p == 0 and c % p == 0:
        return QuarticCase.B1
    if a % p and b % p and c % p == 0:
        if (4 * a**3 + 27 * b**2) % p == 0:
            return QuarticCase.B2
    if a % p == 0 and b % p and c % p:
        if (256 * c**3 - 27 * b**4) % p == 0:
            return QuarticCase.B3
    if a % p and b % p and c % p:
        if (2 * a * (a**2 - 4 * c) + 9 * b**2) % p:
            return QuarticCase.B4
        if p > 3:
            return QuarticCase.D1
    if p == 3 and a % 3 == 0 and b % 3 and c % 3 == 0:
        return QuarticCase.D2
    if a % p == 0 and b % p == 0 and c % p == 0:
        return QuarticCase.E1
    if a % p and b % p == 0 and c % p:
        half = inv_mod(2, p)
        if (a * a - 4 * c) % p == 0:
            s = legendre(-a * half % p, p)
            if s == -1:
                return QuarticCase.A1
            if s == 1:
                return QuarticCase.C1
    raise InconsistentError(f"no factorization case matches ({a},{b},{c}) at p={p}")


# -- p-adic roots ----------------------------------------------------------------


def _hensel_root(g, s, p, k):
    """The root of g mod p^k in [0, p^k) congruent to s, a simple root of g
    mod p, by Newton steps that double the precision."""
    dg = g.derivative()
    s, prec = s % p, 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        s = (s - g(s) * inv_mod(dg(s), m)) % m
    return s


def sqrt_mod_pk(a, p, k):
    """Smallest s in [0, p^k) with s^2 = a (mod p^k), for odd p with p not
    dividing a.  Returns None when a is a non-residue mod p.  The root mod p
    comes from the F_p kernel's factorization of y^2 - a, and _hensel_root
    lifts it."""
    if p == 2:
        raise ValueError("p must be odd")
    if k < 1:
        raise ValueError("k must be positive")
    if a % p == 0:
        raise ValueError("p must not divide a (strip p-parts first)")
    first = FpArith(p).factor([-a % p, 0, 1])[1][0][0]
    if len(first) != 2:
        return None
    s = _hensel_root(IntPoly([-a, 0, 1]), -first[0], p, k)
    return min(s, p**k - s)


# -- valuation profiles and the shift iteration ---------------------------------


class ValuationProfile(Record):
    """Exact Taylor data of a monic quartic F at the integer s:
    u_i = v_p of F(s), F'(s), F''(s)/2, F'''(s)/6 and the p-free parts."""

    s: int
    u0: object
    u1: object
    u2: object
    u3: object
    sigma0: int
    sigma1: int
    sigma2: int
    sigma3: int

    def us(self):
        return (self.u0, self.u1, self.u2, self.u3)


def valuation_profile(reg, p):
    """The profile of F at s, read from reg, the record of the lift x - s:
    the digits a_i of the (x - s)-adic development F = sum a_i (x - s)^i
    are the Taylor coefficients F^(i)(s)/i!."""
    digits = reg.expansion.coefficients
    if len(digits) != 5 or digits[4] != _ONE:
        raise ValueError("monic quartic required")
    vals = [a[0] for a in digits[:4]]
    us = [vp(v, p) for v in vals]
    sigmas = [v // p**u if v else 0 for v, u in zip(vals, us)]
    return ValuationProfile(-reg.phi[0], *us, *sigmas)


def check_initial_conditions(profile, reg):
    """Which admissible starting pattern the integer s = profile.s
    satisfies: 'I', 'II', 'III', or None.  Pattern III also demands a
    separable residual on the right part [2,4] of the polygon, read from
    reg, the analysis of the lift x - s."""
    u0, u1, u2, u3 = profile.us()
    if u2 == 0 and u1 > 0 and u0 > 0:
        return "I"
    if u3 == 0 and u2 > 0 and u1 > 0 and u0 > 0:
        return "II"
    if (
        is_finite(u2)
        and u2 > 0
        and u0 > 2 * u2
        and 2 * u1 > 3 * u2
        and 2 * u3 >= u2
        and all(sd.separable for sd in reg.sides if sd.side.start[0] >= 2)
    ):
        return "III"
    return None


def _lift_at(analysis, s):
    """The analysis record of the lift x - s."""
    return analysis.of(IntPoly([-s, 1]))


class IterationStep(Record):
    s: int
    ind: int
    delta: int
    y: int
    row: int


def iterate_to_regular(analysis, s0, record=None):
    """Shift s -> s + y p^delta until F = analysis.f is (x-s)-regular at
    p = analysis.p, and return the analysis record of that final x - s;
    delta is the slope of the unique inseparable side and y lifts its
    multiple residual root.  Each s is analysed and profiled once.

    The phi-index strictly increases across irregular steps (asserted), so
    the loop ends within v_p(disc F)/2 + 1 steps."""
    p = analysis.p
    reg = _lift_at(analysis, s0)
    profile = valuation_profile(reg, p)
    cond = check_initial_conditions(profile, reg)
    if cond is None:
        raise IterationPreconditionError(
            f"s={s0} matches no admissible starting pattern at p={p}"
        )
    bound = vp(analysis.disc, p) // 2 + 1
    steps = []
    while not reg.regular:
        if len(steps) > bound:
            raise InconsistentError("iteration exceeded its index bound")
        bad_sides = {w[0] for w in reg.witnesses}
        if len(bad_sides) != 1:
            raise InconsistentError("more than one inseparable side")
        side, factor, mult = reg.witnesses[0]
        if side.ramification != 1:
            # under patterns I-III the side lies over abscissae of length <= 3
            # with degree >= 2, so e = 1
            raise InconsistentError(f"inseparable side of fractional slope {side.slope}")
        delta = side.height // side.length
        if len(factor) != 2:
            raise InconsistentError("multiple residual factor of degree > 1")
        root = (-factor[0]) % p
        if root == 0:
            raise InconsistentError("residual polynomial divisible by y")
        if cond is None:
            raise InconsistentError("iteration left the admissible patterns")
        rows = match_table1(profile, p, cond)
        if len(rows) != 1:
            raise InconsistentError(
                f"irregular profile matches {len(rows)} rows of the iteration table"
            )
        row = rows[0]
        if row.delta(profile) != delta:
            raise InconsistentError("table slope disagrees with the polygon")
        if row.accelerated and p > 2:
            # solve 2 sigma2 y + sigma1 = 0 mod p^delta for faster convergence
            m = p**delta
            y = (-profile.sigma1 * inv_mod(2 * profile.sigma2, m)) % m
            y = symmetric_rep(y, m)
            if (y - root) % p:
                raise InconsistentError("accelerated shift does not lift the root")
        else:
            y = symmetric_rep(root, p)
        steps.append(IterationStep(profile.s, reg.index, delta, y, row.rid))
        s = profile.s + y * p**delta
        prev_ind = reg.index
        reg = _lift_at(analysis, s)
        if not reg.regular:
            if reg.index <= prev_ind:
                raise InconsistentError(
                    f"phi-index did not grow across the iteration ({prev_ind} -> {reg.index})"
                )
            profile = valuation_profile(reg, p)
            cond = check_initial_conditions(profile, reg)
    if record is not None:
        record.extend(steps)
    return reg


# -- shared construction helpers -------------------------------------------------


def _lifts_with_override(analysis, replacements):
    """The lifts of the factors of f mod p, with any lift whose reduction
    matches a replacement swapped for that replacement."""
    p = analysis.p
    keyed = {tuple(c % p for c in r.coeffs): r for r in replacements}
    out = []
    for phi, _ in analysis.factors:
        out.append(keyed.pop(tuple(c % p for c in phi.coeffs), phi))
    if keyed:
        raise InconsistentError("replacement lift matches no factor of f mod p")
    return out


def _transformed(analysis, k, m):
    """The analysis of F(x) = f(p^k x + m)/p^(4k), the monic quartic of
    tau = (theta - m)/p^k, with disc F = disc f / p^(12k) carried over: a
    shift keeps the discriminant, and scaling the roots by p^-k divides each
    of the six squared root differences by p^(2k)."""
    p, F = analysis.p, analysis.f
    if m:
        F = F.shift(m)
    if k:
        F = F.scale_arg(p**k).divide_exact(p ** (4 * k))
    return LocalAnalysis(F, p, analysis.disc // p ** (12 * k))


def _transport(elements, p, scale_pow=0, shift=0):
    """Rewrite tau-coordinate elements (tau = (theta - shift)/p^scale_pow) in
    theta coordinates; numerators stay integral, denominators absorb
    p^(3 scale_pow)."""
    out = []
    for el in elements:
        n, e = el.numerator, el.denom_exp
        if scale_pow:
            n = IntPoly([n[j] * p ** ((3 - j) * scale_pow) for j in range(4)])
            e += 3 * scale_pow
        if shift:
            n = n.shift(-shift)
        out.append(BasisElement(n, e))
    return out


def _finish(analysis, display, meta, lifts=None, elements=None, k=0, m=0):
    """The theta-basis of a fired row whose construction lives in tau =
    (theta - m)/p^k, the root of analysis.f: Ore's construction on the given
    lifts, read from the records of analysis, or elements spanning the
    module (a second-order family, or the basis of E1's reduced quartic).
    The elements are transported to theta when (k, m) != (0, 0) and
    triangularized when transported or given as a family.  The row's
    display family (else the construction's generators) is kept as the
    generators, and meta as given."""
    p = analysis.p
    if lifts is not None:
        basis = _regular_basis(analysis.report(lifts))
        elements, display = basis.elements, display or basis.generators
        if not (k or m):
            return PIntegralBasis(p, elements, basis.index_valuation, tuple(display), meta)
    display = display or elements
    if k or m:
        elements, display = _transport(elements, p, k, m), _transport(display, p, k, m)
    return triangularize(elements, p, 4, generators=display, meta=meta)


def _quotient_element(reg, j):
    """q_j(theta)/p^floor(y_j), read from the record of a lift x - s: the
    quotient of f by (x-s)^j over the floored principal ordinate."""
    return BasisElement(reg.expansion.quotients[j - 1], reg.ordinates[j])


def _double_root_pair(analysis, t, half):
    """(s, display) for two double roots mod 2 whose lift x - t is
    regular: the shift iteration, started at the other residue, gives the
    lift x - s of the other root, and the display is 1, theta, theta^2 (or
    (theta^2+theta)/2 when half) and q_1/p^floor(y_1) of x - s."""
    reg = iterate_to_regular(analysis, 1 - t)
    third = BasisElement(IntPoly([0, 1, 1]), 1) if half else BasisElement(_X**2, 0)
    return -reg.phi[0], [BasisElement(_ONE, 0), BasisElement(_X, 0), third,
                         _quotient_element(reg, 1)]


# -- case A: square of a quadratic -----------------------------------------------


def basis_case_A(ctx):
    a, b, c, p = ctx.a, ctx.b, ctx.c, ctx.p
    if p > 2:
        mprime = vp(4 * c - a * a, p)
        if is_finite(mprime):
            M = p ** (mprime // 2 + 1)
            s = a * inv_mod(2, M) % M
        else:
            s = a // 2  # 4c = a^2 exactly forces a even; s = a/2 is exact
        phi = IntPoly([s, 0, 1])
        vb = vp(b, p)
        twonu = min(vb, mprime)
        nu = twonu // 2
        display = [
            BasisElement(_ONE, 0), BasisElement(_X, 0),
            BasisElement(IntPoly([s, 0, 1]), nu),
            BasisElement(IntPoly([0, s, 0, 1]), nu),
        ]
        return _finish(ctx.analysis, display, {"case": "A1", "rows": ["A1"], "s": s},
                       lifts=[phi])
    phi = IntPoly([1, 1, 1])
    k = min(vp(b + 1 - a, 2), vp(c - a, 2))
    if k == 1:
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
        rows = ["eq10-r1"]
    else:
        display = [
            BasisElement(_ONE, 0), BasisElement(_X, 0),
            BasisElement(IntPoly([1, 1, 1]), 1),
            BasisElement(IntPoly([0, 1, 1, 1]), 1),
        ]
        rows = ["eq10-r2"]
    return _finish(ctx.analysis, display, {"case": "A2", "rows": rows}, lifts=[phi])


# -- case B: one double root -----------------------------------------------------


def basis_case_B(ctx):
    f, p = ctx.f, ctx.p
    doubles = [phi for phi, mult in ctx.analysis.factors if mult == 2 and phi.degree == 1]
    if len(doubles) != 1:
        raise InconsistentError("case B expects exactly one double linear factor")
    # the double root of f mod p is a simple root of f': f'' is a p-unit there
    K = ctx.Delta // 2 + 1
    s = symmetric_rep(_hensel_root(f.derivative(), -doubles[0][0], p, K), p**K)
    reg = _lift_at(ctx.analysis, s)
    nu = ctx.Delta // 2
    display = [
        BasisElement(_ONE, 0), BasisElement(_X, 0), BasisElement(_X**2, 0),
        BasisElement(reg.expansion.quotients[0], nu),
    ]
    return _finish(ctx.analysis, display, {"case": ctx.case.value, "rows": ["eq13"], "s": s},
                   lifts=_lifts_with_override(ctx.analysis, [reg.phi]))


# -- case C: two double roots ----------------------------------------------------


def basis_case_C1(ctx):
    a, b, c, p = ctx.a, ctx.b, ctx.c, ctx.p
    m = vp(b, p) if b else INFINITY
    mprime = vp(a * a - 4 * c, p)
    r = min(m, mprime)
    M = p ** (r + 1)
    s = sqrt_mod_pk(-a * inv_mod(2, M) % M, p, r + 1)
    if s is None:
        raise InconsistentError("case C1 requires -a/2 to be a square mod p")
    plus, minus = _lift_at(ctx.analysis, s), _lift_at(ctx.analysis, -s)
    iterated = not plus.regular or not minus.regular
    if iterated:
        if not plus.regular and not minus.regular:
            raise InconsistentError("both square-root lifts irregular in case C1")
        bad = s if not plus.regular else -s
        bad = -iterate_to_regular(ctx.analysis, bad).phi[0]  # its regular lift x - bad
        s = bad if not plus.regular else -bad
        plus, minus = _lift_at(ctx.analysis, s), _lift_at(ctx.analysis, -s)
        if not plus.regular or not minus.regular:
            raise InconsistentError("iterate left an irregular companion lift")
    if minus.ordinates[1] > plus.ordinates[1]:
        s, plus, minus = -s, minus, plus
    display = [
        BasisElement(_ONE, 0), BasisElement(_X, 0),
        BasisElement(IntPoly([s * s + a, 0, 1]), minus.ordinates[1]),
        _quotient_element(plus, 1),
    ]
    lifts = _lifts_with_override(ctx.analysis, [IntPoly([-s, 1]), IntPoly([s, 1])])
    return _finish(ctx.analysis, display,
                   {"case": "C1", "rows": ["eq14"], "s": s, "iterated": iterated},
                   lifts=lifts)


def basis_case_C2(ctx):
    a, b, c = ctx.a, ctx.b, ctx.c
    vc = vp(c, 2)
    vs1 = vp(a + b + c + 1, 2)
    if vc == 1 and vs1 == 1:
        t, s = 0, 1
        rows = ["eq15-r1"]
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
    else:
        if vc == 1:
            t, rows = 0, ["eq15-r2"]
        elif vs1 == 1:
            t, rows = 1, ["eq15-r3"]
        else:
            t, rows = (0 if a % 4 == 1 else 1), ["eq15-r4"]
        s, display = _double_root_pair(ctx.analysis, t, rows[0] == "eq15-r4")
    if not _lift_at(ctx.analysis, t).regular:
        raise InconsistentError(f"claimed-regular lift {t} is irregular in case C2")
    return _finish(ctx.analysis, display, {"case": "C2", "rows": rows, "s": s, "t": t},
                   lifts=[IntPoly([-t, 1]), IntPoly([-s, 1])])


# -- case D: triple root ---------------------------------------------------------


def _deep_derivative_root(f, p, K, congruent_to):
    """Integer s = congruent_to mod p with v_p(f'(s)) >= K, found by lifting
    the root set of f' digit by digit (the reduction is not simple, so plain
    Hensel does not apply)."""
    g = f.derivative()
    roots = [congruent_to % p]
    mod = p
    for _ in range(K - 1):
        nxt = []
        for r0 in roots:
            for t in range(p):
                cand = r0 + t * mod
                if g(cand) % (mod * p) == 0:
                    nxt.append(cand)
        mod *= p
        roots = nxt
        if not roots:
            raise InconsistentError("derivative root lifting died out")
        if len(roots) > 200:
            raise InconsistentError("derivative root lifting exploded")
    for r0 in roots:
        if vp(g(r0), p) >= K or g(r0) == 0:
            return symmetric_rep(r0, mod)
    raise InconsistentError("no deep derivative root found")


def basis_case_D(ctx):
    """A triple root mod p, lifted to s0: at p > 3 and in L43 the square root
    of -a/6 mod p^k with b = 8 s0^3 mod p (at p = 3, a = 3a' makes -a/6 =
    -a'/2, and b = 8 s0^3 says s0 = -b mod 3); in L44, s0 = -b.  The profile
    of f at s0 decides the row."""
    a, b, p = ctx.a, ctx.b, ctx.p
    rows = []
    meta = {"case": ctx.case.value}
    if p > 3 or a % 9 == 3:
        k = ctx.Delta // 6 + 1
        M = p**k
        num, den = (a, 6) if p > 3 else (a // 3, 2)
        s0 = sqrt_mod_pk(-num * inv_mod(den, M) % M, p, k)
        if s0 is None:
            raise InconsistentError("-a/6 must be a square mod p in case D")
        if (b - 8 * s0**3) % p:
            s0 = -s0
        if (b - 8 * s0**3) % p:
            raise InconsistentError("neither square root matches b = 8 s^3 mod p")
    else:
        s0 = -b
    reg = _lift_at(ctx.analysis, s0)
    pr = valuation_profile(reg, p)
    if p > 3:
        irregular = (
            is_finite(pr.u1) and 2 * pr.u0 == 3 * pr.u1
            and (pr.sigma1**3 + 27 * s0 * pr.sigma0**2) % p == 0
        )
        rows.append("L42-irregular" if irregular else
                    ("L42-one-side" if 2 * pr.u0 < 3 * pr.u1 else "L42-two-sides"))
        if irregular:
            reg = iterate_to_regular(ctx.analysis, s0)
    elif a % 9 == 3:
        if not (2 * pr.u0 < 3 * pr.u1 and is_finite(pr.u0) and pr.u0 % 3 == 0):
            rows.append("L43-regular")
        else:
            y = 1 if (pr.sigma0 - b) % 3 == 0 else -1
            reg = _lift_at(ctx.analysis, s0 + y * 3 ** (pr.u0 // 3))
            if reg.regular:
                rows.append("L43-s1")
            else:
                reg = iterate_to_regular(ctx.analysis, -reg.phi[0])
                rows.append("L43-beyond-s1")
                meta["beyond_s1"] = 1
    else:
        if pr.u0 <= 2 or pr.u1 == 1:
            rows.append("L44-direct")
        else:
            reg = _lift_at(ctx.analysis, _deep_derivative_root(ctx.f, 3, ctx.Delta // 2 + 1, -b))
            rows.append("L44-deep")
        if not reg.regular:
            raise InconsistentError("deep derivative root is irregular")
    display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
               _quotient_element(reg, 2), _quotient_element(reg, 1)]
    meta.update({"rows": rows, "s": -reg.phi[0]})
    return _finish(ctx.analysis, display, meta,
                   lifts=_lifts_with_override(ctx.analysis, [reg.phi]))


# -- cases E1 and E2: a 4-tuple root (constructed in quartic_e) -----------------


def reduce_E1(a, b, c, p):
    """Divide (a, b, c) by (p^2, p^3, p^4) while possible; the reduced
    polynomial generates the same field with root theta/p^k."""
    k = 0
    while (
        (a == 0 or vp(a, p) >= 2)
        and (b == 0 or vp(b, p) >= 3)
        and (c == 0 or vp(c, p) >= 4)
    ):
        if c == 0:
            raise InconsistentError("c = 0 cannot occur for irreducible f")
        a, b, c = a // p**2, b // p**3, c // p**4
        k += 1
    return a, b, c, k


# -- top-level dispatch -----------------------------------------------------------


def quartic_p_integral_basis(a, b, c, p):
    """p-integral basis of Q[x]/(x^4+ax^2+bx+c) by the quartic fast path.
    The result records the case and every table row used in meta."""
    f = IntPoly.monic_quartic(a, b, c)
    sanity_check_irreducible(f)
    return _quartic_basis(make_context(LocalAnalysis(f, p)))


def _quartic_basis(ctx):
    """quartic_p_integral_basis for an f already checked by the
    irreducibility guard, with its context in hand."""
    case = ctx.case
    if case == QuarticCase.SEPARABLE:
        els = tuple(BasisElement(IntPoly.x(i), 0) for i in range(4))
        return PIntegralBasis(ctx.p, els, 0, els, {"case": "SEPARABLE", "rows": []})
    if case in (QuarticCase.A1, QuarticCase.A2):
        return basis_case_A(ctx)
    if case in (QuarticCase.B1, QuarticCase.B2, QuarticCase.B3, QuarticCase.B4):
        return basis_case_B(ctx)
    if case == QuarticCase.C1:
        return basis_case_C1(ctx)
    if case == QuarticCase.C2:
        return basis_case_C2(ctx)
    if case in (QuarticCase.D1, QuarticCase.D2):
        return basis_case_D(ctx)
    if case == QuarticCase.E2:
        return basis_case_E2(ctx)
    # E1: normalize, dispatch the reduced polynomial (irreducible, as it
    # generates the same field), transport back
    k = reduce_E1(ctx.a, ctx.b, ctx.c, ctx.p)[3]
    if k == 0:
        return basis_case_E1(ctx)
    reduced = _transformed(ctx.analysis, k, 0)
    inner = _quartic_basis(make_context(reduced))
    meta = dict(inner.meta, reduced_by=k)
    meta["case"] = "E1->" + meta["case"]
    return _finish(reduced, inner.generators, meta, elements=inner.elements, k=k)


# The 4-tuple-root constructions live in quartic_e, which imports the helpers
# above.
from .quartic_e import basis_case_E1, basis_case_E2  # noqa: E402
