"""p-integral bases of quartic fields x^4 + a x^2 + b x + c, by explicit
case analysis on the factorization of f mod p.

The classifier distinguishes thirteen mutually exclusive cases; each case
picks regular lifts of the repeated factors (iterating a shift s -> s + y p^d
when a chosen lift is irregular) and then reads the basis off the polygon
ordinates.  Every dispatch table is encoded as literal rows with guard
predicates so individual rows are unit-testable, and the row that fired is
recorded in the result metadata.  The tables are in pintbasis.tables and the
constructions of the 4-tuple-root cases E1 and E2 in pintbasis.quartic_e.
"""

from enum import Enum
from fractions import Fraction

from .arith import INFINITY, check_prime, inv_mod, is_finite, legendre, sqrt_mod_pk, symmetric_rep, vp
from .errors import InconsistentError, IterationPreconditionError, NonIntegerSlopeError
from .factor import factor_mod_p, sanity_check_irreducible
from .intpoly import IntPoly
from .newton import is_p_regular, is_phi_regular, ordinates, phi_index, phi_polygon_data
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
    """What the case constructions read about (f, p), computed once: f, its
    discriminant, Delta = v_p(disc) and the factorization case mod p."""

    a: int
    b: int
    c: int
    p: int
    f: IntPoly
    disc: int
    Delta: int
    case: QuarticCase


def make_context(a, b, c, p):
    f = IntPoly.monic_quartic(a, b, c)
    disc = (
        16 * a**4 * c - 128 * a**2 * c**2 + 144 * a * b**2 * c
        - 4 * a**3 * b**2 + 256 * c**3 - 27 * b**4
    )
    if disc != f.discriminant():
        raise InconsistentError("closed-form discriminant disagrees with resultant")
    return QuarticContext(a, b, c, p, f, disc, vp(disc, p) if disc else 0,
                          _case(a, b, c, p, disc))


def classify(a, b, c, p):
    """The factorization shape of x^4+ax^2+bx+c mod p, assuming f irreducible
    over Q.  Exactly one case applies; Inconsistent would indicate a bug."""
    check_prime(p)
    return make_context(a, b, c, p).case


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


def valuation_profile(F, s, p):
    if F.degree != 4 or not F.monic:
        raise ValueError("monic quartic required")
    d1 = F.derivative()
    d2 = d1.derivative()
    d3 = d2.derivative()
    vals = [F(s), d1(s), d2(s) // 2, d3(s) // 6]
    us = [vp(v, p) for v in vals]
    sigmas = [v // p**u if is_finite(u) and v else 0 for v, u in zip(vals, us)]
    return ValuationProfile(s, *us, *sigmas)


def check_initial_conditions(F, profile, p):
    """Which admissible starting pattern the integer s satisfies: 'I', 'II',
    'III', or None.  Pattern III also demands a separable residual on the
    right part [2,4] of the polygon."""
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
        and _right_part_separable(F, profile.s, p)
    ):
        return "III"
    return None


def _right_part_separable(F, s, p):
    _, _, data = phi_polygon_data(F, IntPoly([-s, 1]), p)
    return all(sd.separable for sd in data if sd.side.start[0] >= 2)


class IterationStep(Record):
    s: int
    ind: int
    delta: int
    y: int
    row: int


def iterate_to_regular(F, s0, p, record=None):
    """Shift s -> s + y p^delta until F is (x-s)-regular; delta is the slope
    of the unique inseparable side and y lifts its multiple residual root.

    The phi-index strictly increases across irregular steps (asserted), so
    the loop ends within v_p(disc F)/2 + 1 steps.  A fractional inseparable
    slope cannot be repaired by shifts and raises NonIntegerSlopeError."""
    profile = valuation_profile(F, s0, p)
    cond = check_initial_conditions(F, profile, p)
    if cond is None:
        raise IterationPreconditionError(
            f"s={s0} matches no admissible starting pattern at p={p}"
        )
    bound = vp(F.discriminant(), p) // 2 + 1
    s = s0
    prev_ind = None
    steps = []
    while True:
        phi = IntPoly([-s, 1])
        reg = is_phi_regular(F, phi, p)
        ind = phi_index(F, phi, p)
        if prev_ind is not None and not reg.regular and ind <= prev_ind:
            raise InconsistentError(
                f"phi-index did not grow across the iteration ({prev_ind} -> {ind})"
            )
        if reg.regular:
            if record is not None:
                record.extend(steps)
            return s
        if len(steps) > bound:
            raise InconsistentError("iteration exceeded its index bound")
        bad_sides = {w[0] for w in reg.witnesses}
        if len(bad_sides) != 1:
            raise InconsistentError("more than one inseparable side")
        side, factor, mult = reg.witnesses[0]
        if side.slope.denominator != 1:
            raise NonIntegerSlopeError(
                f"inseparable side of slope {side.slope}: use a second-order polygon"
            )
        delta = -int(side.slope)
        if len(factor) != 2:
            raise InconsistentError("multiple residual factor of degree > 1")
        root = (-factor[0]) % p
        if root == 0:
            raise InconsistentError("residual polynomial divisible by y")
        profile = valuation_profile(F, s, p)
        cond = check_initial_conditions(F, profile, p)
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
        steps.append(IterationStep(s, ind, delta, y, row.rid))
        s = s + y * p**delta
        prev_ind = ind


# -- shared construction helpers -------------------------------------------------


def _lifts_with_override(factors, p, replacements):
    """The symmetric lifts of factor_mod_p's factors, with any lift whose
    reduction matches a replacement swapped for that replacement."""
    keyed = {}
    for r in replacements:
        keyed[tuple(c % p for c in r.coeffs)] = r
    out = []
    for phi, _ in factors:
        key = tuple(c % p for c in phi.coeffs)
        out.append(keyed.pop(key, phi))
    if keyed:
        raise InconsistentError("replacement lift matches no factor of f mod p")
    return out


def _construct(ctx, lifts, display, meta):
    """Basis from the regular-case construction for the given lifts, with the
    table's display family retained as generators."""
    basis = _regular_basis(ctx.f, ctx.p, is_p_regular(ctx.f, ctx.p, lifts))
    return PIntegralBasis(
        ctx.p, basis.elements, basis.index_valuation,
        tuple(display) if display else basis.generators, dict(meta),
    )


def _ordinate_floor(f, s, p, abscissa):
    """floor of the principal-polygon ordinate of f w.r.t. x - s."""
    _, principal, _ = phi_polygon_data(f, IntPoly([-s, 1]), p)
    ys = ordinates(principal)
    return int(ys[abscissa] // 1)


def _quartic_q1(F, s):
    """First quotient of the (x-s)-adic development of a monic quartic."""
    return (F - IntPoly.const(F(s))) // IntPoly([-s, 1])


def _quartic_q2(F, s):
    """Second quotient: quotient of F by (x-s)^2."""
    return F // (IntPoly([-s, 1]) ** 2)


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
        nu = int(Fraction(twonu, 2) // 1)
        display = [
            BasisElement(_ONE, 0), BasisElement(_X, 0),
            BasisElement(IntPoly([s, 0, 1]), nu),
            BasisElement(IntPoly([0, s, 0, 1]), nu),
        ]
        return _construct(ctx, [phi], display,
                          {"case": "A1", "rows": ["A1"], "s": s})
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
    return _construct(ctx, [phi], display, {"case": "A2", "rows": rows})


# -- case B: one double root -----------------------------------------------------


def _hensel_root_of_derivative(f, s0, p, K):
    """Lift the simple root s0 of f' mod p to s with v_p(f'(s)) >= K; f''(s0)
    is a p-unit, so Newton steps converge quadratically."""
    g = f.derivative()
    g2 = g.derivative()
    m = p**K
    s = s0 % m
    for _ in range(K + 2):
        gs = g(s) % m
        if gs == 0:
            break
        s = (s - gs * inv_mod(g2(s) % m, m)) % m
    if g(s) % m:
        raise InconsistentError("Hensel lifting of the derivative root failed")
    return symmetric_rep(s, m)


def basis_case_B(ctx):
    f, p = ctx.f, ctx.p
    factors = factor_mod_p(f, p)
    doubles = [phi for phi, mult in factors if mult == 2 and phi.degree == 1]
    if len(doubles) != 1:
        raise InconsistentError("case B expects exactly one double linear factor")
    s0 = -doubles[0][0]
    s = _hensel_root_of_derivative(f, s0, p, ctx.Delta // 2 + 1)
    nu = ctx.Delta // 2
    display = [
        BasisElement(_ONE, 0), BasisElement(_X, 0), BasisElement(_X**2, 0),
        BasisElement(_quartic_q1(f, s), nu),
    ]
    lifts = _lifts_with_override(factors, p, [IntPoly([-s, 1])])
    return _construct(ctx, lifts, display,
                      {"case": ctx.case.value, "rows": ["eq13"], "s": s})


# -- case C: two double roots ----------------------------------------------------


def basis_case_C1(ctx):
    a, b, c, p, f = ctx.a, ctx.b, ctx.c, ctx.p, ctx.f
    m = vp(b, p) if b else INFINITY
    mprime = vp(a * a - 4 * c, p)
    r = min(m, mprime)
    M = p ** (r + 1)
    s = sqrt_mod_pk(-a * inv_mod(2, M) % M, p, r + 1)
    if s is None:
        raise InconsistentError("case C1 requires -a/2 to be a square mod p")
    iterated = False
    reg_plus = is_phi_regular(f, IntPoly([-s, 1]), p).regular
    reg_minus = is_phi_regular(f, IntPoly([s, 1]), p).regular
    if not reg_plus or not reg_minus:
        if not reg_plus and not reg_minus:
            raise InconsistentError("both square-root lifts irregular in case C1")
        bad = s if not reg_plus else -s
        bad = iterate_to_regular(f, bad, p)
        s = bad if not reg_plus else -bad
        iterated = True
        for t in (s, -s):
            if not is_phi_regular(f, IntPoly([-t, 1]), p).regular:
                raise InconsistentError("iterate left an irregular companion lift")
    nu_plus = _ordinate_floor(f, s, p, 1)
    nu_minus = _ordinate_floor(f, -s, p, 1)
    if nu_minus > nu_plus:
        s = -s
        nu_plus, nu_minus = nu_minus, nu_plus
    display = [
        BasisElement(_ONE, 0), BasisElement(_X, 0),
        BasisElement(IntPoly([s * s + a, 0, 1]), nu_minus),
        BasisElement(_quartic_q1(f, s), nu_plus),
    ]
    lifts = _lifts_with_override(factor_mod_p(f, p), p,
                                 [IntPoly([-s, 1]), IntPoly([s, 1])])
    return _construct(ctx, lifts, display,
                      {"case": "C1", "rows": ["eq14"], "s": s,
                       "iterated": iterated})


def basis_case_C2(ctx):
    a, b, c, p, f = ctx.a, ctx.b, ctx.c, ctx.p, ctx.f
    vc = vp(c, 2)
    vs1 = vp(a + b + c + 1, 2)
    rows = []
    if vc == 1 and vs1 == 1:
        t, s = 0, 1
        rows.append("eq15-r1")
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
    elif vc == 1:
        t = 0
        s = iterate_to_regular(f, 1, 2)
        rows.append("eq15-r2")
        display = None
    elif vs1 == 1:
        t = 1
        s = iterate_to_regular(f, 0, 2)
        rows.append("eq15-r3")
        display = None
    else:
        rows.append("eq15-r4")
        if a % 4 == 1:
            t = 0
            s = iterate_to_regular(f, 1, 2)
        else:
            t = 1
            s = iterate_to_regular(f, 0, 2)
        display = None
    if display is None:
        nu = _ordinate_floor(f, s, 2, 1)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0)]
        if rows[-1] == "eq15-r4":
            display.append(BasisElement(IntPoly([0, 1, 1]), 1))
        else:
            display.append(BasisElement(_X**2, 0))
        display.append(BasisElement(_quartic_q1(f, s), nu))
    if not is_phi_regular(f, IntPoly([-t, 1]), 2).regular:
        raise InconsistentError(f"claimed-regular lift {t} is irregular in case C2")
    lifts = [IntPoly([-t, 1]), IntPoly([-s, 1])]
    return _construct(ctx, lifts, display,
                      {"case": "C2", "rows": rows, "s": s, "t": t})


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
    a, b, c, p, f = ctx.a, ctx.b, ctx.c, ctx.p, ctx.f
    rows = []
    meta = {"case": ctx.case.value}
    if p > 3:
        k = ctx.Delta // 6 + 1
        M = p**k
        s0 = sqrt_mod_pk(-a * inv_mod(6, M) % M, p, k)
        if s0 is None:
            raise InconsistentError("-a/6 must be a square mod p in case D1")
        if (b - 8 * s0**3) % p:
            s0 = -s0
        if (b - 8 * s0**3) % p:
            raise InconsistentError("neither square root matches b = 8 s^3 mod p")
        pr = valuation_profile(f, s0, p)
        irregular = (
            is_finite(pr.u1) and 2 * pr.u0 == 3 * pr.u1
            and (pr.sigma1**3 + 27 * s0 * pr.sigma0**2) % p == 0
        )
        rows.append("L42-irregular" if irregular else
                    ("L42-one-side" if 2 * pr.u0 < 3 * pr.u1 else "L42-two-sides"))
        s = iterate_to_regular(f, s0, p) if irregular else s0
    else:
        if a % 9 == 3:
            k = ctx.Delta // 6 + 1
            M = 3**k
            aprime = a // 3
            s0 = sqrt_mod_pk(-aprime * inv_mod(2, M) % M, 3, k)
            if s0 is None:
                raise InconsistentError("-a'/2 must be a square mod 3")
            if (s0 + b) % 3:
                s0 = -s0
            if (s0 + b) % 3:
                raise InconsistentError("no square root is congruent to -b mod 3")
            pr = valuation_profile(f, s0, 3)
            irregular = 2 * pr.u0 < 3 * pr.u1 and is_finite(pr.u0) and pr.u0 % 3 == 0
            if not irregular:
                s = s0
                rows.append("L43-regular")
            else:
                y = 1 if (pr.sigma0 - b) % 3 == 0 else -1
                s1 = s0 + y * 3 ** (pr.u0 // 3)
                if is_phi_regular(f, IntPoly([-s1, 1]), 3).regular:
                    s = s1
                    rows.append("L43-s1")
                else:
                    s = iterate_to_regular(f, s1, 3)
                    rows.append("L43-beyond-s1")
                    meta["beyond_s1"] = 1
        else:
            s = -b
            if not (vp(f(s), 3) <= 2 or vp(f.derivative()(s), 3) == 1):
                s = _deep_derivative_root(f, 3, ctx.Delta // 2 + 1, -b)
                rows.append("L44-deep")
            else:
                rows.append("L44-direct")
            if not is_phi_regular(f, IntPoly([-s, 1]), 3).regular:
                raise InconsistentError("deep derivative root is irregular")
    nu2 = _ordinate_floor(f, s, p, 2)
    nu1 = _ordinate_floor(f, s, p, 1)
    display = [
        BasisElement(_ONE, 0), BasisElement(_X, 0),
        BasisElement(_quartic_q2(f, s), nu2),
        BasisElement(_quartic_q1(f, s), nu1),
    ]
    lifts = _lifts_with_override(factor_mod_p(f, p), p, [IntPoly([-s, 1])])
    meta.update({"rows": rows, "s": s})
    return _construct(ctx, lifts, display, meta)


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


def _transport(elements, p, scale_pow=0, shift=0):
    """Rewrite tau-coordinate elements (tau = (theta - shift)/p^scale_pow) in
    theta coordinates; numerators stay integral, denominators absorb p^(3k)."""
    out = []
    for el in elements:
        n, e = el.numerator, el.denom_exp
        if scale_pow:
            k = scale_pow
            n = IntPoly([n[j] * p ** ((3 - j) * k) for j in range(4)])
            e += 3 * k
        if shift:
            n = n.shift(-shift)
        out.append(BasisElement(n, e))
    return out


# -- top-level dispatch -----------------------------------------------------------


def quartic_p_integral_basis(a, b, c, p):
    """p-integral basis of Q[x]/(x^4+ax^2+bx+c) by the quartic fast path.
    The result records the case and every table row used in meta."""
    check_prime(p)
    sanity_check_irreducible(IntPoly.monic_quartic(a, b, c))
    return _quartic_basis(make_context(a, b, c, p))


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
    p = ctx.p
    a2, b2, c2, k = reduce_E1(ctx.a, ctx.b, ctx.c, p)
    if k == 0:
        return basis_case_E1(ctx)
    inner = _quartic_basis(make_context(a2, b2, c2, p))
    els = _transport(list(inner.elements), p, scale_pow=k, shift=0)
    gens = _transport(list(inner.generators), p, scale_pow=k, shift=0)
    meta = dict(inner.meta)
    meta["reduced_by"] = k
    meta["case"] = "E1->" + meta.get("case", "?")
    return triangularize(els, p, 4, generators=gens, meta=meta)


# The 4-tuple-root constructions live in quartic_e, which imports the helpers
# above.
from .quartic_e import basis_case_E1, basis_case_E2  # noqa: E402
