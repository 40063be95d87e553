"""Quartic cases E1 and E2: f = x^4 + a x^2 + b x + c has a 4-tuple root
mod p.

E1 (p | a, b, c) dispatches the reduced polynomial on the Table 2 rows, with
the second-order rows expanded by Table 3 at p = 2.  E2 (p = 2 with a, b even
and c odd) shifts x by an odd m so that the root is 0 mod 2, and dispatches
the shifted polynomial on the Table 4 rows, with Table 5 expanding its
second-order row; some rows rescale the root once or twice more.  Every
second-order row (S51, S54 and the expansions by Tables 3 and 5) takes its
elements and 2Y from order2.second_order_basis and cross-checks the tabled
nu or Y against them in integers; a deep row that tables neither is checked
by one Round 2 step instead.  Each shifted or rescaled quartic comes
from quartic._transformed and each row ends in quartic._finish.  The
dispatcher, the E1 normalization and the shared construction helpers are in
quartic.
"""

from .arith import inv_mod, is_finite, symmetric_rep, vp
from .basis import BasisElement, PIntegralBasis
from .errors import InconsistentError
from .intpoly import IntPoly
from .quartic import (
    _ONE,
    _X,
    _double_root_pair,
    _finish,
    _lift_at,
    _quotient_element,
    _transformed,
    iterate_to_regular,
)
from .tables import E1_ROWS, E2_DIRECT_DENOMS, E2_ROWS, bad_shift, match_rows, table3_q_nu, table5_q_nu
from . import oracle, order2


def _order2_family(meta, analysis, phi, tag, rows=(), nu=None, two_Y=None):
    """The second-order elements of analysis.f at the phi a table chose, with
    the rows, tag, Y and order2 recorded in meta.  A tabled nu = num/den,
    given as the pair (num, den), or a tabled Y is only cross-checked
    against the step: a tabled 2Y must be its 2Y, and a tabled nu must
    satisfy floor(2 nu) = 2 num // den = floor(Y) - 2 = ind_p, which by
    Hermite's identity says that the exponents floor(nu) and floor(nu + 1/2)
    add up to ind_p.  (The paper's rows also give simplified numerators;
    those are display sugar and not always integral in the theta*Q slot, so
    the tables keep only nu.)  The deep rows table neither, so their family
    is checked as verify checks a basis: it must span a ring, and one Round 2
    step started from it must add nothing.  The family is already triangular,
    its numerators monic of degrees 0 to 3."""
    f, p = analysis.f, analysis.p
    elements, got = order2.second_order_basis(f, p, phi)
    if two_Y is not None and got != two_Y:
        raise InconsistentError(f"second-order 2Y = {got} differs from the tabled {two_Y}")
    if nu is not None and 2 * nu[0] // nu[1] != got // 2 - 2:
        raise InconsistentError(
            f"table nu = {nu[0]}/{nu[1]} disagrees with the second-order index {got // 2 - 2}"
        )
    if nu is None and two_Y is None:
        order = PIntegralBasis(p, elements, sum(e.denom_exp for e in elements))
        table = oracle._table(f, order, p)
        if table is None:
            raise InconsistentError(f"the second-order family of {tag} spans no ring")
        if oracle._round2(f, p, analysis.disc, (order, table)).elements != elements:
            raise InconsistentError(f"one Round 2 step enlarges the second-order order of {tag}")
    meta["rows"] += [*rows, tag]
    meta.update({"Y": str(got // 2) if got % 2 == 0 else f"{got}/2", "order2": 1})
    return elements


def basis_case_E1(ctx):
    """Reduced 4-tuple-root dispatch; the caller guarantees the reduction
    step has already been applied."""
    a, b, c, p = ctx.a, ctx.b, ctx.c, ctx.p
    vc, vb, va = vp(c, p), vp(b, p), vp(a, p)
    row = match_rows(E1_ROWS, vc, vb, va, p)
    meta = {"case": "E1", "rows": [row.rid]}
    if row.strategy == "power":
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
        return _finish(ctx.analysis, display, meta, lifts=[_X])
    if row.strategy == "theta3":
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(_X**2, 0), BasisElement(_X**3, 1)]
        return _finish(ctx.analysis, display, meta, lifts=[_X])
    if row.strategy == "x-reg":
        return _finish(ctx.analysis, None, meta, lifts=[_X])
    if row.strategy == "iterate":
        reg = iterate_to_regular(ctx.analysis, 0)
        q1 = _quotient_element(reg, 1)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0), BasisElement(_X**2, 1), q1]
        meta.update({"s": -reg.phi[0], "nu": q1.denom_exp})
        return _finish(ctx.analysis, display, meta, lifts=[reg.phi])
    if row.strategy == "half-a":
        mprime = vp(a * a - 4 * c, p)
        if not is_finite(mprime):
            # a^2 = 4c: every m' > v_p(b) gives the same nu = v_p(b)/2
            mprime = vp(b, p) + 1
        if mprime == 2:
            return _finish(ctx.analysis, None, meta, lifts=[_X])
        M = p ** (mprime // 2 + 2)
        s = symmetric_rep(a * inv_mod(2, M) % M, M)
        elements = _order2_family(meta, ctx.analysis, IntPoly([s, 0, 1]), "S51",
                                  nu=(min(vp(b, p), mprime), 2))
        meta["s"] = s
        return _finish(ctx.analysis, None, meta, elements=elements)
    if row.strategy == "table3":
        nu, rows = table3_q_nu(a, b, c)
        phi, tag = order2.choose_phi_e1_row6(a, b, c)
        elements = _order2_family(meta, ctx.analysis, phi, tag, rows, nu=nu)
        return _finish(ctx.analysis, None, meta, elements=elements)
    raise InconsistentError(f"unhandled strategy {row.strategy}")


# -- case E2: p = 2, a, b even, c odd ---------------------------------------------


def basis_case_E2(ctx):
    """Each row works in F(x) = f(2^k x + m)/2^(4k), the quartic of tau =
    (theta - m)/2^k for the odd shift m, with k = 0 unless the row rescales
    the shifted quartic."""
    m = 1
    for _ in range(10):
        shifted = _transformed(ctx.analysis, 0, m)
        g = shifted.f
        A, B, C = g[2], g[1], g[0]
        vC, vB, vA = vp(C, 2), vp(B, 2), vp(A, 2)
        step = bad_shift(vC, vB, vA)
        if not step:
            break
        m += step
    else:
        raise InconsistentError("shift adjustment failed to leave the bad patterns")
    row = match_rows(E2_ROWS, vC, vB, vA)
    meta = {"case": "E2", "rows": [row.rid], "m": m}
    if row.strategy == "direct":
        denoms = E2_DIRECT_DENOMS[row.rid]
        display = [BasisElement(_ONE, 0)] + [
            BasisElement(_X ** (i + 1), denoms[i]) for i in range(3)
        ]
        return _finish(shifted, display, meta, lifts=[_X], m=m)
    if row.strategy == "iterate":
        reg = iterate_to_regular(shifted, 0)
        q1 = _quotient_element(reg, 1)
        pre = {"T4r5": (0, 1), "T4r18": (1, 3), "T4r24": (2, 4)}[row.rid]
        display = [BasisElement(_ONE, 0), BasisElement(_X, pre[0]),
                   BasisElement(_X**2, pre[1]), q1]
        meta.update({"s": -reg.phi[0], "nu": q1.denom_exp})
        return _finish(shifted, display, meta, lifts=[reg.phi], m=m)
    if row.strategy == "table5":
        nu, rows = table5_q_nu(A, B, C)
        phi, tag = order2.choose_phi_e2_row4(A, B, C)
        elements = _order2_family(meta, shifted, phi, tag, rows, nu=nu)
        return _finish(shifted, None, meta, elements=elements, m=m)
    if row.strategy == "scale4":
        scaled = _transformed(shifted, 2, 0)
        reg = iterate_to_regular(scaled, 0)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   _quotient_element(reg, 2), _quotient_element(reg, 1)]
        meta["rows"].append("eq-last")
        meta["s"] = -reg.phi[0]
        return _finish(scaled, display, meta, lifts=[reg.phi, IntPoly([-1, 1])], k=2, m=m)
    if row.strategy not in ("order2-54", "table6", "twodouble"):
        raise InconsistentError(f"unhandled strategy {row.strategy}")
    # the remaining rows work in tau = (theta - m)/2
    scaled = _transformed(shifted, 1, 0)
    h = scaled.f
    if row.strategy == "order2-54":
        elements = _order2_family(meta, scaled, IntPoly([-2, 0, 1]), "S54",
                                  two_Y=9 if vp(h[1], 2) >= 3 else 10)
        return _finish(scaled, None, meta, elements=elements, k=1, m=m)
    if row.strategy == "table6":
        phi, tag = order2.choose_phi_e2_row10(h[2], h[1], h[0])
        meta["rows"].append(tag)
        return _finish(scaled, None, meta, lifts=[phi], k=1, m=m)
    return _basis_e2_twodouble(scaled, meta, m)


def _basis_e2_twodouble(scaled, meta, m):
    """Expansion of the two-double-roots subcase of the shifted table:
    h = g(2x)/16 with h = x^2 (x+1)^2 mod 2, analysed by scaled."""
    h = scaled.f
    Ap, Bp, Cp = h[2], h[1], h[0]
    vCp = vp(Cp, 2)
    vS = vp(Ap + Bp + Cp + 3, 2)
    if vCp == 1 and vS == 1:
        t, s = 0, 1
        rows = ["Tdd2-r1"]
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
    elif vCp == 1 or vS == 1 or Ap % 4 == 3:
        if vCp == 1:
            t, rows = 0, ["Tdd2-r2"]
        elif vS == 1:
            t, rows = 1, ["Tdd2-r3"]
        else:
            t, rows = 0, ["Tdd2-r4"]
        s, display = _double_root_pair(scaled, t, rows[0] == "Tdd2-r4")
    else:
        even, odd = iterate_to_regular(scaled, 0), iterate_to_regular(scaled, 1)
        if even.ordinates[1] > odd.ordinates[1]:
            reg, other = even, odd
        else:
            reg, other = odd, even
        s, t = -reg.phi[0], -other.phi[0]
        beta = IntPoly([s * s + s * t + t * t + 2 * (s + t) + Ap, s + t + 2, 1])
        rows = ["Tdd2-r5"]
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(beta, other.ordinates[1]), _quotient_element(reg, 1)]
    if not _lift_at(scaled, t).regular:
        raise InconsistentError("claimed-regular double-root lift is irregular")
    meta["rows"] += rows
    meta.update({"s": s, "t": t})
    return _finish(scaled, display, meta, lifts=[IntPoly([-t, 1]), IntPoly([-s, 1])],
                   k=1, m=m)
