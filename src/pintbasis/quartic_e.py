"""Quartic cases E1 and E2: f = x^4 + a x^2 + b x + c has a 4-tuple root
mod p.

E1 (p | a, b, c) dispatches the reduced polynomial on the Table 2 rows, with
the second-order rows expanded by Table 3 at p = 2.  E2 (p = 2 with a, b even
and c odd) shifts x by an odd m so that the root is 0 mod 2, and dispatches
the shifted polynomial on the Table 4 rows, with Table 5 expanding its
second-order row.  The dispatcher, the E1 normalization and the shared
construction helpers are in quartic.
"""

from fractions import Fraction

from .arith import inv_mod, is_finite, symmetric_rep, vp
from .basis import BasisElement, _regular_basis, triangularize
from .errors import InconsistentError
from .intpoly import IntPoly
from .newton import is_phi_regular
from .quartic import (
    _ONE,
    _X,
    _construct,
    _ordinate_floor,
    _quartic_q1,
    _quartic_q2,
    _transport,
    iterate_to_regular,
)
from .tables import E1_ROWS, E2_DIRECT_DENOMS, E2_ROWS, bad_shift, match_rows, table3_q_nu, table5_q_nu
from . import order2


def _order2_family(ctx, F, phi, tag, nu_table, rows, meta_extra=None):
    """The family 1, theta, Q/p^[nu], theta*Q/p^[nu+1/2] with Q the first
    quotient of the certified phi-development.  The tabled nu is only
    cross-checked against the second-order index: its floors must reproduce
    ind_p = floor(Y) - 2.  (The row data also carries simplified numerators;
    those are display sugar and not always integral in the theta*Q slot, so
    the construction never uses them.)"""
    o2 = order2.basis_order2(order2.SecondOrderContext(F, ctx.p, phi, tag))
    if nu_table is not None:
        e2 = int(nu_table // 1)
        e3 = int((nu_table + Fraction(1, 2)) // 1)
        if e2 + e3 != o2.ind_p:
            raise InconsistentError(
                f"table nu {nu_table} disagrees with the second-order index {o2.ind_p}"
            )
    meta = {"case": ctx.case.value, "rows": list(rows) + [tag],
            "Y": str(o2.Y), "order2": 1}
    if meta_extra:
        meta.update(meta_extra)
    return list(o2.elements), meta


def basis_case_E1(ctx):
    """Reduced 4-tuple-root dispatch; the caller guarantees the reduction
    step has already been applied."""
    a, b, c, p, f = ctx.a, ctx.b, ctx.c, ctx.p, ctx.f
    vc, vb, va = vp(c, p), vp(b, p), vp(a, p)
    row = match_rows(E1_ROWS, vc, vb, va, p)
    meta = {"case": "E1", "rows": [row.rid]}
    if row.strategy == "power":
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
        return _construct(ctx, [_X], display, meta)
    if row.strategy == "theta3":
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(_X**2, 0), BasisElement(_X**3, 1)]
        return _construct(ctx, [_X], display, meta)
    if row.strategy == "x-reg":
        return _construct(ctx, [_X], None, meta)
    if row.strategy == "iterate":
        s = iterate_to_regular(f, 0, p)
        nu = _ordinate_floor(f, s, p, 1)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(_X**2, 1), BasisElement(_quartic_q1(f, s), nu)]
        meta.update({"s": s, "nu": nu})
        return _construct(ctx, [IntPoly([-s, 1])], display, meta)
    if row.strategy == "half-a":
        mprime = vp(a * a - 4 * c, p)
        if not is_finite(mprime):
            # a^2 = 4c: every m' > v_p(b) gives the same nu = v_p(b)/2
            mprime = vp(b, p) + 1
        if mprime == 2:
            return _construct(ctx, [_X], None, meta)
        M = p ** (mprime // 2 + 2)
        s = symmetric_rep(a * inv_mod(2, M) % M, M)
        nu = Fraction(min(vp(b, p), mprime), 2)
        phi, tag = order2.choose_phi("E1_row3", {"s": s})
        family, meta2 = _order2_family(ctx, f, phi, tag, nu, [row.rid], {"s": s})
        return triangularize(family, p, 4, generators=family, meta=meta2)
    if row.strategy == "table3":
        Q, nu, rows = table3_q_nu(a, b, c)
        phi, tag = order2.choose_phi("E1_row6", {"a": a, "b": b, "c": c})
        family, meta2 = _order2_family(ctx, f, phi, tag, nu, [row.rid] + rows)
        return triangularize(family, p, 4, generators=family, meta=meta2)
    raise InconsistentError(f"unhandled strategy {row.strategy}")


# -- case E2: p = 2, a, b even, c odd ---------------------------------------------


def _scale_down(g, k):
    """g(2^k x) / 2^(4k), exact when the coefficient valuations allow it."""
    return g.scale_arg(2**k).divide_exact(2 ** (4 * k))


def basis_case_E2(ctx):
    f, p = ctx.f, ctx.p
    m = 1
    for _ in range(10):
        g = f.shift(m)
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
    omega_shift = m  # omega = theta - m

    def finish(elements_tau, scale_pow, display_tau, extra_rows=(), extra_meta=None):
        meta2 = dict(meta)
        meta2["rows"] = meta["rows"] + list(extra_rows)
        if extra_meta:
            meta2.update(extra_meta)
        gens = _transport(display_tau, 2, scale_pow, omega_shift) if display_tau else None
        els = _transport(elements_tau, 2, scale_pow, omega_shift)
        basis = triangularize(els, 2, 4, generators=gens or els, meta=meta2)
        return basis

    if row.strategy == "direct":
        constructed = _regular_basis(g, 2, [_X])
        denoms = E2_DIRECT_DENOMS[row.rid]
        display = [BasisElement(_ONE, 0)] + [
            BasisElement(_X ** (i + 1), denoms[i]) for i in range(3)
        ]
        return finish(list(constructed.elements), 0, display)
    if row.strategy == "iterate":
        s = iterate_to_regular(g, 0, 2)
        constructed = _regular_basis(g, 2, [IntPoly([-s, 1])])
        nu = _ordinate_floor(g, s, 2, 1)
        pre = {"T4r5": (0, 1), "T4r18": (1, 3), "T4r24": (2, 4)}[row.rid]
        display = [BasisElement(_ONE, 0), BasisElement(_X, pre[0]),
                   BasisElement(_X**2, pre[1]),
                   BasisElement(_quartic_q1(g, s), nu)]
        return finish(list(constructed.elements), 0, display,
                      extra_meta={"s": s, "nu": nu})
    if row.strategy == "table5":
        Q, nu, rows = table5_q_nu(A, B, C)
        phi, tag = order2.choose_phi("E2_row4", {"A": A, "B": B, "C": C})
        family, meta2 = _order2_family(ctx, g, phi, tag, nu, rows)
        return finish(family, 0, None, extra_rows=meta2["rows"],
                      extra_meta={"Y": meta2["Y"], "order2": 1})
    if row.strategy == "order2-54":
        h = _scale_down(g, 1)
        phi, tag = order2.choose_phi("E2_rows16_17", {})
        o2 = order2.basis_order2(
            order2.SecondOrderContext(h, 2, phi, tag))
        expected_Y = Fraction(9, 2) if vp(h[1], 2) >= 3 else Fraction(5)
        if o2.Y != expected_Y:
            raise InconsistentError(
                f"second-order ordinate {o2.Y} differs from the tabled {expected_Y}"
            )
        return finish(list(o2.elements), 1, None, extra_rows=[tag],
                      extra_meta={"Y": str(o2.Y), "order2": 1})
    if row.strategy == "table6":
        h = _scale_down(g, 1)
        Ap, Bp, Cp = h[2], h[1], h[0]
        phi, tag = order2.choose_phi("E2_row10", {"Ap": Ap, "Bp": Bp, "Cp": Cp})
        constructed = _regular_basis(h, 2, [phi])
        return finish(list(constructed.elements), 1, None, extra_rows=[tag])
    if row.strategy == "twodouble":
        h = _scale_down(g, 1)
        return _basis_e2_twodouble(h, finish)
    if row.strategy == "scale4":
        h = _scale_down(g, 2)
        s = iterate_to_regular(h, 0, 2)
        lifts = [IntPoly([-s, 1]), IntPoly([-1, 1])]
        constructed = _regular_basis(h, 2, lifts)
        nu1 = _ordinate_floor(h, s, 2, 1)
        nu2 = _ordinate_floor(h, s, 2, 2)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(_quartic_q2(h, s), nu2),
                   BasisElement(_quartic_q1(h, s), nu1)]
        return finish(list(constructed.elements), 2, display, ["eq-last"],
                      {"s": s})
    raise InconsistentError(f"unhandled strategy {row.strategy}")


def _basis_e2_twodouble(h, finish):
    """Expansion of the two-double-roots subcase of the shifted table:
    h = g(2x)/16 with h = x^2 (x+1)^2 mod 2."""
    Ap, Bp, Cp = h[2], h[1], h[0]
    vCp = vp(Cp, 2)
    vS = vp(Ap + Bp + Cp + 3, 2)
    x2x = IntPoly([0, 1, 1])
    if vCp == 1 and vS == 1:
        t, s = 0, 1
        rows = ["Tdd2-r1"]
        display = [BasisElement(IntPoly.x(i), 0) for i in range(4)]
    elif vCp == 1:
        t = 0
        s = iterate_to_regular(h, 1, 2)
        rows = ["Tdd2-r2"]
        display = None
    elif vS == 1:
        t = 1
        s = iterate_to_regular(h, 0, 2)
        rows = ["Tdd2-r3"]
        display = None
    elif Ap % 4 == 3:
        t = 0
        s = iterate_to_regular(h, 1, 2)
        rows = ["Tdd2-r4"]
        nu_s = _ordinate_floor(h, s, 2, 1)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(x2x, 1),
                   BasisElement(_quartic_q1(h, s), nu_s)]
    else:
        s_even = iterate_to_regular(h, 0, 2)
        s_odd = iterate_to_regular(h, 1, 2)
        nu_even = _ordinate_floor(h, s_even, 2, 1)
        nu_odd = _ordinate_floor(h, s_odd, 2, 1)
        if nu_even > nu_odd:
            s, t, nu_s, nu_t = s_even, s_odd, nu_even, nu_odd
        else:
            s, t, nu_s, nu_t = s_odd, s_even, nu_odd, nu_even
        beta = IntPoly([s * s + s * t + t * t + 2 * (s + t) + Ap, s + t + 2, 1])
        rows = ["Tdd2-r5"]
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(beta, nu_t),
                   BasisElement(_quartic_q1(h, s), nu_s)]
    if display is None:
        nu_s = _ordinate_floor(h, s, 2, 1)
        display = [BasisElement(_ONE, 0), BasisElement(_X, 0),
                   BasisElement(_X**2, 0),
                   BasisElement(_quartic_q1(h, s), nu_s)]
    if not is_phi_regular(h, IntPoly([-t, 1]), 2).regular:
        raise InconsistentError("claimed-regular double-root lift is irregular")
    lifts = [IntPoly([-t, 1]), IntPoly([-s, 1])]
    constructed = _regular_basis(h, 2, lifts)
    return finish(list(constructed.elements), 1, display, rows, {"s": s, "t": t})
