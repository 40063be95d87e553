"""The literal dispatch tables of the quartic pipeline.

Table 1 drives the shift iteration; the Table 2 rows dispatch the reduced
4-tuple-root case (E1) and Table 3 expands its second-order row at p = 2;
the Table 4 rows dispatch the shifted polynomial of case E2 and Table 5
expands its second-order row.  Each row is a literal guard with a row id,
so rows are unit-testable and the rows that fire are recorded in the
result metadata.  A guarded input reaches a table only under that table's
preconditions, so a table that matches no row is a program fault
(InconsistentError).  The case constructions that act on the rows are in
quartic and quartic_e.
"""

from .arith import is_finite, vp
from .errors import InconsistentError
from .record import Record


class Table1Row(Record):
    rid: int
    cond: str
    pclass: str  # '2', '>2', '3', '>3'
    guard: object  # (profile, p) -> bool
    delta: object  # profile -> int
    accelerated: bool = False


def _table1_guard_quadratic(pr, p):
    # sigma1^2 = 4 sigma0 sigma2 mod p
    return (pr.sigma1 * pr.sigma1 - 4 * pr.sigma0 * pr.sigma2) % p == 0


TABLE1_ROWS = (
    Table1Row(1, "I", "2",
              lambda pr, p: is_finite(pr.u0) and pr.u0 % 2 == 0 and pr.u0 < 2 * pr.u1,
              lambda pr: pr.u0 // 2),
    Table1Row(2, "I", ">2",
              lambda pr, p: pr.u0 == 2 * pr.u1 and _table1_guard_quadratic(pr, p),
              lambda pr: pr.u0 // 2, accelerated=True),
    Table1Row(3, "II", "2",
              lambda pr, p: pr.u0 > 3 * pr.u2 and is_finite(pr.u0) and is_finite(pr.u2)
              and (pr.u0 + pr.u2) % 2 == 0 and pr.u0 + pr.u2 < 2 * pr.u1,
              lambda pr: (pr.u0 - pr.u2) // 2),
    Table1Row(4, "II", ">2",
              lambda pr, p: pr.u0 > 3 * pr.u2 and is_finite(pr.u1)
              and pr.u0 + pr.u2 == 2 * pr.u1 and _table1_guard_quadratic(pr, p),
              lambda pr: (pr.u0 - pr.u2) // 2, accelerated=True),
    Table1Row(5, "II", "2",
              lambda pr, p: is_finite(pr.u1) and 2 * pr.u0 > 3 * pr.u1
              and pr.u1 % 2 == 0 and pr.u1 < 2 * pr.u2,
              lambda pr: pr.u1 // 2),
    Table1Row(6, "II", ">2",
              lambda pr, p: pr.u0 > 3 * pr.u2 and is_finite(pr.u1) and pr.u1 == 2 * pr.u2
              and (pr.sigma2**2 - 4 * pr.sigma1 * pr.sigma3) % p == 0,
              lambda pr: pr.u1 // 2),
    Table1Row(7, "II", "2",
              lambda pr, p: is_finite(pr.u2) and pr.u0 == 3 * pr.u2 and pr.u1 == 2 * pr.u2,
              lambda pr: pr.u0 // 3),
    Table1Row(8, "II", "3",
              lambda pr, p: is_finite(pr.u0) and pr.u0 % 3 == 0 and pr.u0 < 3 * pr.u2
              and 2 * pr.u0 < 3 * pr.u1,
              lambda pr: pr.u0 // 3),
    Table1Row(9, "II", ">3",
              lambda pr, p: is_finite(pr.u2) and pr.u0 == 3 * pr.u2 and pr.u1 == 2 * pr.u2
              and (3 * pr.sigma3 * pr.sigma1 - pr.sigma2**2) % p == 0
              and (27 * pr.sigma3**2 * pr.sigma0 - pr.sigma2**3) % p == 0,
              lambda pr: pr.u0 // 3),
    Table1Row(10, "II", ">3",
              lambda pr, p: is_finite(pr.u1) and 2 * pr.u0 == 3 * pr.u1
              and 3 * pr.u1 < 6 * pr.u2
              and (4 * pr.sigma1**3 + 27 * pr.sigma0**2 * pr.sigma3) % p == 0,
              lambda pr: pr.u0 // 3),
    Table1Row(11, "II", ">3",
              lambda pr, p: is_finite(pr.u2) and pr.u0 == 3 * pr.u2
              and 2 * pr.u0 < 3 * pr.u1
              and (4 * pr.sigma2**3 + 27 * pr.sigma0 * pr.sigma3**2) % p == 0,
              lambda pr: pr.u0 // 3),
    Table1Row(12, "III", "2",
              lambda pr, p: is_finite(pr.u0) and is_finite(pr.u2)
              and (pr.u0 + pr.u2) % 2 == 0 and pr.u0 + pr.u2 < 2 * pr.u1,
              lambda pr: (pr.u0 - pr.u2) // 2),
    Table1Row(13, "III", ">2",
              lambda pr, p: is_finite(pr.u1) and pr.u0 + pr.u2 == 2 * pr.u1
              and _table1_guard_quadratic(pr, p),
              lambda pr: (pr.u0 - pr.u2) // 2, accelerated=True),
)


def match_table1(profile, p, cond):
    rows = []
    for row in TABLE1_ROWS:
        if row.cond != cond:
            continue
        if row.pclass == "2" and p != 2:
            continue
        if row.pclass == ">2" and p == 2:
            continue
        if row.pclass == "3" and p != 3:
            continue
        if row.pclass == ">3" and p <= 3:
            continue
        if row.guard(profile, p):
            rows.append(row)
    return rows


class TableRow(Record):
    rid: str
    guard: object
    strategy: str


# Table of the reduced 4-tuple-root case; guards take (vc, vb, va, p).
E1_ROWS = (
    TableRow("T2r1", lambda vc, vb, va, p: vc == 1, "power"),
    TableRow("T2r2", lambda vc, vb, va, p: vc > 1 and vb == 1, "theta3"),
    TableRow("T2r3", lambda vc, vb, va, p: vc == 2 and vb > 1 and va == 1 and p > 2,
             "half-a"),
    TableRow("T2r4", lambda vc, vb, va, p: vc == 2 and vb > 1 and va == 1 and p == 2,
             "x-reg"),
    TableRow("T2r5", lambda vc, vb, va, p: vc == 2 and vb > 1 and va > 1 and p > 2,
             "x-reg"),
    TableRow("T2r6", lambda vc, vb, va, p: vc == 2 and vb > 1 and va > 1 and p == 2,
             "table3"),
    TableRow("T2r7", lambda vc, vb, va, p: vc > 2 and vb > 1 and va == 1 and p > 2,
             "iterate"),
    TableRow("T2r8", lambda vc, vb, va, p: vc > 2 and vb > 1 and va == 1 and p == 2,
             "iterate"),
    TableRow("T2r9", lambda vc, vb, va, p: vc > 2 and vb == 2 and va > 1, "x-reg"),
    TableRow("T2r10", lambda vc, vb, va, p: vc == 3 and vb > 2 and va > 1, "x-reg"),
)


def match_rows(rows, *args):
    hits = [r for r in rows if r.guard(*args)]
    if len(hits) != 1:
        raise InconsistentError(f"{len(hits)} rows match {args}")
    return hits[0]


# The (Q, nu) rows expanding the p = 2, v(c)=2, v(b)>1, v(a)>1 row; the
# guards take (va, vb, vacm4, vab) = (v(a), v(b), v(2a+c-4), v(2a+b)).
TABLE3_ROWS = (
    TableRow("T3r1", lambda va, vb, g4, gb: vb == 2, None),
    TableRow("T3r2", lambda va, vb, g4, gb: vb == 3 and g4 == 3, None),
    TableRow("T3r3", lambda va, vb, g4, gb: va == 2 and vb == 3 and g4 >= 4, None),
    TableRow("T3r4", lambda va, vb, g4, gb: va >= 3 and vb == 3 and g4 >= 4, None),
    TableRow("T3r5", lambda va, vb, g4, gb: va == 2 and vb >= 4 and g4 >= 4, None),
    TableRow("T3r6", lambda va, vb, g4, gb: va == 2 and vb >= 4 and g4 == 3, None),
    TableRow("T3r7", lambda va, vb, g4, gb: va >= 3 and vb >= 4 and g4 == 3, None),
    TableRow("T3r8", lambda va, vb, g4, gb: va >= 3 and vb >= 4 and g4 == 4 and gb > 4,
             None),
    TableRow("T3r9", lambda va, vb, g4, gb: va >= 3 and vb >= 4 and g4 == 4 and gb == 4,
             None),
    TableRow("T3r10", lambda va, vb, g4, gb: va >= 3 and vb >= 4 and g4 >= 5 and gb == 4,
             None),
    TableRow("T3r11", lambda va, vb, g4, gb: va >= 3 and vb >= 4 and g4 >= 5 and gb > 4,
             None),
)


def table3_q_nu(a, b, c):
    """(nu, row ids) for the second-order subcase of the reduced 4-tuple-root
    table at p = 2, with the paper's nu as a literal (num, den) pair, or None
    where the table gives none.  The row's numerator Q is not returned: the
    construction takes Q from the certified development."""
    va, vb = vp(a, 2), vp(b, 2)
    g4 = vp(2 * a + c - 4, 2)
    gb = vp(2 * a + b, 2)
    row = match_rows(TABLE3_ROWS, va, vb, g4, gb)
    rid = row.rid
    if rid == "T3r1":
        return (5, 4), [rid]
    if rid in ("T3r2", "T3r4", "T3r5"):
        return (7, 4), [rid]
    if rid in ("T3r3", "T3r7"):
        return (2, 1), [rid]
    if rid in ("T3r8", "T3r10"):
        return (9, 4), [rid]
    if rid in ("T3r9", "T3r11"):
        return (5, 2), [rid]
    # T3r6: keyed by u = v(b), v = v(c - a^2/4), d.  No closed nu form is
    # pinned for these deep cells (simple candidates fail against the
    # saturation oracle), so only the row is identified here; the
    # denominators are read off the second-order polygon and the family is
    # checked by one Round 2 step (quartic_e._order2_family).
    u = vb
    v = vp(c - a * a // 4, 2)
    if u <= v:
        return (2 * u + 1, 4), [rid, "T3r6s1"]
    d = ((c - a * a // 4) >> v) % 4
    if v % 2 == 0:
        sub = {(True, 3): "T3r6s2", (False, 3): "T3r6s3",
               (True, 1): "T3r6s4", (False, 1): "T3r6s5"}[(u - 1 == v, d)]
        return None, [rid, sub]
    plus = d == (a // 4) % 4
    if not plus and d != (-a // 4) % 4:
        raise InconsistentError(f"no (Q, nu) subrow for (a,b,c)=({a},{b},{c})")
    sub = {(True, True): "T3r6s6", (False, True): "T3r6s7",
           (True, False): "T3r6s8", (False, False): "T3r6s9"}[(u - 1 == v, plus)]
    return None, [rid, sub]


# Rows of the shifted-polynomial table; guards take (vC, vB, vA) for
# g(x) = f(x+m) = x^4 + 4m x^3 + A x^2 + B x + C.
E2_ROWS = (
    TableRow("T4r1", lambda vC, vB, vA: vC == 1, "direct"),
    TableRow("T4r2", lambda vC, vB, vA: vC > 1 and vB == 1, "direct"),
    TableRow("T4r3", lambda vC, vB, vA: vC == 2 and vB > 1 and vA == 1, "direct"),
    TableRow("T4r4", lambda vC, vB, vA: vC == 2 and vB > 1 and vA > 1, "table5"),
    TableRow("T4r5", lambda vC, vB, vA: vC > 2 and vB > 1 and vA == 1, "iterate"),
    TableRow("T4r6", lambda vC, vB, vA: vC > 2 and vB == 2 and vA > 1, "direct"),
    TableRow("T4r7", lambda vC, vB, vA: vC == 3 and vB > 2 and vA > 1, "direct"),
    TableRow("T4r8", lambda vC, vB, vA: vC == 4 and vB == 3 and vA == 2, "direct"),
    TableRow("T4r9", lambda vC, vB, vA: vC == 4 and vB == 3 and vA > 2, "direct"),
    TableRow("T4r10", lambda vC, vB, vA: vC == 4 and vB > 3 and vA == 2, "table6"),
    TableRow("T4r11", lambda vC, vB, vA: vC > 4 and vB > 3 and vA == 2, "twodouble"),
    TableRow("T4r12", lambda vC, vB, vA: vC > 4 and vB == 3 and vA >= 2, "direct"),
    TableRow("T4r13", lambda vC, vB, vA: vC == 5 and vB > 3 and vA > 2, "direct"),
    TableRow("T4r14", lambda vC, vB, vA: vC > 5 and vB == 4 and vA > 2, "direct"),
    TableRow("T4r15", lambda vC, vB, vA: vC == 6 and vB > 4 and vA == 3, "direct"),
    TableRow("T4r16", lambda vC, vB, vA: vC == 6 and vB == 5 and vA >= 4, "order2-54"),
    TableRow("T4r17", lambda vC, vB, vA: vC == 6 and vB > 5 and vA >= 4, "order2-54"),
    TableRow("T4r18", lambda vC, vB, vA: vC > 6 and vB > 4 and vA == 3, "iterate"),
    TableRow("T4r19", lambda vC, vB, vA: vC > 6 and vB == 5 and vA >= 4, "direct"),
    TableRow("T4r20", lambda vC, vB, vA: vC == 7 and vB > 5 and vA >= 4, "direct"),
    TableRow("T4r21", lambda vC, vB, vA: vC == 8 and vB == 6 and vA == 4, "direct"),
    TableRow("T4r22", lambda vC, vB, vA: vC == 8 and vB > 6 and vA >= 4, "direct"),
    TableRow("T4r23", lambda vC, vB, vA: vC > 8 and vB == 6 and vA > 4, "direct"),
    TableRow("T4r24", lambda vC, vB, vA: vC > 8 and vB > 6 and vA == 4, "iterate"),
    TableRow("T4r25", lambda vC, vB, vA: vC > 8 and vB > 6 and vA > 4, "scale4"),
)


# Explicit 2-power denominator patterns (deg 1..3) for the direct rows.
E2_DIRECT_DENOMS = {
    "T4r1": (0, 0, 0), "T4r2": (0, 0, 1), "T4r3": (0, 1, 1),
    "T4r6": (0, 1, 2), "T4r7": (0, 1, 2), "T4r8": (1, 2, 3), "T4r9": (1, 2, 3),
    "T4r12": (1, 2, 3), "T4r13": (1, 2, 3), "T4r14": (1, 2, 4),
    "T4r15": (1, 3, 4), "T4r19": (1, 3, 5), "T4r20": (1, 3, 5),
    "T4r21": (2, 4, 6), "T4r22": (2, 4, 6), "T4r23": (2, 4, 6),
}


def bad_shift(vC, vB, vA):
    """The three (vA, vB, vC) patterns excluded by adjusting the odd shift m."""
    if vA > 2 and vB > 3 and vC == 4:
        return 2
    if vA > 4 and vB == 6 and vC == 8:
        return 4
    if vA == 4 and vB == 6 and vC > 8:
        return 4
    return 0


def table5_q_nu(A, B, C):
    """(nu, rows) expanding the vC=2, vB>1, vA>1 row of the shifted table;
    as in table3_q_nu, nu is a literal (num, den) pair or None, and the row's
    numerator Q is not returned."""
    vA, vB8 = vp(A, 2), vp(B + 8, 2)
    vac = vp(2 * A + C + 4, 2)
    if vB8 == 2:
        return (5, 4), ["T5r1"]
    if vB8 == 3 and vac >= 4:
        return (7, 4), ["T5r2"]
    if vA == 2:
        if vB8 == 3 and vac == 3:
            return (2, 1), ["T5r3"]
        if vB8 >= 4 and vac == 3:
            return (7, 4), ["T5r4"]
        # oracle-pinned: nu = 5/2 exactly when v(B+8) = 4 iff v(2A+C+4) = 4
        # (the two diagonal cells share 5/2, the two off-diagonal ones 9/4)
        if vB8 == 4 and vac >= 5:
            return (9, 4), ["T5r5"]
        if vB8 == 4 and vac == 4:
            return (5, 2), ["T5r5d"]
        if vB8 >= 5 and vac >= 5:
            return (5, 2), ["T5r6"]
        if vB8 >= 5 and vac == 4:
            return (9, 4), ["T5r7"]
    if vA >= 3:
        if vB8 == 3 and vac == 3:
            return (7, 4), ["T5r8"]
        if vB8 >= 4 and vac >= 4:
            return (2, 1), ["T5r10"]
        if vB8 >= 4 and vac == 3:
            # sub-table keyed by u, v, d, e.  As with the reduced-case
            # expansion, no closed nu form is pinned for deep cells, so rows
            # are identified for coverage, the denominators come from the
            # second-order polygon and one Round 2 step checks the family.
            u = vp(B + 8 - 2 * A, 2)
            v = vp(C - (A - 4) ** 2 // 4, 2)
            if u < v or (u == v and is_finite(v) and v % 2 == 0):
                return (2 * u + 1, 4), ["T5r9", "T5r9s1"]
            d = ((C - (A - 4) ** 2 // 4) >> v) % 4
            if u == v:
                e = ((B + 8 - 2 * A) >> u) % 4
                plus = d == (1 + A // 4) % 4
                if not plus and d != (-1 + A // 4) % 4:
                    raise InconsistentError(f"no subrow for (A,B,C)=({A},{B},{C})")
                sub = {(True, 1): "T5r9s2", (True, 3): "T5r9s3",
                       (False, 3): "T5r9s4", (False, 1): "T5r9s5"}[(plus, e)]
                return None, ["T5r9", sub]
            if v % 2 == 0:
                if u - 1 == v:
                    return None, ["T5r9", "T5r9s6"]
                if d == 3:
                    return None, ["T5r9", "T5r9s7"]
                return None, ["T5r9", "T5r9s8"]
            return None, ["T5r9", "T5r9s9"]
    raise InconsistentError(f"no (Q, nu) row for (A,B,C)=({A},{B},{C})")
