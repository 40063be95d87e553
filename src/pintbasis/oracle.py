"""Independent verification of p-integral bases.

Nothing here touches Newton polygons.  One trace machinery serves every
check: the power sums of the roots of f come from Newton's identities on
its coefficients, the trace of any g(theta) is an integer combination of
them, the characteristic polynomial of g(theta) follows from the traces of
its powers by Newton's identities again, and the Gram matrix of the trace
form is built from the same traces.  Integrality is read off the
characteristic polynomial.  The p-maximal order is found by the Round 2
algorithm (round2), linear algebra over F_p on the multiplication table of
each order; brute-force saturation (saturate) is its reference.  Both share
one F_p kernel routine, and coordinates in a triangular basis come from one
integer back-substitution, which also decides ring closure.  This module is
the ground truth the constructive modules are tested against.
"""

from fractions import Fraction
from itertools import product

from .arith import vp, vp_frac
from .errors import InconsistentError, NotIrreducibleError
from .intpoly import IntPoly
from .basis import BasisElement, PIntegralBasis, power_basis, triangularize


def char_poly_of_numerator(f, g):
    """Characteristic polynomial of g(theta) on Q[x]/(f), theta a root of the
    monic f of degree n, from the traces s_k = Tr(g(theta)^k), k = 1..n, by
    Newton's identities k*e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} s_i (Cohen,
    GTM 138).  The e_k are the elementary symmetric functions of the
    conjugates of g(theta), an algebraic integer, so every division by k is
    exact and a remainder is a broken invariant."""
    n = f.degree
    ps = power_sums(f, n - 1)
    traces = [n]
    h = IntPoly.const(1)
    for _ in range(n):
        h = (h * g) % f
        traces.append(trace_of_poly(h, ps))
    e = [1]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * traces[i] for i in range(1, k + 1))
        if acc % k:
            raise InconsistentError("Newton's identities gave a non-integral coefficient")
        e.append(acc // k)
    return IntPoly([(-1) ** k * e[k] for k in range(n, -1, -1)])


def is_integral(f, elem, p):
    """True iff g(theta)/p^e lies in Z_K: the characteristic polynomial of
    g(theta)/p^e is C(p^e y)/p^{ne}, so integrality says p^{e(n-k)} divides
    the coefficient of y^k for every k."""
    e = elem.denom_exp
    if e == 0:
        return True
    n = f.degree
    c = char_poly_of_numerator(f, elem.numerator)
    for k in range(n):
        need = e * (n - k)
        if c[k] != 0 and vp(c[k], p) < need:
            return False
    return True


def power_sums(f, kmax):
    """Traces of theta^k for k = 0..kmax by Newton's identities on the monic
    f = x^n + a_{n-1}x^{n-1} + ... + a_0:

        S_k + a_{n-1}S_{k-1} + ... + a_{n-k+1}S_1 + k*a_{n-k} = 0   (k <= n)
        S_k + a_{n-1}S_{k-1} + ... + a_0 S_{k-n} = 0                (k > n)
    """
    n = f.degree
    ps = [n]
    for k in range(1, kmax + 1):
        if k <= n:
            acc = -k * f[n - k]
            acc -= sum(f[n - j] * ps[k - j] for j in range(1, k))
        else:
            acc = -sum(f[n - j] * ps[k - j] for j in range(1, n + 1))
        ps.append(acc)
    return ps


def trace_of_poly(g, ps):
    """Trace of g(theta) as an exact integer combination of the power sums
    ps[k] = Tr(theta^k)."""
    return sum(c * ps[k] for k, c in enumerate(g.coeffs))


def _numerator_traces(f, basis):
    """Tr(g_i(theta) g_j(theta)) for the integer numerators g_i of the
    basis elements, as g_i^T H g_j with the Hankel matrix H[k][l] =
    Tr(theta^(k+l))."""
    n = f.degree
    ps = power_sums(f, 2 * n - 2)
    nums = [[e.numerator[k] for k in range(n)] for e in basis.elements]
    hg = [[sum(ps[k + l] * g[l] for l in range(n) if g[l]) for k in range(n)] for g in nums]
    out = [[0] * len(nums) for _ in nums]
    for i, gi in enumerate(nums):
        for j in range(i, len(nums)):
            out[i][j] = out[j][i] = sum(a * b for a, b in zip(gi, hg[j]))
    return out


def gram_matrix(f, basis):
    """Tr(w_i w_j) as exact Fractions (integers whenever all w_i are
    algebraic integers)."""
    p, els = basis.p, basis.elements
    return [[Fraction(t, p ** (els[i].denom_exp + els[j].denom_exp)) for j, t in enumerate(row)]
            for i, row in enumerate(_numerator_traces(f, basis))]


def _det_bareiss(m):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination: every division is exact."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        piv, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            m[i] = row_i[: k + 1] + [(row_i[j] * piv - row_i[k] * row_k[j]) // prev
                                     for j in range(k + 1, n)]
        prev = piv
    return sign * m[-1][-1] if n else 1


def basis_discriminant(f, basis):
    """disc of the basis, the determinant of its trace-form Gram matrix:
    the integer determinant of the numerators' traces over p^(2 sum e_i)."""
    e = sum(el.denom_exp for el in basis.elements)
    return Fraction(_det_bareiss(_numerator_traces(f, basis)), basis.p ** (2 * e))


def disc_identity_check(f, p, basis):
    """v_p(disc f) = 2 * index_valuation + v_p(disc basis), both sides exact
    and computed without shared code paths."""
    return _disc_identity(f, p, basis, f.discriminant())


def _disc_identity(f, p, basis, d_f):
    """disc_identity_check with disc f in hand."""
    d_b = basis_discriminant(f, basis)
    if d_b == 0 or d_f == 0:
        raise InconsistentError("vanishing discriminant (f not separable?)")
    return vp(d_f, p) == 2 * basis.index_valuation + vp_frac(d_b, p)


def _product(a, b, f):
    """a * b for two basis elements, as (numerator, denominator exponent)."""
    return (a.numerator * b.numerator) % f, a.denom_exp + b.denom_exp


def _coordinates(basis, p):
    """Back-substitution in a triangular basis: the returned function maps
    g(theta)/p^d to its coordinates mod p, or to None when one of them is not
    p-integral.  Element k has top degree k, and every denominator is a
    power of p, so it runs on integers: with E the largest denominator
    exponent, row k is element k times p^E and the target is scaled to p^S,
    S = max(E, d).  A pivot u*p^a with p-unit u != 1 first multiplies the
    target by u, which multiplies the coordinates still to be found by a
    p-unit; their residues divide it back out."""
    n, els = basis.n, basis.elements
    E = max(e.denom_exp for e in els)
    rows = [[e.numerator[j] * p ** (E - e.denom_exp) for j in range(n)] for e in els]
    pivots = []  # (p^a, u) for the pivot u*p^a of row k
    for k, row in enumerate(rows):
        if not row[k]:
            raise InconsistentError("basis is not triangular")
        pa = p ** vp(row[k], p)
        pivots.append((pa, row[k] // pa))

    def coordinates(num, d):
        S = max(E, d)
        pS = p ** (S - E)
        target = [num[k] * p ** (S - d) for k in range(n)]
        out = [0] * n
        unit = 1
        for k in range(n - 1, -1, -1):
            x = target[k]
            if not x:
                continue
            pa, u = pivots[k]
            if x % (pa * pS):  # the coordinate x / (u p^a p^(S-E)) is not p-integral
                return None
            if u != 1:
                target = [t * u for t in target]
                unit = unit * u % p
            c = x // (pa * pS)
            out[k] = c * pow(unit, -1, p) % p
            target = [t - c * pS * r for t, r in zip(target, rows[k])]
        if any(target):
            raise InconsistentError("basis failed to span an element")
        return out

    return coordinates


def is_ring_closed(f, basis, p):
    """Every product of two basis elements has p-integral coordinates in the
    basis, found by integer back-substitution (any triangular basis)."""
    coordinates, els = _coordinates(basis, p), basis.elements
    return all(coordinates(*_product(a, b, f)) is not None
               for i, a in enumerate(els) for b in els[i:])


def _kernel_mod_p(rows, p):
    """Basis of the left null space {c : sum c_i rows_i = 0} of the matrix
    mod p; for the symmetric Gram matrix it is also the right one."""
    m = len(rows)
    mat = [[int(row[c]) % p for row in rows] for c in range(len(rows[0]))]
    where = [-1] * m
    r = 0
    for c in range(m):
        piv = next((rr for rr in range(r, len(mat)) if mat[rr][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for rr, row in enumerate(mat):
            if rr != r and row[c]:
                fac = row[c]
                mat[rr] = [(x - fac * y) % p for x, y in zip(row, mat[r])]
        where[c] = r
        r += 1
    free_basis = []
    for c in range(m):
        if where[c] != -1:
            continue
        vec = [0] * m
        vec[c] = 1
        for c2 in range(m):
            if where[c2] != -1:
                vec[c2] = -mat[where[c2]][c] % p
        free_basis.append(vec)
    return free_basis


def _lift(c, elements, p):
    """sum c_i w_i as one BasisElement over the least common denominator."""
    den = max((el.denom_exp for ci, el in zip(c, elements) if ci), default=0)
    num = IntPoly()
    for ci, el in zip(c, elements):
        if ci:
            num = num + ci * el.numerator * p ** (den - el.denom_exp)
    return BasisElement(num, den)


def _projective_tuples(dim, p):
    """Nonzero tuples in F_p^dim with first nonzero coordinate 1."""
    for lead in range(dim):
        for tail in product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def saturate(f, p):
    """Brute-force p-saturation: starting from the power basis, adjoin
    alpha = (sum c_i w_i)/p whenever alpha is integral, re-triangularize and
    repeat until no candidate succeeds.

    Candidates are drawn from the kernel of the trace form mod p, which is a
    necessary condition for integrality (Tr(alpha * w_j) must be integral),
    and only one representative per F_p-line is tested; every accepted
    element still passes the full resolvent integrality test.  An f with a
    repeated factor raises NotIrreducibleError."""
    n = f.degree
    basis = power_basis(p, n)
    disc = f.discriminant()
    if disc == 0:
        raise NotIrreducibleError(f"{f.render()} has a repeated factor")
    max_rounds = vp(disc, p) // 2 + 2
    for _ in range(max_rounds + 1):
        gram = gram_matrix(f, basis)
        for row in gram:
            for x in row:
                if x.denominator != 1:
                    raise InconsistentError("non-integral trace in saturation")
        kernel = _kernel_mod_p(gram, p)
        found = None
        for combo in _projective_tuples(len(kernel), p):
            c = [sum(k[i] * t for k, t in zip(kernel, combo)) % p for i in range(n)]
            lift = _lift(c, basis.elements, p)
            if lift.numerator.is_zero():
                continue
            cand = BasisElement(lift.numerator, lift.denom_exp + 1)
            if is_integral(f, cand, p):
                found = cand
                break
        if found is None:
            return PIntegralBasis(
                basis.p, basis.elements, basis.index_valuation, basis.elements,
                {"method": "saturation"},
            )
        basis = triangularize(list(basis.elements) + [found], p, n)
    raise InconsistentError("saturation failed to terminate")


def round2(f, p):
    """The p-maximal order by the Round 2 algorithm of Pohst and Zassenhaus
    (Cohen, GTM 138, 6.1), as the same triangular basis saturate returns.

    Starting from the power basis O, each round takes the p-radical I_p of O
    as the kernel of x -> x^q on O/pO, q = p^j >= n, and replaces O by the
    multiplier ring {x : x I_p in I_p} = (1/p)U, where U/pO is the kernel of
    O/pO -> End(I_p/pI_p).  O is p-maximal exactly when that kernel is 0.
    Each round raises the index, which v_p(disc f) bounds, so a round past
    that bound is a broken invariant.  An f with a repeated factor raises
    NotIrreducibleError."""
    return _round2(f, p, f.discriminant())


def _round2(f, p, disc):
    """round2 with disc f in hand."""
    if disc == 0:
        raise NotIrreducibleError(f"{f.render()} has a repeated factor")
    n, v = f.degree, vp(disc, p)
    q = p
    while q < n:
        q *= p
    order = power_basis(p, n)
    for _ in range(v // 2 + 2):
        els = order.elements
        grow = _multipliers(f, order, _radical(f, order, p, q), p) if v >= 2 else []
        if not grow:
            return PIntegralBasis(p, els, order.index_valuation, els, {"method": "round2"})
        order = triangularize(list(els) + grow, p, n)
    raise InconsistentError("Round 2 failed to terminate")


def _radical(f, order, p, q):
    """The p-radical of the order: pO plus the lifts of the kernel of
    x -> x^q on O/pO, with the powers taken in its multiplication table mod p."""
    n, els = order.n, order.elements
    coordinates = _coordinates(order, p)
    table = [[None] * n for _ in range(n)]  # w_i w_j in coordinates mod p
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = coordinates(*_product(els[i], els[j], f))
            if table[i][j] is None:
                raise InconsistentError("Round 2 order is not a ring")

    def mul(a, b):
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        c = ai * bj
                        out = [o + c * t for o, t in zip(out, table[i][j])]
        return [o % p for o in out]

    powers = []  # the coordinates of w_i^q
    for i in range(n):
        x = w = [int(k == i) for k in range(n)]
        for bit in bin(q)[3:]:
            x = mul(x, x)
            if bit == "1":
                x = mul(x, w)
        powers.append(x)
    return triangularize([BasisElement(e.numerator * p, e.denom_exp) for e in els]
                         + [_lift(c, els, p) for c in _kernel_mod_p(powers, p)], p, n)


def _multipliers(f, order, radical, p):
    """Elements u/p, u in O, that together with O span the multiplier ring
    of the radical I: U/pO is the kernel of O/pO -> End(I/pI), so none when
    O is p-maximal."""
    in_radical = _coordinates(radical, p)
    action = []  # row i: w_i times each radical element, in coordinates mod p
    for w in order.elements:
        row = []
        for b in radical.elements:
            c = in_radical(*_product(w, b, f))
            if c is None:
                raise InconsistentError("Round 2 radical is not an ideal")
            row += c
        action.append(row)
    lifts = [_lift(c, order.elements, p) for c in _kernel_mod_p(action, p)]
    return [BasisElement(e.numerator, e.denom_exp + 1) for e in lifts]
