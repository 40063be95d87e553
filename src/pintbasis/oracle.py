"""Independent verification of p-integral bases.

Nothing here touches Newton polygons or the constructions' mod-p kernel.
One trace machinery serves every check: the power sums of the roots of f
come from Newton's identities on its coefficients, the trace of any
g(theta) is an integer combination of them, the characteristic polynomial
of g(theta) follows from the traces of its powers by Newton's identities
again, and the Gram matrix of the trace form is built from the same traces.
Integrality is read off the characteristic polynomial.  The p-maximal
order is found by the Round 2 algorithm (round2), linear algebra over F_p:
the p-radical is the kernel of the trace form mod p when p > n and of a
power of the Frobenius otherwise; brute-force saturation (saturate) is its
reference.  Round 2 starts from the power basis, or from any order given
with its multiplication table: by the Pohst-Zassenhaus criterion (Cohen,
GTM 138, Thm 6.1.3) an order is p-maximal exactly when the multiplier ring
of its p-radical is itself, so one step from a constructed order checks it,
which is how verify uses it.  Products are plain integer lists reduced mod
f, coordinates in a triangular basis come from one integer
back-substitution, and one multiplication table decides ring closure for
is_ring_closed, for verify and for the order Round 2 returns.  This module
is the ground truth the constructive modules are tested against.
"""

from itertools import product

from .arith import vp
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
    nums = _numerators(basis.elements, n)
    hg = [[sum(ps[k + l] * g[l] for l in range(n) if g[l]) for k in range(n)] for g in nums]
    out = [[0] * len(nums) for _ in nums]
    for i, gi in enumerate(nums):
        for j in range(i, len(nums)):
            out[i][j] = out[j][i] = sum(a * b for a, b in zip(gi, hg[j]))
    return out


def gram_matrix(f, basis):
    """The trace form Tr(w_i w_j) of a basis of algebraic integers, as
    integers: the numerators' traces over p^(e_i + e_j).  Every caller
    passes an order, so a non-integral entry is a broken invariant."""
    p, els = basis.p, basis.elements
    gram = [[divmod(t, p ** (ei.denom_exp + ej.denom_exp)) for ej, t in zip(els, row)]
            for ei, row in zip(els, _numerator_traces(f, basis))]
    if any(r for row in gram for _, r in row):
        raise InconsistentError("non-integral trace: the basis spans no order")
    return [[q for q, _ in row] for row in gram]


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


def disc_identity_check(f, p, basis):
    """v_p(disc f) = 2 * index_valuation + v_p(disc basis), both sides exact
    and computed without shared code paths."""
    return _disc_identity(f, p, basis, f.discriminant())


def _disc_identity(f, p, basis, d_f):
    """disc_identity_check with disc f in hand.  disc of the basis is the
    integer determinant of the numerators' traces over p^(2 sum e_i)."""
    det = _det_bareiss(_numerator_traces(f, basis))
    if det == 0 or d_f == 0:
        raise InconsistentError("vanishing discriminant (f not separable?)")
    e = sum(el.denom_exp for el in basis.elements)
    return vp(d_f, p) == 2 * basis.index_valuation + vp(det, p) - 2 * e


def _numerators(elements, n):
    """The integer numerators of the elements as coefficient lists of
    length n, lowest degree first."""
    return [[e.numerator[k] for k in range(n)] for e in elements]


def _mulmod(a, b, f):
    """a * b mod the monic f on coefficient lists (lowest degree first):
    a and b have length n = deg f, and so has the result."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            prod[i:i + n] = [x + ai * y for x, y in zip(prod[i:i + n], b)]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod.pop()
        if c:
            prod[k - n:] = [x - c * y for x, y in zip(prod[k - n:], f)]
    return prod


def _coordinates(basis, p):
    """Back-substitution in a triangular basis: the returned function maps
    g(theta)/p^d to its coordinates mod p, or to None when one of them is not
    p-integral.  Element k has top degree k, and every denominator is a
    power of p, so it runs on integers: with E the largest denominator
    exponent, row k is element k times p^E and the target is scaled to p^S,
    S = max(E, d).  Each step clears the top entry of the target, which then
    shrinks by one.  A pivot u*p^a with p-unit u != 1 first multiplies the
    target by u, which multiplies the coordinates still to be found by a
    p-unit; their residues divide it back out."""
    n, els = basis.n, basis.elements
    E = max(e.denom_exp for e in els)
    rows = [[e.numerator[j] * p ** (E - e.denom_exp) for j in range(n)] for e in els]
    pivots = []  # (p^a, u) for the pivot u*p^a of row k
    for k, row in enumerate(rows):
        if not row[k] or any(row[k + 1:]):
            raise InconsistentError("basis is not triangular")
        pa = p ** vp(row[k], p)
        pivots.append((pa, row[k] // pa))

    def coordinates(num, d):
        S = max(E, d)
        pS, scale = p ** (S - E), p ** (S - d)
        target = [num[k] * scale for k in range(n)]
        out = [0] * n
        unit = 1
        for k in range(n - 1, -1, -1):
            x = target.pop()
            if not x:
                continue
            pa, u = pivots[k]
            if x % (pa * pS):  # the coordinate x / (u p^a p^(S-E)) is not p-integral
                return None
            if u != 1:
                target = [t * u for t in target]
                unit = unit * u % p
            c = x // (pa * pS)
            out[k] = c % p if unit == 1 else c * pow(unit, -1, p) % p
            m = c * pS
            target = [t - m * r for t, r in zip(target, rows[k])]
        return out

    return coordinates


def _table(f, basis, p):
    """The multiplication table of a triangular basis: table[i][j] holds the
    coordinates mod p of w_i w_j, found by integer back-substitution.  None
    when some product is not p-integral, that is when the basis spans no
    ring."""
    n, els = basis.n, basis.elements
    coordinates, nums = _coordinates(basis, p), _numerators(els, n)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = coordinates(_mulmod(nums[i], nums[j], f.coeffs),
                            els[i].denom_exp + els[j].denom_exp)
            if c is None:
                return None
            table[i][j] = table[j][i] = c
    return table


def is_ring_closed(f, basis, p):
    """Every product of two basis elements has p-integral coordinates in the
    basis (any triangular basis)."""
    return _table(f, basis, p) is not None


def _kernel_mod_p(rows, p):
    """Basis of the left null space {c : sum c_i rows_i = 0} of the matrix
    mod p; for the symmetric Gram matrix it is also the right one.  Row
    echelon reduction of [rows | I] leaves, beside the rows that reduce to
    0, the combinations that give them."""
    m, width = len(rows), len(rows[0])
    aug = [[x % p for x in row] + [int(i == j) for j in range(m)]
           for i, row in enumerate(rows)]
    r = 0
    for c in range(width):
        if r == m:
            break
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], -1, p)
        top = aug[r] = [x * inv % p for x in aug[r]]
        for i in range(r + 1, m):
            fac = aug[i][c]
            if fac:
                aug[i] = [(x - fac * y) % p for x, y in zip(aug[i], top)]
        r += 1
    return [row[width:] for row in aug[r:]]


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
        kernel = _kernel_mod_p(gram_matrix(f, basis), p)
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

    Starting from the power basis O, each round takes the p-radical I_p of
    O and replaces O by the multiplier ring {x : x I_p in I_p} = (1/p)U,
    where U/pO is the kernel of I_p/pO -> End(I_p/pI_p).  O is p-maximal
    exactly when that kernel is 0.  I_p/pO is the kernel of the trace form
    mod p when p > n, and otherwise the kernel of x -> x^q on O/pO, q = p^j
    >= n.  Each round raises the index, which v_p(disc f) bounds, so a round
    past that bound is a broken invariant.  The run ends by building the
    multiplication table of the order it returns, which raises
    InconsistentError on a product that is not p-integral, so the returned
    basis spans a ring.  An f with a repeated factor raises
    NotIrreducibleError."""
    return _round2(f, p, f.discriminant())


def _round2(f, p, disc, start=None):
    """round2 with disc f in hand, from the power basis or from start, a
    pair (order, table) of a triangular basis that spans a ring and its
    _table.  The bound on the rounds and the test that skips them read
    v_p(disc O) = v_p(disc f) - 2 ind(O), with ind(O) the sum over the
    elements of denom_exp minus the valuation of the pivot, so a start that
    does not contain Z[theta] is bounded too.  From a start, the order
    returned has the start's elements exactly when the first step adds
    nothing, that is when the start is p-maximal (Cohen, GTM 138, 6.1.3)."""
    if disc == 0:
        raise NotIrreducibleError(f"{f.render()} has a repeated factor")
    n = f.degree
    order, table = start or (power_basis(p, n), None)
    v = vp(disc, p) - 2 * sum(e.denom_exp - vp(e.numerator[k], p)
                              for k, e in enumerate(order.elements))
    for _ in range(v // 2 + 2):
        grow = []
        if v >= 2:
            grow = _multipliers(f, *_radical(f, order, p, table), p)
        if not grow:
            if table is None:
                _ring_table(f, order, p)
            els = order.elements
            return PIntegralBasis(p, els, order.index_valuation, els, {"method": "round2"})
        order, table = triangularize(list(order.elements) + grow, p, n), None
    raise InconsistentError("Round 2 failed to terminate")


def _ring_table(f, order, p):
    """_table of a Round 2 order, which must be a ring."""
    table = _table(f, order, p)
    if table is None:
        raise InconsistentError("Round 2 order is not a ring")
    return table


def _radical(f, order, p, table):
    """The p-radical I of the order O: the lifts of a basis of I/pO, and
    the triangular basis of I.  I/pO is a kernel mod p.  When p > n it is
    the kernel of the trace form Tr(w_i w_j) (Cohen, GTM 138, 6.1.6),
    integral on an order.  Otherwise it is the kernel of x -> x^q on O/pO,
    q = p^j >= n: x -> x^p is F_p-linear, so its matrix comes from the
    powers w_i^p (_frobenius), and x -> x^q is its j-th power."""
    n, els = order.n, order.elements
    if p > n:
        rows = gram_matrix(f, order)
    else:
        frob = _frobenius(f, order, p, table)
        rows, q = frob, p
        while q < n:  # rows of the power of the Frobenius matrix
            rows = [_combination(row, frob, p) for row in rows]
            q *= p
    lifts = [_lift(c, els, p) for c in _kernel_mod_p(rows, p)]
    return lifts, triangularize([BasisElement(e.numerator * p, e.denom_exp) for e in els]
                                + lifts, p, n)


def _frobenius(f, order, p, table):
    """Row i: the coordinates mod p of w_i^p.  With the order's table in
    hand they are read from it: w_i^2 from the diagonal, then p - 2 steps
    x -> x w_i along row i.  Otherwise the numerator of w_i^p comes from
    square-and-multiply with _mulmod and is read through _coordinates, so
    no full table is built; a power with a coordinate that is not
    p-integral shows that the order is no ring."""
    if table is not None:
        frob = []
        for i, row in enumerate(table):
            x = row[i]
            for _ in range(p - 2):  # x -> x w_i
                x = _combination(x, row, p)
            frob.append(x)
        return frob
    coordinates, frob = _coordinates(order, p), []
    for e, g in zip(order.elements, _numerators(order.elements, order.n)):
        x = g
        for bit in bin(p)[3:]:  # g^p mod f, from the second-highest bit of p down
            x = _mulmod(x, x, f.coeffs)
            if bit == "1":
                x = _mulmod(x, g, f.coeffs)
        frob.append(coordinates(x, p * e.denom_exp))
    if None in frob:
        raise InconsistentError("Round 2 order is not a ring")
    return frob


def _combination(c, rows, p):
    """sum c_i rows_i mod p."""
    out = [0] * len(rows[0])
    for ci, row in zip(c, rows):
        if ci:
            out = [o + ci * x for o, x in zip(out, row)]
    return [o % p for o in out]


def _multipliers(f, lifts, radical, p):
    """Elements u/p, u in O, that together with O span the multiplier ring
    of the radical I = pO + (lifts): U = {x in O : xI in pI} lies in I,
    since xp is in pI, and x in I multiplies pO into pI, so x is in U
    exactly when x times each lift is in pI.  U/pO is the kernel of that
    map on the lifts; none when O is p-maximal."""
    if not lifts:
        return []
    in_radical = _coordinates(radical, p)
    nums, r = _numerators(lifts, radical.n), len(lifts)
    products = [[None] * r for _ in lifts]  # l_i l_k in coordinates mod p
    for i in range(r):
        for k in range(i, r):
            c = in_radical(_mulmod(nums[i], nums[k], f.coeffs),
                           lifts[i].denom_exp + lifts[k].denom_exp)
            if c is None:
                raise InconsistentError("Round 2 radical is not an ideal")
            products[i][k] = products[k][i] = c
    action = [[x for c in row for x in c] for row in products]
    return [BasisElement(e.numerator, e.denom_exp + 1)
            for e in (_lift(c, lifts, p) for c in _kernel_mod_p(action, p))]
