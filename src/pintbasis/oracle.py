"""Independent verification of p-integral bases.

Nothing here touches Newton polygons.  One trace machinery serves every
check: the power sums of the roots of f come from Newton's identities on
its coefficients, the trace of any g(theta) is an integer combination of
them, the characteristic polynomial of g(theta) follows from the traces of
its powers by Newton's identities again, and the Gram matrix of the trace
form is built from the same traces.  Integrality is read off the
characteristic polynomial, and the p-maximal order is found by brute-force
saturation.  This module is the ground truth the constructive modules are
tested against.
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


def gram_matrix(f, basis):
    """Tr(w_i w_j) as exact Fractions (integers whenever all w_i are
    algebraic integers)."""
    n = f.degree
    ps = power_sums(f, 2 * n - 2)
    out = []
    for i, ei in enumerate(basis.elements):
        row = []
        for j, ej in enumerate(basis.elements):
            if j < i:
                row.append(out[j][i])
                continue
            num = (ei.numerator * ej.numerator) % f
            tr = trace_of_poly(num, ps)
            row.append(Fraction(tr, basis.p ** (ei.denom_exp + ej.denom_exp)))
        out.append(row)
    return out


def _det_fraction(m):
    """Exact determinant by fraction-free-ish elimination over Fractions."""
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                factor = m[r][c] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[c])]
    return det


def basis_discriminant(f, basis):
    """disc of the basis as det of its trace-form Gram matrix (exact)."""
    return _det_fraction(gram_matrix(f, basis))


def disc_identity_check(f, p, basis):
    """v_p(disc f) = 2 * index_valuation + v_p(disc basis), both sides exact
    and computed without shared code paths."""
    d_f = f.discriminant()
    d_b = basis_discriminant(f, basis)
    if d_b == 0 or d_f == 0:
        raise InconsistentError("vanishing discriminant (f not separable?)")
    return vp(d_f, p) == 2 * basis.index_valuation + vp_frac(d_b, p)


def is_ring_closed(f, basis, p):
    """Every product of two basis elements has p-integral coordinates in the
    basis.  Element k has top degree k, so a triangular back-substitution
    finds them.  Every denominator is a power of p, so it runs on integers:
    with E the largest denominator exponent, row k is element k times p^E
    and the target is the product times p^(2E).  A pivot u*p^a with p-unit
    u != 1 first multiplies the target by u, which multiplies the
    coordinates still to be found by a p-unit."""
    n, els = basis.n, basis.elements
    E = max(e.denom_exp for e in els)
    pE = p**E
    rows = [[e.numerator[j] * p ** (E - e.denom_exp) for j in range(n)] for e in els]
    pivots = []  # (p^(a+E), u) for the pivot u*p^a of row k
    for k, row in enumerate(rows):
        if not row[k]:
            raise InconsistentError("basis is not triangular")
        a = vp(row[k], p)
        pivots.append((p**a * pE, row[k] // p**a))
    for i in range(n):
        for j in range(i, n):
            num = (els[i].numerator * els[j].numerator) % f
            scale = p ** (2 * E - els[i].denom_exp - els[j].denom_exp)
            target = [num[k] * scale for k in range(n)]
            for k in range(n - 1, -1, -1):
                x = target[k]
                if not x:
                    continue
                pk, u = pivots[k]
                if x % pk:  # the coordinate x / (u p^(a+E)) is not p-integral
                    return False
                if u != 1:
                    target = [t * u for t in target]
                c = x // pk * pE
                target = [t - c * r for t, r in zip(target, rows[k])]
            if any(target):
                raise InconsistentError("basis failed to span a product")
    return True


def _kernel_mod_p(gram, p):
    """Basis of the null space of the Gram matrix mod p (symmetric, so left
    and right kernels coincide)."""
    n = len(gram)
    mat = [[int(x) % p for x in row] for row in gram]
    free_basis = []
    where = [-1] * n
    r = 0
    for c in range(n):
        piv = None
        for rr in range(r, n):
            if mat[rr][c] % p:
                piv = rr
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for rr in range(n):
            if rr != r and mat[rr][c] % p:
                fac = mat[rr][c]
                mat[rr] = [(x - fac * y) % p for x, y in zip(mat[rr], mat[r])]
        where[c] = r
        r += 1
    for c in range(n):
        if where[c] != -1:
            continue
        vec = [0] * n
        vec[c] = 1
        for c2 in range(n):
            if where[c2] != -1:
                vec[c2] = (-mat[where[c2]][c]) % p
        free_basis.append(vec)
    return free_basis


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
            num = IntPoly()
            den = 0
            for ci, el in zip(c, basis.elements):
                if ci:
                    den = max(den, el.denom_exp)
            for ci, el in zip(c, basis.elements):
                if ci:
                    num = num + ci * el.numerator * p ** (den - el.denom_exp)
            cand = BasisElement(num, den + 1)
            if num.is_zero():
                continue
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
