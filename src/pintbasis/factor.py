"""Factorization of integer polynomials modulo p, plus irreducibility
checks over Q used as input sanity guards.

Lifts of mod-p factors use symmetric representatives in (-p/2, p/2] so the
coefficients of phi-adic developments stay small.
"""

from math import isqrt

from .arith import check_prime, symmetric_rep
from .errors import NotIrreducibleError
from .fq import FpArith
from .intpoly import IntPoly

_X = IntPoly([0, 1])


def factor_mod_p(f, p):
    """Complete factorization of f mod p.

    Returns a list of (lift, multiplicity) pairs where each lift is a monic
    IntPoly with symmetric coefficients reducing to an irreducible factor of
    f mod p.  The list is deterministically ordered."""
    check_prime(p)
    fp = FpArith(p)
    fbar = fp.reduce(f.coeffs)
    if not fbar:
        raise ValueError("f vanishes mod p")
    _, factors = fp.factor(fbar)
    return [(IntPoly([symmetric_rep(c, p) for c in g]), m) for g, m in factors]


def is_irreducible_mod_p(phi, p):
    """True iff phi mod p is irreducible of degree >= 1 over F_p."""
    check_prime(p)
    fp = FpArith(p)
    return fp.is_irreducible(fp.reduce(phi.coeffs))


def integer_roots(f):
    """All integer roots of a monic integer polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    if f[0] == 0:
        roots.append(0)
        while f[0] == 0:
            f = f // _X
    c0 = abs(f[0])
    if c0 == 0:
        return sorted(set(roots))
    divs = set()
    for d in range(1, isqrt(c0) + 1):
        if c0 % d == 0:
            divs.update((d, -d, c0 // d, -(c0 // d)))
    roots.extend(d for d in divs if f(d) == 0)
    return sorted(set(roots))


def is_irreducible_quartic(a, b, c):
    """Exact irreducibility test for x^4 + a*x^2 + b*x + c over Q."""
    f = IntPoly.monic_quartic(a, b, c)
    return not (c == 0 or integer_roots(f) or _splits_2_2(a, b, c))


def _splits_2_2(a, b, c):
    """Whether x^4 + a*x^2 + b*x + c with c != 0 is a product of two monic
    integer quadratics (x^2+ux+v)(x^2-ux+w): vw = c, v+w-u^2 = a and
    u(w-v) = b.  Together with the absence of integer roots (a 1+3 split)
    this decides irreducibility."""
    divs = set()
    for d in range(1, isqrt(abs(c)) + 1):
        if c % d == 0:
            divs.update((d, -d, c // d, -(c // d)))
    for v in divs:
        w = c // v
        u2 = v + w - a
        if u2 < 0:
            continue
        u = isqrt(u2)
        if u * u != u2:
            continue
        if u * (w - v) == b or -u * (w - v) == b:
            return True
    return False


_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def is_irreducible(f):
    """Best-effort irreducibility test for a monic integer polynomial.

    Returns True (proved irreducible), False (proved reducible), or None when
    the mod-q degree patterns stay ambiguous.  Degree <= 3 and quartics of
    the shape x^4+ax^2+bx+c are decided exactly."""
    n = f.degree
    if n <= 0:
        return False
    if not f.monic:
        raise ValueError("monic polynomial required")
    if n == 1:
        return True
    if f[0] == 0 or integer_roots(f):
        return False
    if n <= 3:
        return True  # no roots, so no factor of degree 1 and none of degree n-1
    if n == 4 and f[3] == 0:
        return not _splits_2_2(f[2], f[1], f[0])
    possible = set(range(1, n))
    for q in _WITNESS_PRIMES:  # f is monic, so deg (f mod q) = n
        fq = FpArith(q)
        _, factors = fq.factor(fq.reduce(f.coeffs))
        degs = []
        for g, m in factors:
            degs.extend([len(g) - 1] * m)
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        possible &= sums
        if not possible:
            return True
    return None


def sanity_check_irreducible(f):
    """Raise NotIrreducibleError when a rational root, (for shape
    x^4+ax^2+bx+c) a quadratic factor, or (for any other f) a repeated
    factor is detected.  A quartic of that shape with a repeated factor is
    reducible, so the exact test covers it.  Returns disc f when the
    repeated-factor test computed it, None otherwise."""
    if f.degree < 2 or not f.monic:
        return None
    if f[0] == 0 or integer_roots(f):
        raise NotIrreducibleError(f"{f.render()} has a rational root")
    if f.degree == 4 and f[3] == 0:
        if _splits_2_2(f[2], f[1], f[0]):
            raise NotIrreducibleError(f"{f.render()} factors over Q")
        return None
    disc = f.discriminant()
    if disc == 0:
        raise NotIrreducibleError(f"{f.render()} has a repeated factor")
    return disc
