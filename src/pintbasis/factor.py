"""Factorization of integer polynomials modulo p, plus irreducibility
checks over Q used as input sanity guards.

Lifts of mod-p factors use symmetric representatives in (-p/2, p/2] so the
coefficients of phi-adic developments stay small.
"""

from math import isqrt

from .arith import symmetric_rep
from .errors import NotIrreducibleError
from .fq import FpArith
from .intpoly import IntPoly

_X = IntPoly([0, 1])


def factor_mod_p(f, p):
    """Complete factorization of f mod p, for a prime p the caller has
    checked (newton.LocalAnalysis does).

    Returns a list of (lift, multiplicity) pairs where each lift is a monic
    IntPoly with symmetric coefficients reducing to an irreducible factor of
    f mod p.  The list is deterministically ordered."""
    fp = FpArith(p)
    fbar = fp.reduce(f.coeffs)
    if not fbar:
        raise ValueError("f vanishes mod p")
    _, factors = fp.factor(fbar)
    return [(IntPoly([symmetric_rep(c, p) for c in g]), m) for g, m in factors]


def is_irreducible_mod_p(phi, p):
    """True iff phi mod p is irreducible of degree >= 1 over F_p, for a
    prime p the caller has checked."""
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
    return not (c == 0 or integer_roots(f) or _splits_2_2(f))


def _splits_2_2(f):
    """Whether the monic quartic f = x^4 + a3 x^3 + a2 x^2 + a1 x + a0 with
    a0 != 0 is a product of two monic integer quadratics
    (x^2+ux+v)(x^2+(a3-u)x+w): vw = a0, a1 = u(w-v) + a3 v and
    a2 = v + w + u(a3-u).  For each divisor pair with w != v the x
    coefficient fixes u; with w = v it asks a1 = a3 v, and u is an integer
    root of u^2 - a3 u + a2 - 2v.  Together with the absence of integer
    roots (a 1+3 split) this decides irreducibility."""
    a0, a1, a2, a3 = f[0], f[1], f[2], f[3]
    divs = set()
    for d in range(1, isqrt(abs(a0)) + 1):
        if a0 % d == 0:
            divs.update((d, -d, a0 // d, -(a0 // d)))
    for v in divs:
        w = a0 // v
        if w != v:
            u, r = divmod(a1 - a3 * v, w - v)
            if not r and a2 == v + w + u * (a3 - u):
                return True
        elif a1 == a3 * v:
            disc = a3 * a3 - 4 * (a2 - 2 * v)
            if disc >= 0 and isqrt(disc) ** 2 == disc:
                return True
    return False


_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def is_irreducible(f):
    """Best-effort irreducibility test for a monic integer polynomial.

    Returns True (proved irreducible), False (proved reducible), or None when
    the mod-q degree patterns stay ambiguous.  Degree <= 3 and quartics are
    decided exactly."""
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
    if n == 4:
        return not _splits_2_2(f)
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


def _squarefree_witness(f):
    """The first q in _WITNESS_PRIMES with f mod q squarefree, gcd(f, f') = 1
    over F_q, or None.  For a monic f, disc f mod q is the discriminant of
    f mod q, so a witness q proves disc f != 0."""
    for q in _WITNESS_PRIMES:
        fq = FpArith(q)
        fbar = fq.reduce(f.coeffs)
        if len(fq.gcd(fbar, fq.deriv(fbar))) == 1:
            return q
    return None


def sanity_check_irreducible(f):
    """Raise NotIrreducibleError when a rational root, a repeated factor or
    (for a quartic) a quadratic factor is detected.  A quartic
    x^4+ax^2+bx+c with a repeated factor has a quadratic one, so for that
    shape the 2+2 test alone covers it.  For the other shapes a witness
    prime (_squarefree_witness) rules out a repeated factor; only when none
    witnesses is disc f computed exactly, and then it is returned.  Returns
    None otherwise."""
    if f.degree < 2 or not f.monic:
        return None
    if f[0] == 0 or integer_roots(f):
        raise NotIrreducibleError(f"{f.render()} has a rational root")
    disc = None
    if (f.degree != 4 or f[3]) and _squarefree_witness(f) is None:
        disc = f.discriminant()
        if disc == 0:
            raise NotIrreducibleError(f"{f.render()} has a repeated factor")
    if f.degree == 4 and _splits_2_2(f):
        raise NotIrreducibleError(f"{f.render()} factors over Q")
    return disc
