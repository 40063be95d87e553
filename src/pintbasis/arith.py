"""Exact integer arithmetic helpers: p-adic valuations, modular square roots,
Legendre symbols.  Valuations take values in the naturals extended by INFINITY.
"""

from fractions import Fraction


class _Infinity:
    """The top element of the valuation semiring: INFINITY + n = INFINITY,
    INFINITY > n for every finite n.  A single shared instance is used."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INFINITY - INFINITY is undefined")
        return self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("pintbasis-infinity")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def is_finite(v):
    return v is not INFINITY


def vp(n, p):
    """Largest k with p^k | n; INFINITY for n = 0."""
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    if n == 0:
        return INFINITY
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def vp_frac(q, p):
    """p-adic valuation of a rational number (INFINITY for 0)."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return vp(q.numerator, p) - vp(q.denominator, p)


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all 64-bit inputs and far beyond."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def inv_mod(a, m):
    """Inverse of a modulo m (m need not be prime, but gcd(a, m) must be 1)."""
    return pow(a, -1, m)


def symmetric_rep(a, m):
    """Representative of a mod m in (-m/2, m/2]."""
    a %= m
    if 2 * a > m:
        a -= m
    return a


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    if p == 2:
        raise ValueError("Legendre symbol requires an odd prime")
    check_prime(p)
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


def sqrt_mod_p(a, p):
    """Square root of a modulo an odd prime p (Tonelli-Shanks), or None if a
    is a quadratic non-residue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def sqrt_mod_pk(a, p, k):
    """Smallest s in [0, p^k) with s^2 = a (mod p^k), for odd p with p not
    dividing a.  Returns None when a is a non-residue mod p.  The root mod p
    is lifted Hensel-style, doubling the precision each step."""
    if p == 2:
        raise ValueError("p must be odd")
    if k < 1:
        raise ValueError("k must be positive")
    if a % p == 0:
        raise ValueError("p must not divide a (strip p-parts first)")
    s = sqrt_mod_p(a, p)
    if s is None:
        return None
    prec = 1
    while prec < k:
        prec = min(2 * prec, k)
        m = p**prec
        # Newton step: s <- (s + a/s) / 2 mod p^prec
        s = (s + a % m * inv_mod(s, m)) % m * inv_mod(2, m) % m
    s %= p**k
    return min(s, p**k - s)
