"""Exact integer arithmetic helpers: p-adic valuations, the Baillie-PSW
primality test, Legendre symbols.  Valuations take values in the naturals
extended by INFINITY.
"""

from math import isqrt


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


def is_prime(n):
    """Baillie-PSW: trial division by the primes up to 37, a strong
    Fermat test to base 2, and a strong Lucas test with Selfridge's
    parameters (Baillie and Wagstaff, Math. Comp. 35 (1980)).  A prime
    always passes.  No composite below 2^64 passes (Feitsma and Galway's
    table of base-2 pseudoprimes), so below 2^64 the answer is proven; above
    it the test is a test, not a proof, although no composite that passes
    it is known."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    return _strong_base_2_probable_prime(n) and _strong_lucas_probable_prime(n)


def _strong_base_2_probable_prime(n):
    """Miller's test of the odd n > 2 to base 2."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """The strong Lucas test of the odd n > 2 with no factor below 41, with
    Selfridge's parameters: D the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd,
    n passes when U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.  A perfect
    square has no such D, so it is rejected first."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:  # D shares a proper factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        return (x if x % 2 == 0 else x + n) // 2 % n

    # U_k, V_k, Q^k mod n for the prefixes k of d in binary, P = 1:
    # U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, U_(k+1) = (U_k + V_k)/2 and
    # V_(k+1) = (D U_k + V_k)/2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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
    """Legendre symbol (a/p) for an odd prime p the caller has checked."""
    if p == 2:
        raise ValueError("Legendre symbol requires an odd prime")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1
