import random

import pytest
from hypothesis import given, strategies as st

from pintbasis import sqrt_mod_pk
from pintbasis.arith import INFINITY, is_prime, legendre, symmetric_rep, vp


def test_vp_basics():
    assert vp(0, 5) is INFINITY
    assert vp(12, 2) == 2
    assert vp(28880, 5) == 1  # disc(x^4 + x^2 + 5)
    assert vp(-8, 2) == 3


def test_infinity_ordering():
    assert INFINITY > 10**100
    assert not (INFINITY < 5)
    assert INFINITY + 7 is INFINITY
    assert 7 + INFINITY is INFINITY
    assert INFINITY >= INFINITY
    assert min(3, INFINITY) == 3


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.sampled_from([2, 3, 5, 7, 13]))
def test_vp_is_a_valuation(m, n, p):
    assert vp(m * n, p) == vp(m, p) + vp(n, p)
    if m + n != 0:
        lhs = vp(m + n, p)
        assert lhs >= min(vp(m, p), vp(n, p))
        if vp(m, p) != vp(n, p):
            assert lhs == min(vp(m, p), vp(n, p))


# strong pseudoprimes to every base up to 11, 13, 17, 19 and 23, and to every
# base up to 37 and up to 41 (Sorenson and Webster, Math. Comp. 86 (2017))
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981)


def test_is_prime_matches_a_sieve():
    """Every n below 2*10^5 against the sieve of Eratosthenes, which holds
    the base-2 strong pseudoprimes 2047, 3277, ... and the strong Lucas
    pseudoprimes 5459, 5777, ... of that range."""
    bound = 200000
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for q in range(2, 448):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, bound, q)))
    assert [n for n in range(bound) if is_prime(n) != bool(sieve[n])] == []


def test_is_prime_rejects_strong_pseudoprimes():
    assert not any(is_prime(n) for n in STRONG_PSEUDOPRIMES)
    # squares of the Wieferich primes pass the strong base-2 test
    assert not is_prime(1093**2) and not is_prime(3511**2)
    assert is_prime(2**61 - 1) and is_prime(2**127 - 1) and is_prime(2**521 - 1)
    assert not is_prime((2**61 - 1) * (2**127 - 1)) and not is_prime((2**127 - 1) ** 2)


def test_legendre():
    assert legendre(2, 5) == -1
    assert legendre(4, 5) == 1
    assert legendre(10, 5) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_multiplicative():
    rng = random.Random(7)
    for p in (3, 5, 7, 13, 101):
        for _ in range(50):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_sqrt_mod_pk_examples():
    assert sqrt_mod_pk(1, 7, 2) == 1
    assert sqrt_mod_pk(2, 7, 2) == 10
    assert (10 * 10 - 2) % 49 == 0
    assert sqrt_mod_pk(2, 5, 1) is None
    with pytest.raises(ValueError):
        sqrt_mod_pk(10, 5, 2)


def test_sqrt_mod_pk_random():
    rng = random.Random(11)
    for p in (3, 5, 7, 13, 17):
        for k in (1, 2, 3, 5):
            for _ in range(20):
                a = rng.randrange(1, p**k)
                if a % p == 0:
                    continue
                s = sqrt_mod_pk(a, p, k)
                if s is None:
                    assert legendre(a, p) == -1
                else:
                    assert (s * s - a) % p**k == 0


def test_sqrt_mod_p_all_residues():
    for p in (3, 5, 7, 13, 29):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            s = sqrt_mod_pk(a, p, 1)
            if a in squares:
                assert s is not None and s * s % p == a
            else:
                assert s is None


def test_symmetric_rep():
    assert symmetric_rep(4, 5) == -1
    assert symmetric_rep(3, 5) == -2
    assert symmetric_rep(2, 5) == 2
    assert symmetric_rep(1, 2) == 1
    assert symmetric_rep(5, 2) == 1
    assert symmetric_rep(6, 4) == 2
