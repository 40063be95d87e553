"""Inputs of the four workloads, built from plain integers.

Nothing here calls pintbasis: the corpus filters, the closed-form family and
Ore's index formula are written out independently, so a change to the
program's routing or guards cannot change what a workload sends.

A polynomial is a tuple of integer coefficients, lowest degree first.  An
operation is a tuple (argv, expect): argv goes to ``pintbasis.cli.main`` and
expect tells the checker what the answer must satisfy.
"""

import hashlib
import random
from math import gcd, isqrt
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CORPUS_PRIMES = (2, 3, 5, 7, 13)
CORPUS_SHA256 = "1e0ee108cd50b95ddf496672f520ee69f8c09ae2890543f60f17fdee1494a45c"

# x^4+ax^2+bx+c inputs that end in a TypeError in quartic.basis_case_E1
# (row strategy half-a with a^2 = 4c); kept in quartic-irregular as failures.
KNOWN_FAILING = ((6, -27, 9, 3), (-10, 1250, 25, 5))


# -- polynomials --------------------------------------------------------------


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return tuple(out)


def poly_pow(f, m):
    out = (1,)
    for _ in range(m):
        out = poly_mul(out, f)
    return out


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def render(f):
    """'x^4+6*x^2-27*x+9' style text for the CLI's -f argument."""
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "x" if k == 1 else f"x^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        terms.append(sign + body)
    text = "".join(terms) or "0"
    return text[1:] if text.startswith("+") else text


def quartic(a, b, c):
    return (c, b, a, 0, 1)


def quartic_disc(a, b, c):
    """Discriminant of x^4+ax^2+bx+c in closed form."""
    return (16 * a**4 * c - 128 * a**2 * c**2 + 144 * a * b**2 * c
            - 4 * a**3 * b**2 + 256 * c**3 - 27 * b**4)


def _divisors(n):
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d))
    return out


def quartic_irreducible(a, b, c):
    """x^4+ax^2+bx+c is irreducible over Q: no integer root, and no
    factorization (x^2+ux+v)(x^2-ux+w) with vw = c, v+w-u^2 = a, u(w-v) = b."""
    if c == 0:
        return False
    f = quartic(a, b, c)
    if any(poly_eval(f, s * d) == 0 for d in _divisors(c) for s in (1, -1)):
        return False
    for d in _divisors(c):
        for v in (d, -d):
            w = c // v
            u2 = v + w - a
            u = isqrt(u2) if u2 >= 0 else -1
            if u >= 0 and u * u == u2 and abs(u * (w - v)) == abs(b):
                return False
    return True


def quartic_stream(rng, bound):
    """Endless (a, b, c, p): irreducible, p in CORPUS_PRIMES dividing the
    discriminant; the draw sequence of the acceptance corpus."""
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if not quartic_irreducible(a, b, c):
            continue
        d = quartic_disc(a, b, c)
        ps = [p for p in CORPUS_PRIMES if d % p == 0]
        if ps:
            yield a, b, c, rng.choice(ps)


def acceptance_corpus():
    """The 520-input acceptance corpus (seed 12345, |a|, |b|, |c| <= 1000)."""
    stream = quartic_stream(random.Random(12345), 1000)
    rows = [next(stream) for _ in range(520)]
    if corpus_digest(rows) != CORPUS_SHA256:
        raise RuntimeError("the acceptance corpus no longer reproduces")
    return rows


def corpus_digest(rows):
    text = "\n".join(" ".join(map(str, r)) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# -- the closed-form family f = prod phi_i^m_i + c p^k --------------------------


def _irreducible_mod_p(phi, p):
    """Monic phi of degree 1 or 2 is irreducible mod p."""
    if len(phi) == 2:
        return True
    if len(phi) != 3:
        raise ValueError("phi must be linear or quadratic")
    d, s = phi[0] % p, phi[1] % p
    if p == 2:
        return d == 1 and s == 1
    disc = (s * s - 4 * d) % p
    return disc != 0 and pow(disc, (p - 1) // 2, p) == p - 1


def family(factors, k, c, p):
    """f = prod phi^m + c p^k with Ore's index sum deg(phi) (m-1)(k-1)/2.

    The formula needs phi distinct and irreducible mod p, p not dividing c
    and gcd(m, k) = 1 for every factor: then each phi-polygon is the single
    side from (0, k) to (m, 0), its residual polynomial is linear, and f is
    p-regular.  A linear phi must have m >= 2, so that the slope k/m is not
    an integer and f has no rational root.  Anything else is refused."""
    if k < 1 or c % p == 0:
        raise ValueError("need k >= 1 and p not dividing c")
    seen = set()
    f = (1,)
    index = 0
    for phi, m in factors:
        if phi[-1] != 1 or not _irreducible_mod_p(phi, p):
            raise ValueError(f"phi {render(phi)} is not monic irreducible mod {p}")
        key = tuple(x % p for x in phi)
        if key in seen:
            raise ValueError(f"phi {render(phi)} repeats mod {p}")
        seen.add(key)
        if gcd(m, k) != 1:
            raise ValueError(f"gcd(m, k) = gcd({m}, {k}) != 1")
        if len(phi) == 2 and m < 2:
            raise ValueError("a linear phi needs m >= 2")
        f = poly_mul(f, poly_pow(phi, m))
        index += (len(phi) - 1) * (m - 1) * (k - 1) // 2
    f = (f[0] + c * p**k,) + f[1:]
    return f, index


def _symmetric(b, p):
    return -p < 2 * b <= p


def phi_pool(p, degree):
    """Small monic phi with symmetric coefficients, irreducible mod p, in a
    fixed order.  The program lifts the factors of f mod p to symmetric
    coefficients, so these phi are exactly the lifts it develops f in."""
    if degree == 1:
        pool = []
        for b in (1, -1, 0, 2, -2, 3, -3):
            if _symmetric(b, p) and all((b - q[0]) % p for q in pool):
                pool.append((b, 1))
        return pool
    quads = [(d, s, 1) for s in (0, 1, -1) for d in (1, -1, 2, -2, 3, -3, 5, -5)]
    return [q for q in quads
            if _symmetric(q[0], p) and _symmetric(q[1], p) and _irreducible_mod_p(q, p)]


def _mirror(phi):
    """(-1)^deg phi(-x): the monic phi of the mirrored roots."""
    n = len(phi) - 1
    return tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(phi))


def family_member(rng, p, k, shape):
    """One seeded member of a rung.  A shape entry (1 or 2, m) takes the next
    phi of that degree from phi_pool; an entry (phi, m) fixes phi.  The seed
    picks the sign of c and whether drawn phi are mirrored by x -> -x (when
    their coefficients stay symmetric), so members of one rung differ while
    their cost stays about the same."""
    pools = {d: phi_pool(p, d) for d in (1, 2)}
    factors = [(pools[d].pop(0) if isinstance(d, int) else d, m) for d, m in shape]
    drawn = [i for i, (d, _) in enumerate(shape) if isinstance(d, int)]
    mirrored = {i: _mirror(factors[i][0]) for i in drawn}
    if rng.random() < 0.5 and all(_symmetric(c, p) for phi in mirrored.values() for c in phi):
        for i in drawn:
            factors[i] = (mirrored[i], factors[i][1])
    return family(factors, k, rng.choice((1, -1)), p)


# Rungs (p, k, shape); the degree is the sum of deg(phi) * m.  Every shape
# keeps gcd(m, k) = 1 and m >= 2 for linear phi.  The last four fix linear
# phi with larger coefficients at p = 101 (degree 11 to 17, 0.2 s to 1.1 s on
# the machine of README.md): at degree 11 and 13 the large f(0) makes the
# integer-root guard take most of the time, at 15 and 17 triangularize's
# integer rows grow and it takes most of it.
LADDER_MEMBERS = 2  # seeded members of each rung whose phi are drawn
LADDER = (
    # one quadratic phi: degree 4 and 6
    *[(p, 1, ((2, 2),)) for p in (2, 3, 101, 10007, 1000003)],
    *[(p, 2, ((2, 3),)) for p in (2, 3, 101, 10007, 1000003)],
    # linear and quadratic phi together: degree 5 to 17
    *[(p, 1, ((1, 3), (2, 1))) for p in (2, 3, 101, 10007, 1000003)],
    *[(p, 2, ((1, 3), (2, 3))) for p in (3, 101, 10007, 1000003)],
    (2, 1, ((1, 4), (1, 2), (2, 2))),
    (3, 1, ((1, 4), (1, 2), (2, 2))),
    (101, 1, ((1, 4), (2, 4))),
    (101, 2, ((1, 3), (2, 5))),
    (101, 2, ((1, 3), (2, 7))),
    (10007, 2, ((1, 3), (2, 5))),
    (101, 2, (((-20, 1), 5), ((20, 1), 3), ((-3, 1), 3))),
    (101, 2, (((-12, 1), 5), ((12, 1), 5), ((-3, 1), 3))),
    (101, 2, (((-7, 1), 7), ((7, 1), 5), ((-3, 1), 3))),
    (101, 2, (((-5, 1), 7), ((5, 1), 7), ((-3, 1), 3))),
)

# Family shapes of verify-mixed: degree 5 to 8 at p in {2, 3}.  verify
# takes 30 ms to 0.15 s on the first three; the last three fix phi, because
# their saturation cost depends on which phi they get (0.4 s, 0.6 s and 1.1 s
# on the machine of README.md).
VERIFY_FAMILY = (
    (2, 1, ((2, 2), (1, 2))),
    (2, 1, ((1, 3), (1, 2))),
    (3, 1, ((2, 1), (1, 3))),
    (2, 2, (((0, 1), 3), ((1, 1), 5))),
    (3, 1, (((1, 0, 1), 3),)),
    (3, 2, (((1, 1), 3), ((-1, 1), 3))),
)


# -- workloads ------------------------------------------------------------------


def _read_rows(name):
    rows = []
    for line in (DATA / name).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(t) for t in line.split()))
    return rows


def _basis(f, p):
    return ["basis", "-f", render(f), "-p", str(p), "--json"]


def _verify(f, p):
    return ["verify", "-f", render(f), "-p", str(p)]


def quartic_corpus(seed):
    rows = acceptance_corpus()
    return [(_basis(quartic(a, b, c), p), ("oracle", quartic(a, b, c), p))
            for a, b, c, p in rows]


def quartic_irregular(seed):
    rows = _read_rows("quartic_irregular.txt") + list(KNOWN_FAILING)
    return [(_basis(quartic(a, b, c), p), ("oracle", quartic(a, b, c), p))
            for a, b, c, p in rows]


def generic_ladder(seed):
    rng = random.Random(f"generic-ladder:{seed}")
    ops = []
    for p, k, shape in LADDER:
        seeded = any(isinstance(d, int) for d, _ in shape)
        for _ in range(LADDER_MEMBERS if seeded else 1):
            f, index = family_member(rng, p, k, shape)
            ops.append((_basis(f, p), ("ore", f, p, index)))
    return ops


def verify_mixed(seed):
    rng = random.Random(f"verify-mixed:{seed}")
    ops = []
    for p in CORPUS_PRIMES:  # sixteen quartics at each prime
        count = 0
        while count < 16:
            a, b, c = (rng.randint(-1000, 1000) for _ in range(3))
            # a^2 = 4c leaves out the known E1 fault (see KNOWN_FAILING)
            if quartic_disc(a, b, c) % p or a * a == 4 * c or not quartic_irreducible(a, b, c):
                continue
            ops.append((_verify(quartic(a, b, c), p), ("verdict", None)))
            count += 1
    for row in _read_rows("verify_regular.txt"):
        p, f = row[0], row[1:]
        ops.append((_verify(f, p), ("verdict", None)))
    for p, k, shape in VERIFY_FAMILY:
        f, index = family_member(rng, p, k, shape)
        ops.append((_verify(f, p), ("verdict", index)))
    return ops


WORKLOADS = {
    "quartic-corpus": quartic_corpus,
    "quartic-irregular": quartic_irregular,
    "generic-ladder": generic_ladder,
    "verify-mixed": verify_mixed,
}


def round_order(ops, workload, seed):
    """The operations of one round in a seeded order; every round of a run
    sends the same operations in this order."""
    order = list(range(len(ops)))
    random.Random(f"order:{workload}:{seed}").shuffle(order)
    return [ops[i] for i in order]
