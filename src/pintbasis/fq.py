"""Finite fields F_p[t]/(m(t)) and univariate polynomials over them.

Residual polynomials of Newton polygon sides live over F_phi = F_p[x]/(p, phi),
so we need field arithmetic, gcds, separability tests and full factorization
(squarefree split + distinct-degree + Cantor-Zassenhaus equal-degree) over
these small fields.  Equal-degree splitting is randomized, but the
factorization is unique and comes back sorted, so the fixed DEFAULT_SEED of
the generator only keeps the work done the same from run to run.

All arithmetic runs on one kernel over plain lists (FpArith, FqArith).  A
coefficient of F_p is an int in [0, p); a coefficient of F_q = F_p[t]/(m)
with deg m >= 2 is a tuple of ints, reduced mod m, with no trailing zero.
A polynomial over either is a list of coefficients, lowest degree first,
with no trailing zero coefficient; [] is the zero polynomial.  Residual
polynomials are such lists.  FqField is the residue field F_p[x]/(p, phi)
of one lift phi: it holds the kernel for that field, reduces integer
polynomials into coefficients and renders polynomials as text.
"""

import random

from .intpoly import IntPoly

DEFAULT_SEED = 20259


def _trim(t):
    """Drop trailing zero coefficients (0 or ()) from a list, in place."""
    while t and not t[-1]:
        t.pop()
    return t


def _sort_key(item):
    """Deterministic factor order: by degree, then by coefficients."""
    poly = item[0] if isinstance(item, tuple) else item
    return len(poly), poly


class _Arith:
    """The algorithms shared by both coefficient kinds.

    Subclasses supply p, q, k (q = p^k), the constants zero and one, the
    coefficient operations cadd, csub, cmul, cmul_int, cinv and random_coeff,
    and the polynomial operations mul and divmod.  No method mutates its
    arguments."""

    # -- coefficients ------------------------------------------------------

    def cpow(self, a, n):
        result = self.one
        while n:
            if n & 1:
                result = self.cmul(result, a)
            n >>= 1
            if n:
                a = self.cmul(a, a)
        return result

    # -- polynomials -------------------------------------------------------

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, y in enumerate(b):
            out[i] = self.cadd(out[i], y)
        return _trim(out)

    def sub(self, a, b):
        out = list(a) + [self.zero] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] = self.csub(out[i], y)
        return _trim(out)

    def scale(self, a, c):
        """c * a for a nonzero coefficient c."""
        cmul = self.cmul
        return [cmul(x, c) for x in a]

    def deriv(self, a):
        return _trim([self.cmul_int(c, i) for i, c in enumerate(a)][1:])

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def monic(self, a):
        if not a or a[-1] == self.one:
            return a
        return self.scale(a, self.cinv(a[-1]))

    def gcd(self, a, b):
        while b:
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def powmod(self, a, n, g):
        result = [self.one]
        base = self.rem(a, g)
        while n:
            if n & 1:
                result = self.rem(self.mul(result, base), g)
            n >>= 1
            if n:
                base = self.rem(self.mul(base, base), g)
        return result

    def is_irreducible(self, r):
        """Rabin-style test: a nonconstant r is irreducible iff it has no
        irreducible factor of degree d <= deg(r)/2, i.e. gcd(r, y^(q^d) - y)
        is 1 for each such d."""
        n = len(r) - 1
        if n < 1:
            return False
        r = self.monic(r)
        y = [self.zero, self.one]
        h = y
        for _ in range(n // 2):
            h = self.powmod(h, self.q, r)
            if len(self.gcd(r, self.sub(h, y))) > 1:
                return False
        return True

    # -- factorization -----------------------------------------------------

    def factor(self, r):
        """(unit, [(monic irreducible, multiplicity)]) for a nonzero r, the
        factors sorted by degree and then coefficients."""
        if not r:
            raise ValueError("cannot factor the zero polynomial")
        return r[-1], self._squarefree(r, random.Random(DEFAULT_SEED))

    def _squarefree(self, r, rng):
        """[(irreducible monic, multiplicity)]; recursion on gcd with derivative."""
        r = self.monic(r)
        if len(r) < 2:
            return []
        d = self.deriv(r)
        if not d:
            # r = t(y^p) with t built from p-th roots of the coefficients
            p, e = self.p, self.q // self.p
            t = [self.cpow(r[i], e) for i in range(0, len(r), p)]
            return [(g, p * m) for g, m in self._squarefree(t, rng)]
        g = self.gcd(r, d)
        if len(g) == 1:
            return [(h, 1) for h in self._split(r, rng)]
        out = []
        rest = r
        for h in self._split(self.divmod(r, g)[0], rng):
            m = 0
            while True:
                q, rem = self.divmod(rest, h)
                if rem:
                    break
                m += 1
                rest = q
            out.append((h, m))
        # what is left has every multiplicity divisible by p
        if len(rest) > 1:
            out.extend(self._squarefree(rest, rng))
        return sorted(out, key=_sort_key)

    def _split(self, r, rng):
        """Factor a squarefree monic polynomial: DDF then CZ splitting."""
        out = []
        y = [self.zero, self.one]
        h = y
        rest = r
        d = 0
        while len(rest) > 1:
            d += 1
            if 2 * d > len(rest) - 1:
                out.append(rest)
                break
            h = self.powmod(h, self.q, rest)
            g = self.gcd(rest, self.sub(h, y))
            if len(g) > 1:
                out.extend(self._equal_degree_split(g, d, rng))
                rest = self.divmod(rest, g)[0]
                h = self.rem(h, rest)
        return sorted(out, key=_sort_key)

    def _equal_degree_split(self, g, d, rng):
        """Cantor-Zassenhaus: g is a monic squarefree product of irreducibles
        of degree d."""
        if len(g) - 1 == d:
            return [g]
        q = self.q
        while True:
            rand = _trim([self.random_coeff(rng) for _ in range(len(g) - 1)])
            if len(rand) < 2:
                continue
            if q % 2 == 1:
                s = self.powmod(rand, (q**d - 1) // 2, g)
                cand = self.gcd(g, self.sub(s, [self.one]))
            else:
                # trace map sum_{i<d*k} rand^(2^i)
                tr = self.rem(rand, g)
                acc = tr
                for _ in range(d * self.k - 1):
                    tr = self.rem(self.mul(tr, tr), g)
                    acc = self.add(acc, tr)
                cand = self.gcd(g, acc)
            if 1 < len(cand) < len(g):
                return sorted(
                    self._equal_degree_split(cand, d, rng)
                    + self._equal_degree_split(self.divmod(g, cand)[0], d, rng),
                    key=_sort_key,
                )


class FpArith(_Arith):
    """F_p on plain ints: coefficients are ints in [0, p)."""

    zero = 0
    one = 1
    k = 1

    def __init__(self, p):
        self.p = self.q = p

    def reduce(self, coeffs):
        """The polynomial with the given integer coefficients, mod p."""
        p = self.p
        return _trim([c % p for c in coeffs])

    def cadd(self, a, b):
        return (a + b) % self.p

    def csub(self, a, b):
        return (a - b) % self.p

    def cmul(self, a, b):
        return a * b % self.p

    def cmul_int(self, a, n):
        return a * n % self.p

    def cinv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, -1, self.p)

    def cpow(self, a, n):
        return pow(a, n, self.p)

    def random_coeff(self, rng):
        return rng.randrange(self.p)

    def scale(self, a, c):
        p = self.p
        return [x * c % p for x in a]

    def mul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = self.p
        return _trim([c % p for c in out])

    def divmod(self, a, b):
        # the remainder is reduced mod p only once, at the end
        p = self.p
        db = len(b) - 1
        if db < 0:
            raise ZeroDivisionError
        if len(a) <= db:
            return [], _trim(list(a))
        inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
        low = b[:db]
        rem = list(a)
        quot = [0] * (len(a) - db)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db] * inv % p
            if c:
                quot[i] = c
                for j, y in enumerate(low, i):
                    rem[j] -= c * y
        return _trim(quot), _trim([c % p for c in rem[:db]])


class FqArith(_Arith):
    """F_q = F_p[t]/(m) for a monic irreducible m of degree k >= 2:
    coefficients are tuples of ints reduced mod m."""

    zero = ()
    one = (1,)

    def __init__(self, p, modulus):
        self.p = p
        self.m = tuple(modulus)
        self.k = len(self.m) - 1
        self.q = p**self.k
        self.fp = FpArith(p)

    def cadd(self, a, b):
        return tuple(self.fp.add(a, b))

    def csub(self, a, b):
        return tuple(self.fp.sub(a, b))

    def cmul(self, a, b):
        fp = self.fp
        return tuple(fp.rem(fp.mul(a, b), self.m))

    def cmul_int(self, a, n):
        return tuple(self.fp.reduce([x * n for x in a]))

    def cinv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        # extended euclid in F_p[t]
        fp = self.fp
        r0, r1 = list(a), list(self.m)
        s0, s1 = [1], []
        while r1:
            q, r = fp.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, fp.sub(s0, fp.mul(q, s1))
        return tuple(fp.scale(s0, pow(r0[0], -1, self.p)))

    def random_coeff(self, rng):
        return tuple(_trim([rng.randrange(self.p) for _ in range(self.k)]))

    def mul(self, a, b):
        # Kronecker substitution: pack with stride 2k-1 so that products of
        # coefficients cannot overlap, multiply once over F_p, then reduce
        # each chunk mod m
        if not a or not b:
            return []
        s = 2 * self.k - 1
        fp = self.fp

        def pack(poly):
            flat = [0] * (len(poly) * s)
            for i, c in enumerate(poly):
                flat[i * s:i * s + len(c)] = c
            return flat

        flat = fp.mul(pack(a), pack(b))
        m = self.m
        return _trim([tuple(fp.rem(flat[i:i + s], m))
                      for i in range(0, (len(a) + len(b) - 1) * s, s)])

    def divmod(self, a, b):
        db = len(b) - 1
        if db < 0:
            raise ZeroDivisionError
        if len(a) <= db:
            return [], _trim(list(a))
        inv = None if b[-1] == (1,) else self.cinv(b[-1])
        cmul, csub = self.cmul, self.csub
        low = b[:db]
        rem = list(a)
        quot = [()] * (len(a) - db)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db]
            if c:
                if inv is not None:
                    c = cmul(c, inv)
                quot[i] = c
                for j, y in enumerate(low, i):
                    if y:
                        rem[j] = csub(rem[j], cmul(c, y))
        return _trim(quot), _trim(rem[:db])


# -- the residue field ------------------------------------------------------------


class FqField:
    """F_p[t]/(modulus) for a prime p the caller has checked and a monic
    modulus irreducible mod p, given as an IntPoly or as integer
    coefficients: the residue field F_p[x]/(p, phi) of a lift phi.  Its
    elements and polynomials are values of the kernel arith, FpArith when
    deg(modulus) = 1 and FqArith otherwise."""

    def __init__(self, p, modulus):
        if isinstance(modulus, IntPoly):
            modulus = modulus.coeffs
        self.p = p
        self.modulus = tuple(_trim([c % p for c in modulus]))
        if len(self.modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self._fp = FpArith(p)
        self.arith = self._fp if len(self.modulus) == 2 else FqArith(p, self.modulus)

    def elem(self, a):
        """The coefficient of the field that the IntPoly a reduces to."""
        c = self._fp.rem(self._fp.reduce(a.coeffs), self.modulus)
        if self.arith is self._fp:
            return c[0] if c else 0
        return tuple(c)

    def render(self, r):
        """A polynomial over the field as text, highest degree first, with
        the coefficients of F_{p^k} written in t: y^2 + y + 2, y + (2*t)."""
        terms = []
        for i in range(len(r) - 1, -1, -1):
            c = r[i]
            if not c:
                continue
            if isinstance(c, tuple):
                c = c[0] if len(c) == 1 else f"({IntPoly(c).render('t')})"
            text = str(c)
            if i:
                y = "y" if i == 1 else f"y^{i}"
                text = y if text == "1" else f"{text}*{y}"
            terms.append(text)
        return " + ".join(terms) or "0"


def factor_fqpoly(field, r):
    """(unit, [(monic irreducible, multiplicity)]) for a nonzero polynomial r
    over field, the factors sorted by degree and then coefficients.

    Every residual polynomial is factored through this one function, called
    only by newton.SideData.factors, so a count of its calls is a count of
    residual factorizations; the benchmark tracer (perfbench/tracer.py)
    wraps it by this name."""
    return field.arith.factor(r)
