"""Finite fields F_p[t]/(m(t)) and univariate polynomials over them.

Residual polynomials of Newton polygon sides live over F_phi = F_p[x]/(p, phi),
so we need field arithmetic, gcds, separability tests and full factorization
(squarefree split + distinct-degree + Cantor-Zassenhaus equal-degree) over
these small fields.  Equal-degree splitting is randomized; the generator is
seeded so every run is reproducible (see DEFAULT_SEED).

All arithmetic runs on one kernel over plain lists (FpArith, FqArith).  A
coefficient of F_p is an int in [0, p); a coefficient of F_q = F_p[t]/(m)
with deg m >= 2 is a tuple of ints, reduced mod m, with no trailing zero.
A polynomial over either is a list of coefficients, lowest degree first,
with no trailing zero coefficient; [] is the zero polynomial.  FqField,
FqElem and FqPoly are thin boundary types whose methods call the kernel.
"""

import random

from .arith import check_prime
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

    def factor(self, r, seed=DEFAULT_SEED):
        """(unit, [(monic irreducible, multiplicity)]) for a nonzero r, the
        factors sorted by degree and then coefficients."""
        if not r:
            raise ValueError("cannot factor the zero polynomial")
        return r[-1], self._squarefree(r, random.Random(seed))

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

    def from_rep(self, rep):
        return rep[0] if rep else 0

    def to_rep(self, c):
        return (c,) if c else ()

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

    def from_rep(self, rep):
        return rep

    def to_rep(self, c):
        return c

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


# -- boundary types --------------------------------------------------------------


class FqField:
    """F_p[x]/(modulus); modulus is a monic polynomial irreducible mod p.
    When deg(modulus) = 1 this is just F_p with scalar representatives."""

    def __init__(self, p, modulus):
        check_prime(p)
        if isinstance(modulus, IntPoly):
            modulus = modulus.coeffs
        self.p = p
        self.modulus = tuple(_trim([c % p for c in modulus]))
        if len(self.modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.degree = len(self.modulus) - 1
        self.order = p**self.degree
        self._fp = FpArith(p)
        self.arith = self._fp if self.degree == 1 else FqArith(p, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.degree}"

    def elem(self, rep):
        """Coerce an int, coefficient sequence, or IntPoly into the field."""
        if isinstance(rep, FqElem):
            if rep.field != self:
                raise ValueError("element of a different field")
            return rep
        if isinstance(rep, int):
            rep = (rep,)
        elif isinstance(rep, IntPoly):
            rep = rep.coeffs
        return FqElem(self, tuple(self._fp.rem([c % self.p for c in rep], self.modulus)))

    def zero(self):
        return FqElem(self, ())

    def one(self):
        return FqElem(self, (1,))

    def elements(self):
        """All field elements (small fields only; used by tests)."""
        from itertools import product

        for rep in product(range(self.p), repeat=self.degree):
            yield FqElem(self, tuple(_trim(list(rep))))


class FqElem:
    """An element of an FqField; rep is its trimmed tuple of F_p
    coefficients in t."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coeff(self):
        return self.field.arith.from_rep(self.rep)

    def _new(self, c):
        return FqElem(self.field, self.field.arith.to_rep(c))

    def is_zero(self):
        return not self.rep

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.rep))

    def __add__(self, other):
        return self._new(self.field.arith.cadd(self._coeff(), self.field.elem(other)._coeff()))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.field.arith.csub(self.field.arith.zero, self._coeff()))

    def __sub__(self, other):
        return self._new(self.field.arith.csub(self._coeff(), self.field.elem(other)._coeff()))

    def __rsub__(self, other):
        return self.field.elem(other) - self

    def __mul__(self, other):
        return self._new(self.field.arith.cmul(self._coeff(), self.field.elem(other)._coeff()))

    __rmul__ = __mul__

    def inverse(self):
        return self._new(self.field.arith.cinv(self._coeff()))

    def __truediv__(self, other):
        return self * self.field.elem(other).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return self._new(self.field.arith.cpow(self._coeff(), n))

    def frobenius(self):
        return self ** self.field.p

    def pth_root(self):
        """Inverse of Frobenius: c^(q/p); exact in a perfect field."""
        return self ** (self.field.order // self.field.p)

    def scalar(self):
        """Value as an int when the field is F_p."""
        if self.field.degree != 1:
            raise ValueError("not a prime-field element")
        return self.rep[0] if self.rep else 0

    def __repr__(self):
        if not self.rep:
            return "0"
        if len(self.rep) == 1:
            return str(self.rep[0])
        return "(" + IntPoly(self.rep).render("t") + ")"


class FqPoly:
    """Univariate polynomial over an FqField, used for residual polynomials.
    The coefficients are held as a kernel list (see FpArith, FqArith)."""

    __slots__ = ("field", "_c")

    def __init__(self, field, coeffs=()):
        self.field = field
        from_rep = field.arith.from_rep
        self._c = _trim([from_rep(field.elem(c).rep) for c in coeffs])

    @classmethod
    def _wrap(cls, field, c):
        poly = cls.__new__(cls)
        poly.field = field
        poly._c = c
        return poly

    def _new(self, c):
        return FqPoly._wrap(self.field, c)

    @property
    def coeffs(self):
        to_rep = self.field.arith.to_rep
        return tuple(FqElem(self.field, to_rep(c)) for c in self._c)

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def lc(self):
        return self[len(self._c) - 1]

    def __getitem__(self, i):
        c = self._c[i] if 0 <= i < len(self._c) else self.field.arith.zero
        return FqElem(self.field, self.field.arith.to_rep(c))

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.field == other.field
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.field, tuple(self._c)))

    def __add__(self, other):
        return self._new(self.field.arith.add(self._c, other._c))

    def __sub__(self, other):
        return self._new(self.field.arith.sub(self._c, other._c))

    def __mul__(self, other):
        arith = self.field.arith
        if isinstance(other, FqElem):
            c = self.field.elem(other)._coeff()
            return self._new(arith.scale(self._c, c) if c else [])
        return self._new(arith.mul(self._c, other._c))

    def __divmod__(self, other):
        q, r = self.field.arith.divmod(self._c, other._c)
        return self._new(q), self._new(r)

    def __mod__(self, other):
        return self._new(self.field.arith.rem(self._c, other._c))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        return self._new(self.field.arith.monic(self._c))

    def derivative(self):
        return self._new(self.field.arith.deriv(self._c))

    def gcd(self, other):
        return self._new(self.field.arith.gcd(self._c, other._c))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c.is_zero():
                continue
            ys = "" if i == 0 else ("y" if i == 1 else f"y^{i}")
            cs = repr(c)
            if i > 0 and cs == "1":
                cs = ""
            parts.append((cs + ("*" if cs and ys else "") + ys) or "1")
        return " + ".join(parts)


def is_separable(r):
    """True iff gcd(r, r') has degree 0 over the coefficient field."""
    if r.is_zero():
        raise ValueError("separability of the zero polynomial is undefined")
    arith = r.field.arith
    return len(arith.gcd(r._c, arith.deriv(r._c))) == 1


def factor_fqpoly(r, seed=DEFAULT_SEED):
    """Complete factorization of a nonzero polynomial over F_q.

    Returns (unit, [(monic irreducible, multiplicity)]), deterministically
    ordered; the randomized splitting uses its own seeded generator."""
    if r.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = r.field
    unit, factors = field.arith.factor(r._c, seed)
    return (FqElem(field, field.arith.to_rep(unit)),
            [(FqPoly._wrap(field, g), m) for g, m in factors])


def multiple_factors(r, seed=DEFAULT_SEED):
    """Irreducible factors of r with multiplicity > 1."""
    _, factors = factor_fqpoly(r, seed)
    return [(g, m) for g, m in factors if m > 1]
