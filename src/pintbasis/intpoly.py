"""Dense univariate polynomials over the rational integers.

IntPoly is immutable; coefficients are arbitrary-precision ints indexed by
degree.  Division is exact polynomial division by a monic divisor (all we
ever need), and resultants are computed by the subresultant pseudo-remainder
sequence, so no rounding can occur anywhere.
"""

from .arith import INFINITY, vp
from .errors import ParseError

_SUPERSCRIPT = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("IntPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return IntPoly([c])

    @staticmethod
    def x(power):
        return IntPoly([0] * power + [1])

    @staticmethod
    def monic_quartic(a, b, c):
        """x^4 + a*x^2 + b*x + c."""
        return IntPoly([c, b, a, 0, 1])

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """Exact euclidean division; the divisor must be monic (or a divisor
        whose leading coefficient divides everything it meets)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lc = other.lc()
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return IntPoly(), self
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top % lc != 0:
                raise ValueError("non-exact division (divisor not monic?)")
            q = top // lc
            quot[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return IntPoly(quot), IntPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- evaluation / calculus ---------------------------------------------

    def __call__(self, x):
        """Horner evaluation at an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose(self, inner):
        """self(inner(x)) by Horner over IntPoly."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + IntPoly.const(c)
        return acc

    def shift(self, s):
        """self(x + s)."""
        return self.compose(IntPoly([s, 1]))

    def scale_arg(self, k):
        """self(k * x)."""
        return IntPoly([c * k**i for i, c in enumerate(self.coeffs)])

    def reduce_mod(self, m):
        return IntPoly([c % m for c in self.coeffs])

    def divide_exact(self, k):
        if any(c % k for c in self.coeffs):
            raise ValueError(f"{k} does not divide all coefficients")
        return IntPoly([c // k for c in self.coeffs])

    def vp(self, p):
        """min of vp over coefficients; INFINITY iff the zero polynomial."""
        if self.is_zero():
            return INFINITY
        return min(vp(c, p) for c in self.coeffs if c != 0)

    # -- resultants ----------------------------------------------------------

    def resultant(self, other):
        """Res(self, other) = lc(self)^deg(other) * prod other(alpha_i) over
        the roots alpha_i of self, by the subresultant PRS (exact)."""
        return _subresultant_resultant(self, other)

    def discriminant(self):
        """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
        n = self.degree
        if n < 1:
            raise ValueError("discriminant requires degree >= 1")
        r = self.resultant(self.derivative())
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        num = sign * r
        if num % self.lc() != 0:
            raise ArithmeticError("discriminant division failed")
        return num // self.lc()

    # -- rendering / parsing -------------------------------------------------

    def render(self, var="x", unicode_powers=False):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                xs = var if i == 1 else (
                    var + str(i).translate(_SUPERSCRIPT) if unicode_powers else f"{var}^{i}"
                )
                body = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts)

    def __repr__(self):
        return f"IntPoly({self.render()})"


def parse_poly(text):
    """Parse 'x^4+2x^2-4x+2' style input: signed integer coefficients,
    optional '*', '^' powers, variable x, whitespace-insensitive."""
    s = text
    coeffs = {}
    i = 0
    n = len(s)

    def skip_ws(j):
        while j < n and s[j].isspace():
            j += 1
        return j

    i = skip_ws(i)
    if i == n:
        raise ParseError("empty input", i)
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", i)
        if i >= n:
            raise ParseError("dangling sign", i)
        # coefficient
        coeff = None
        j = i
        while j < n and s[j].isdigit():
            j += 1
        if j > i:
            coeff = int(s[i:j])
            i = skip_ws(j)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
                if i >= n or s[i] != "x":
                    raise ParseError("expected variable after '*'", i)
        # variable part
        power = 0
        if i < n and s[i] == "x":
            power = 1
            i = skip_ws(i + 1)
            if i < n and s[i] == "^":
                i = skip_ws(i + 1)
                j = i
                if j < n and s[j] in "+-":
                    raise ParseError("signed exponents not supported", j)
                while j < n and s[j].isdigit():
                    j += 1
                if j == i:
                    raise ParseError("expected exponent", i)
                power = int(s[i:j])
                i = skip_ws(j)
        elif coeff is None:
            raise ParseError("expected coefficient or variable", i)
        coeffs[power] = coeffs.get(power, 0) + sign * (1 if coeff is None else coeff)
        first = False
        i = skip_ws(i)
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for k, v in coeffs.items():
        out[k] = v
    return IntPoly(out)


def _prem(A, B):
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B, all over Z."""
    d = A.degree - B.degree
    lb = B.lc()
    rem = list((A * lb ** (d + 1)).coeffs)
    for k in range(d, -1, -1):
        top = rem[k + B.degree]
        if top % lb != 0:
            raise ArithmeticError("pseudo-remainder invariant broken")
        q = top // lb
        if q:
            for j, b in enumerate(B.coeffs):
                rem[k + j] -= q * b
    return IntPoly(rem)


def _subresultant_resultant(P, Q):
    """Resultant by the subresultant PRS (Cohen, Alg. 3.3.7)."""
    if P.is_zero() or Q.is_zero():
        return 0
    s = 1
    A, B = P, Q
    if A.degree < B.degree:
        if A.degree % 2 == 1 and B.degree % 2 == 1:
            s = -s
        A, B = B, A
    if B.degree == 0:
        return s * B.lc() ** A.degree
    g, h = 1, 1
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if R.is_zero():
            return 0
        A, B = B, R.divide_exact(g * h**delta)
        g = A.lc()
        if delta == 0:
            # h unchanged: h^(1-0) g^0
            pass
        elif delta == 1:
            h = g
        else:
            # h <- g^delta / h^(delta-1), exact
            num = g**delta
            den = h ** (delta - 1)
            if num % den != 0:
                raise ArithmeticError("subresultant h-update not exact")
            h = num // den
        if B.degree == 0:
            dA = A.degree
            num = B.lc() ** dA
            den = h ** (dA - 1)
            if num % den != 0:
                raise ArithmeticError("subresultant final division not exact")
            return s * (num // den)
