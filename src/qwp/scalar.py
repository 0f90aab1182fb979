"""Exact arithmetic in the field Q(q) of rational functions of q.

A scalar is a quotient p(q)/r(q) of univariate polynomials with rational
coefficients.  Polynomials are stored as coefficient tuples, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.
Integer coefficients are kept as plain int (Fraction only when needed),
which keeps the hot rewriting paths on machine arithmetic; int and
Fraction agree on == and hash, so mixed tuples still compare by value.

Canonical form invariants, maintained by every operation:
  * the denominator is nonzero and monic,
  * numerator and denominator share no common polynomial factor,
  * zero is represented uniquely as 0/1.
These invariants determine the pair, so any way of reaching them gives
the same canonical form.

Reduction works over Z.  Numerator and denominator are split into a
rational content and an integer primitive part; their gcd is taken in
Z[q] by the primitive remainder sequence, both parts are divided by it
exactly with int arithmetic, and the denominator is made monic once at
the end.  By Gauss's lemma this gcd agrees up to a constant with the
gcd in Q[q], so the result is the canonical form above.

Negative powers of q (q^-2 and friends) are ordinary
scalars with a power of q in the denominator.  Numerical evaluation
substitutes a rational q0 and stays exact (Fraction in, Fraction out).

>>> q = QScalar.q()
>>> print(q ** -2 - 1)
(1 - q^2)/(q^2)
>>> (q ** -2 - 1) * (q ** 2 / (1 - q ** 2)) == QScalar.one()
True
>>> (1 / (1 - q ** 2)).evaluate(Fraction(1, 2))
Fraction(4, 3)
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleError(ArithmeticError):
    """Evaluation of a scalar at a root of its denominator."""


def _coeff(c):
    # int when possible, Fraction otherwise
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(x, c):
    # exact division of coefficients; never floats
    f = Fraction(x) / Fraction(c)
    return f.numerator if f.denominator == 1 else f


# ---------------------------------------------------------------------------
# polynomial helpers on coefficient tuples (low degree first, trimmed)


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(x * c for x in a)
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else tuple(x * c for x in b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _primitive(a):
    """Split a nonzero polynomial as content * primitive part.

    The content is a Fraction.  The primitive part has int coefficients
    with gcd 1 and a positive leading coefficient.
    """
    d = 1
    try:
        g = gcd(*a)
    except TypeError:  # Fraction coefficients: clear the denominators first
        d = lcm(*[c.denominator for c in a])
        a = [c.numerator * (d // c.denominator) for c in a]
        g = gcd(*a)
    if a[-1] < 0:
        g = -g
    if g != 1:
        a = [c // g for c in a]
    return Fraction(g, d), tuple(a)


def _prem(a, b):
    # a pseudo-remainder over Z: (c*a) mod b for some nonzero int c
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            g = gcd(c, lead)
            m, c = lead // g, c // g
            s = i - db
            if m != 1:
                r[:s] = [x * m for x in r[:s]]
            r[s:i] = [x * m - c * y for x, y in zip(r[s:i], b)]
    return _trim(r[:db])


def _pexquo(a, b):
    # the quotient a/b of int polynomials, for b dividing a in Z[q]
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i]
        if c:
            c //= lead
            s = i - db
            quot[s] = c
            r[s:i] = [x - c * y for x, y in zip(r[s:i], b)]
    return tuple(quot)


def _pgcd(a, b):
    """gcd in Z[q]: primitive, with a positive leading coefficient.

    Euclid on primitive parts (the primitive remainder sequence, Knuth,
    TAOCP vol. 2, 4.6.1): each pseudo-remainder is reduced to its
    primitive part, so every coefficient stays an int.  By Gauss's lemma
    the result is also a gcd in Q[q] of the rational inputs.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a)[1] if a else ()
    a, b = _primitive(a)[1], _primitive(b)[1]
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)[1]
    return (1,)


def _scaled(p, s):
    # p times the Fraction s, integral coefficients as int
    if s.denominator == 1:
        s = s.numerator
        return p if s == 1 else tuple(x * s for x in p)
    out = []
    for x in p:
        f = x * s
        out.append(f.numerator if f.denominator == 1 else f)
    return tuple(out)


def _peval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pconst(c):
    c = _coeff(c)
    return (c,) if c else ()


def _canon(num, den):
    """Reduce a raw coefficient-tuple pair to canonical form.

    Denominators that are constants or powers of q are handled without a
    gcd.  Otherwise num = cn*pn and den = cd*pd with contents cn, cd and
    primitive int parts pn, pd; pn and pd are divided by their gcd in
    Z[q], and cn/cd together with pd's leading coefficient becomes one
    scale, which makes the denominator monic.  The canonical form is
    unique, so this gives the same pair as a gcd taken over Q[q].
    An already reduced pair with a monic denominator is returned as is.
    """
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return (), (1,)
    if len(den) == 1:
        c = den[0]
        if c == 1:
            return num, den
        return tuple(_div(x, c) for x in num), (1,)
    # pure q-power denominator: cancellation is a valuation strip, no gcd
    if den[-1] == 1 and not any(den[:-1]):
        v = 0
        while not num[v]:
            v += 1
        k = len(den) - 1
        j = v if v < k else k
        if j:
            num = num[j:]
            den = den[: k - j] + (1,)
        if len(den) == 1:
            return num, (1,)
        return num, den
    cn, pn = _primitive(num)
    cd, pd = _primitive(den)
    g = _pgcd(pn, pd)
    if len(g) > 1:
        pn, pd = _pexquo(pn, g), _pexquo(pd, g)
    elif den[-1] == 1:
        return num, den
    lead = pd[-1]
    return _scaled(pn, cn / (cd * lead)), _scaled(pd, Fraction(1, lead))


_QPOW_DEN = tuple((0,) * k + (1,) for k in range(65))


def _from_qpow(num, k):
    """Build num/q^k directly (num trimmed); strips the common q power."""
    if not num:
        k = 0
    else:
        v = 0
        while v < k and not num[v]:
            v += 1
        if v:
            num = num[v:]
            k -= v
    den = _QPOW_DEN[k] if k < 65 else (0,) * k + (1,)
    out = object.__new__(QScalar)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


class QScalar:
    """A rational function of q in canonical form.

    Instances are immutable and hashable; equality is structural, which by
    the canonical-form invariants coincides with equality in Q(q).
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, QScalar) or isinstance(den, QScalar):
            raise TypeError("use QScalar arithmetic, not nested construction")
        if isinstance(num, (int, Fraction)):
            num = _pconst(num)
        else:
            num = _trim(tuple(_coeff(c) for c in num))
        if isinstance(den, (int, Fraction)):
            den = _pconst(den)
        else:
            den = _trim(tuple(_coeff(c) for c in den))
        num, den = _canon(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _make(num, den):
        # internal: trusted trimmed Fraction tuples, canonicalize only
        num, den = _canon(num, den)
        out = object.__new__(QScalar)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return QScalar(0)

    @staticmethod
    def one():
        return QScalar(1)

    @staticmethod
    def q(power=1):
        """The monomial q^power; negative powers land in the denominator."""
        if power >= 0:
            return QScalar([0] * power + [1])
        return QScalar(1, [0] * (-power) + [1])

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- ring/field operations ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QScalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ad, bd = self.den, other.den
        ka, kb = len(ad) - 1, len(bd) - 1
        if not any(ad[:ka]) and not any(bd[:kb]):
            # both denominators are powers of q: align, add, strip valuation
            if ka >= kb:
                num, k = _padd(self.num, (0,) * (ka - kb) + other.num), ka
            else:
                num, k = _padd((0,) * (kb - ka) + self.num, other.num), kb
            return _from_qpow(num, k)
        if ad == bd:
            return QScalar._make(_padd(self.num, other.num), ad)
        num = _padd(_pmul(self.num, bd), _pmul(other.num, ad))
        return QScalar._make(num, _pmul(ad, bd))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(QScalar)
        object.__setattr__(out, "num", _pneg(self.num))
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ad, bd = self.den, other.den
        if not any(ad[: len(ad) - 1]) and not any(bd[: len(bd) - 1]):
            # q-power denominators multiply by adding exponents
            return _from_qpow(_pmul(self.num, other.num), len(ad) + len(bd) - 2)
        return QScalar._make(_pmul(self.num, other.num), _pmul(ad, bd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        return QScalar._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return QScalar.one()
        base = self
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("division by zero in Q(q)")
            base = QScalar(self.den, self.num)
            k = -k
        acc = QScalar.one()
        while True:
            if k & 1:
                acc = acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, q0):
        """Exact substitution q := q0 (a Fraction); raises PoleError at poles."""
        q0 = Fraction(q0)
        d = _peval(self.den, q0)
        if d == 0:
            raise PoleError(f"pole at q0 = {q0}")
        return _peval(self.num, q0) / d

    # -- printing -----------------------------------------------------------

    def __repr__(self):
        return f"QScalar({str(self)!r})"

    def __str__(self):
        if not self.num:
            return "0"
        num = _poly_str(self.num)
        if self.den == (_ONE,):
            return num
        den = _poly_str(self.den)
        if _nterms(self.num) > 1 or num.startswith("-"):
            num = f"({num})"
        return f"{num}/({den})"


def _nterms(coeffs):
    return sum(1 for c in coeffs if c)


def _digits(n):
    """str(n) for an int, also past Python's int-to-str digit limit.

    Past the limit the conversion runs through decimal, whose large
    multiplications are subquadratic (CPython 3.12's _pylong does the
    same): n = hi * 2^h + lo with h half the bit length, hi and lo
    converted recursively, and Decimal(2)^h computed once per h.
    """
    try:
        return str(n)
    except ValueError:
        pass
    two = Decimal(2)
    powers = {}

    def convert(m, bits):
        if bits <= 1024:
            return Decimal(m)
        h = bits >> 1
        hi = m >> h
        if h not in powers:
            powers[h] = two**h
        return convert(hi, bits - h) * powers[h] + convert(m - (hi << h), h)

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
    with localcontext(exact):
        out = str(convert(abs(n), n.bit_length()))
    return "-" + out if n < 0 else out


def _coeff_str(c):
    """str(c) for an int or Fraction coefficient, however many digits it has."""
    try:
        return str(c)
    except ValueError:
        num = _digits(c.numerator)
        return num if c.denominator == 1 else f"{num}/{_digits(c.denominator)}"


def _poly_str(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            body = _coeff_str(c)
        else:
            mon = "q" if k == 1 else f"q^{k}"
            if c == 1:
                body = mon
            elif c == -1:
                body = f"-{mon}"
            else:
                body = f"{_coeff_str(c)}*{mon}"
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
