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

from fractions import Fraction

# Public name for arbitrary-precision rationals.  Fraction already
# maintains gcd(numerator, denominator) = 1 with positive denominator.
BigRational = Fraction

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


def _pscale(a, c):
    if not c:
        return ()
    return tuple(x * c for x in a)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lead = b[-1]
    db = len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = _div(a[i], lead)
        if c:
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return _trim(quot), _trim(a)


def _pmonic(a):
    if not a:
        return a
    lead = a[-1]
    if lead == 1:
        return a
    return tuple(_div(c, lead) for c in a)


def _pgcd(a, b):
    # Euclid with monic remainders; the result is monic (or zero).
    a, b = _pmonic(a), _pmonic(b)
    while b:
        a, b = b, _pmonic(_pdivmod(a, b)[1])
    return a


def _peval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pconst(c):
    c = _coeff(c)
    return (c,) if c else ()


def _canon(num, den):
    """Reduce a raw coefficient-tuple pair to canonical form."""
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
    if len(num) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
    lead = den[-1]
    if lead != 1:
        num = tuple(_div(c, lead) for c in num)
        den = tuple(_div(c, lead) for c in den)
    return num, den


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
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

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


def _poly_str(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            body = str(c)
        else:
            mon = "q" if k == 1 else f"q^{k}"
            if c == 1:
                body = mon
            elif c == -1:
                body = f"-{mon}"
            else:
                body = f"{c}*{mon}"
        parts.append(body)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
