"""Expression grammar shared by the CLI and the serialized element format.

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/')? unary)*      ('?' = juxtaposition multiplies)
    unary  := '-' unary | power
    power  := atom ('^' ['-'] integer)?
    atom   := integer | 'q' | generator | '(' expr ')'

Generators are z0..zN, w, and their adjoints z0*, w*.  A '*' immediately
following a generator (no whitespace) is the adjoint star; everywhere else
'*' multiplies.  This is the grammar's only whitespace-sensitive rule and
exists so that "z0*z0" reads as z0* · z0 while "q^2 * z1" multiplies.
'/' divides and its divisor must be a scalar, which covers both rational
literals (1/2) and printed Q(q) scalars ("(1 - q^2)/(q^2)").
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from qwp.scalar import QScalar
from qwp.star_algebra import (
    W,
    AlgebraElement,
    Generator,
    InvalidGeneratorError,
    normalize,
)


# Budget of a scalar power b^k: |k| times the q-degree of b (taken as 1
# for a constant b) may not exceed it, so nested powers are bounded too.
# Printed coefficients reach q^200 in the recorded certificates; a power
# far beyond the budget would only build a huge coefficient tuple.
MAX_SCALAR_EXPONENT = 10**5

# Budget of a scalar power b^k in estimated coefficient bits, numerator
# and denominator together (_power_bits).  The exponent budget alone lets
# (1+q)^4000 through, which takes 42 s.  At this budget (1+q)^1023 takes
# 0.2 s and (3+5q)^590 0.1 s; bases with fractional coefficients are the
# slowest seen, up to 2.1 s for ((1+q)/3)^636 (2 cores, Python 3.11).
# The recorded inputs raise no base with more than one term to a power.
# A product x*y or x/y is held to the same budget (_product_bits), so a
# chain of powers costs no more than the single power it multiplies out to.
MAX_SCALAR_POWER_BITS = 2**20

# Budget of an element power b^k: k times the longest word of b (taken as
# 1 when b has no generator) may not exceed it.  Multiplying out z0^k
# takes time quadratic in k (0.3 s at k = 1000, 4.5 s at k = 4000);
# recorded normal forms print no generator power above 10.
MAX_POWER_WORD_LENGTH = 1000


def _poly_size(poly):
    """(nonzero terms, degree, log2(d ||P||_1)) of p = P/d with P integral.

    The last entry bounds the bits of one coefficient of p, numerator and
    denominator together.  The zero polynomial has no terms.
    """
    if not poly:
        return 0, 0, 0.0
    d = math.lcm(*(c.denominator for c in poly))
    norm = sum(abs(c.numerator) * (d // c.denominator) for c in poly)
    return sum(1 for c in poly if c), len(poly) - 1, math.log2(norm * d)


def _power_bits(base, k):
    """Estimated coefficient bits of the scalar base^k, without computing it.

    Writing a polynomial p of t terms as P/d with P integral, p^|k| has at
    most min(|k| deg p + 1, C(|k| + t - 1, t - 1)) terms, each of at most
    |k| log2(d ||P||_1) bits.  Numerator and denominator are summed.
    """
    k = abs(k)
    bits = 0.0
    for poly in (base.num, base.den):
        if poly:
            t, deg, b = _poly_size(poly)
            bits += min(k * deg + 1, math.comb(k + t - 1, t - 1)) * k * b
    return bits


def _product_bits(x, y, divide):
    """Estimated coefficient bits of x*y, or of x/y, counted as _power_bits counts them.

    A product of polynomials has at most min(deg + deg' + 1, t t') terms of
    at most b + b' bits each.  An element stands in by its largest
    coefficient; a divisor's numerator and denominator trade places.
    """
    (xn, xd), (yn, yd) = _sizes(x), _sizes(y)
    if divide:
        yn, yd = yd, yn
    bits = 0.0
    for (t, deg, b), (t2, deg2, b2) in ((xn, yn), (xd, yd)):
        bits += min(deg + deg2 + 1, t * t2) * (b + b2)
    return bits


def _sizes(v):
    """_poly_size of the numerator and denominator of a scalar, or of an
    element's largest coefficient."""
    if isinstance(v, QScalar):
        return _poly_size(v.num), _poly_size(v.den)
    return max(
        map(_sizes, v.terms.values()),
        key=lambda s: s[0][0] * s[0][2] + s[1][0] * s[1][2],
        default=((0, 0, 0.0), (0, 0, 0.0)),
    )


def _small(v):
    """Whether each coefficient of v has at most 8 entries, with numerators
    and denominators below 2^32, so that a product of two such values stays
    far below the coefficient budget."""
    for s in (v,) if isinstance(v, QScalar) else v.terms.values():
        cs = s.num + s.den
        if len(cs) > 8:
            return False
        for c in cs:
            if not (-(2**32) < c.numerator < 2**32 and c.denominator < 2**32):
                return False
    return True


class ParseError(ValueError):
    """Syntax error with position and expected-token information."""

    def __init__(self, message, position, expected=None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class _Token(NamedTuple):
    kind: str  # "int", "q", "gen", "op", "lparen", "rparen", "end"
    value: object
    pos: int
    end: int


def _int_of(digits):
    """int(digits), in halves past Python's str-to-int digit limit."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _int_of(digits[:-k]) * 10**k + _int_of(digits[-k:])


# a run of digits; [0-9], since str.isdigit would also take "²" and "٣"
_DIGITS = re.compile("[0-9]*")

# the one-character tokens; '*' is not one, since it may glue to a generator
_SINGLE = {"w": ("gen", W), "q": ("q", None), "(": ("lparen", None), ")": ("rparen", None)}
_SINGLE.update((op, ("op", op)) for op in "+-/^")


def _tokenize(text):
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = _DIGITS.match(text, i).end()
            tokens.append(_Token("int", _int_of(text[i:j]), i, j))
            i = j
            continue
        if ch == "z":
            j = _DIGITS.match(text, i + 1).end()
            if j == i + 1:
                raise ParseError("generator needs an index", i, "z<digits>")
            tokens.append(_Token("gen", Generator("z", int(text[i + 1 : j])), i, j))
            i = j
            continue
        if ch in _SINGLE:
            tokens.append(_Token(*_SINGLE[ch], i, i + 1))
            i += 1
            continue
        if ch == "*":
            prev = tokens[-1] if tokens else None
            if (
                prev is not None
                and prev.kind == "gen"
                and prev.end == i
                and prev.value.kind in ("z", "w")
            ):
                tokens[-1] = _Token("gen", prev.value.star(), prev.pos, i + 1)
            else:
                tokens.append(_Token("op", "*", i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, size, size))
    return tokens


_ATOM_STARTS = ("int", "q", "gen", "lparen")


class _Parser:
    """Evaluating recursive-descent parser; values are QScalar or AlgebraElement."""

    def __init__(self, text, pres):
        self.text = text
        self.pres = pres
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind}", tok.pos, what)
        return self.advance()

    # -- value algebra -------------------------------------------------------

    def _div(self, x, y, pos):
        if not isinstance(y, QScalar):
            raise ParseError("divisor must be a scalar", pos)
        if y.is_zero():
            raise ParseError("division by zero", pos)
        if isinstance(x, QScalar):
            return x / y
        return x.scale(1 / y)

    def _check_product(self, x, y, divide, pos):
        if not (_small(x) and _small(y)) and _product_bits(x, y, divide) > MAX_SCALAR_POWER_BITS:
            raise ParseError(
                f"product exceeds the coefficient budget of {MAX_SCALAR_POWER_BITS} bits", pos
            )

    # -- grammar -------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input", tok.pos, "operator or end of input")
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.advance().value
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in "*/":
                self.advance()
                rhs = self.unary()
                self._check_product(value, rhs, tok.value == "/", tok.pos)
                if tok.value == "*":
                    value = value * rhs
                else:
                    value = self._div(value, rhs, tok.pos)
            elif tok.kind in _ATOM_STARTS:
                rhs = self.unary()
                self._check_product(value, rhs, False, tok.pos)
                value = value * rhs
            else:
                return value

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "op" and self.peek().value == "-":
                self.advance()
                sign = -1
            exp_tok = self.expect("int", "integer exponent")
            k = sign * exp_tok.value
            if isinstance(base, QScalar):
                degree = max(len(base.num), len(base.den), 2) - 1
                if abs(k) * degree > MAX_SCALAR_EXPONENT:
                    raise ParseError(
                        f"scalar power exceeds the exponent budget {MAX_SCALAR_EXPONENT}",
                        exp_tok.pos,
                    )
                if _power_bits(base, k) > MAX_SCALAR_POWER_BITS:
                    raise ParseError(
                        f"scalar power exceeds the coefficient budget of "
                        f"{MAX_SCALAR_POWER_BITS} bits",
                        exp_tok.pos,
                    )
                if k < 0 and base.is_zero():
                    raise ParseError("division by zero", tok.pos)
                return base ** k
            if k < 0:
                raise ParseError("negative powers only apply to scalars", tok.pos)
            longest = max((sum(m.a) + sum(m.b) + abs(m.s) for m in base.terms), default=0)
            if k * max(longest, 1) > MAX_POWER_WORD_LENGTH:
                raise ParseError(
                    f"element power exceeds the word length budget {MAX_POWER_WORD_LENGTH}",
                    exp_tok.pos,
                )
            return base ** k
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "int":
            return QScalar(tok.value)
        if tok.kind == "q":
            return QScalar.q()
        if tok.kind == "gen":
            if self.pres is None:
                raise ParseError("generators not allowed in scalar context", tok.pos)
            try:
                self.pres.check_generator(tok.value)
            except InvalidGeneratorError as err:
                raise InvalidGeneratorError(f"{err} (at position {tok.pos})") from None
            return normalize((tok.value,), self.pres)
        if tok.kind == "lparen":
            value = self.expr()
            self.expect("rparen", "')'")
            return value
        raise ParseError(f"unexpected {tok.kind}", tok.pos, "number, q, generator or '('")


def parse_expression(text, pres):
    """Parse text to a normalized AlgebraElement of the given presentation."""
    value = _Parser(text, pres).parse()
    if isinstance(value, QScalar):
        return AlgebraElement.from_scalar(pres, value)
    return value


def parse_scalar(text):
    """Parse a pure Q(q) scalar such as "(1 - q^2)/(q^2)" or "3/2*q"."""
    value = _Parser(text, None).parse()
    return value
