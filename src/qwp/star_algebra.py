"""Presentations of the quantum sphere and Σ *-algebras as rewriting systems.

Generators are z_0..z_n, their adjoints z_0*..z_n*, and (Σ presentation
only) a central unitary w with z_n* = w z_n.  The defining relations are

    z_i z_j  = q z_j z_i            (i < j)
    z_i z_j* = q z_j* z_i           (i != j)
    z_i z_i* = z_i* z_i + (q^-2 - 1) sum_{j>i} z_j z_j*
    sum_j z_j z_j* = 1

oriented into a terminating rewrite system whose normal forms are the
monomials z^a z*^b with the z-block in ascending index order, the z*-block
in descending index order, and min(a_n, b_n) = 0.  In the Σ presentation
z_n* is eliminated via z_n* = w z_n, the central w exponent s ranges over
Z, and z_n^2 rewrites to w^-1 (1 - sum_{j<n} z_j z_j*), so a_n ∈ {0, 1}.

The last two relations together give, for i < n, the lower-index rule

    z_i* z_i -> q^-2 z_i z_i* - (q^-2 - 1) + (q^-2 - 1) sum_{j<i} z_j z_j*

(and z_n* z_n -> z_n z_n*), so no rule branches into higher indices.  Every
rule lowers, lexicographically, the tuple (word length, number of z_n and
z_n* letters, number of z*-before-z pairs, number of out-of-order pairs of
z letters or of z* letters), so rewriting terminates.  The irreducible
words, a basis of the algebra, depend only on the left-hand sides, so a
right-hand side that holds in the algebra changes no normal form
(Bergman's diamond lemma).

Each rule is stated once, in the redex table _rules keyed by the reducible
pairs of adjacent letters.  Its single-branch rules are the swaps
g1 g2 -> q^-1 g2 g1 and z_n* z_n -> z_n z_n*, which the engine follows
inline; only z_i* z_i (i < n), z_n z_n* and Σ's z_n z_n branch.  Every
left-hand side has length 2, so the system is confluent exactly when each
overlap g1 g2 g3 resolves; unresolved_overlaps checks them all.

The engine runs on a compiled form of the table (_compiled): letters are
byte codes, z_i -> i and z_i* -> n+1+i, a word is a bytes object, and the
rules sit in a flat list indexed by code(g1) * 2(n+1) + code(g2).  Every
rule factor lies in Z[t], t = q^-1, so below the input terms each
coefficient p is held as the one int p(2^B), B a multiple of 8
(Kronecker substitution).  A call first builds its whole rewriting DAG,
with a bound on every node's coefficients, then evaluates it once at the
B its largest bound asks for; a coefficient is decoded, and becomes a
Q(q) scalar, only when a normal form is multiplied into the coefficient of
an input term.

Elements are finite Q(q)-linear combinations of normal-form monomials;
all arithmetic routes through the rewriting engine, which supports both a
deterministic leftmost strategy and a seeded random-position strategy (the
two are compared in the confluence tests).
"""

from __future__ import annotations

import functools
import random
import struct
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterable, NamedTuple

from qwp.scalar import QScalar, _from_qpow

Q = QScalar.q()
QINV2_M1 = QScalar.q(-2) - 1  # the (q^-2 - 1) coefficient of the zz* relation
ONE = QScalar.one()

# Budget of a presentation's n.  The redex table and its compiled form
# grow as n^2: `normalize z0 --n 300` takes 1.1 s and 123 MB, and n = 600
# 5.3 s and 438 MB.  At n = 100, `normalize "z0* z0 z99* z99"` takes
# 0.15 s and 33 MB (2 cores, Python 3.11).  The recorded inputs use
# n <= 3.  The engine's letter codes, up to 2n + 1, must fit in a byte.
MAX_PRESENTATION_N = 100


class InvalidGeneratorError(ValueError):
    """A generator outside the presentation's alphabet."""


class ParameterError(ValueError):
    """A named-element parameter violating its defining constraint."""


class Generator(NamedTuple):
    kind: str  # "z", "z*", "w", "w*"
    index: int  # -1 for w/w*

    def star(self):
        return Generator(_STAR_OF[self.kind], self.index)

    def __str__(self):
        if self.kind in ("w", "w*"):
            return self.kind
        return f"z{self.index}" + ("*" if self.kind == "z*" else "")


_STAR_OF = {"z": "z*", "z*": "z", "w": "w*", "w*": "w"}


def z(i):
    return Generator("z", i)


def z_star(i):
    return Generator("z*", i)


W = Generator("w", -1)
W_STAR = Generator("w*", -1)


class Monomial(NamedTuple):
    a: tuple  # z exponents, length n+1
    b: tuple  # z* exponents, length n+1
    s: int  # w exponent (0 in sphere presentation)

    def word(self):
        gens = []
        for i, e in enumerate(self.a):
            gens.extend([z(i)] * e)
        for i in range(len(self.b) - 1, -1, -1):
            gens.extend([z_star(i)] * self.b[i])
        if self.s > 0:
            gens.extend([W] * self.s)
        elif self.s < 0:
            gens.extend([W_STAR] * (-self.s))
        return tuple(gens)

    def __str__(self):
        parts = [f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(self.a) if e]
        parts += [
            f"z{i}*^{e}" if e > 1 else f"z{i}*"
            for i in range(len(self.b) - 1, -1, -1)
            if (e := self.b[i])
        ]
        if self.s:
            parts.append("w" if self.s == 1 else f"w^{self.s}")
        return " ".join(parts) if parts else "1"


@dataclass(frozen=True)
class AlgebraPresentation:
    """The sphere(n) or sigma(n) presentation; n >= 1."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("sphere", "sigma"):
            raise ValueError(f"unknown presentation kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("presentation needs n >= 1")
        if self.n > MAX_PRESENTATION_N:
            raise ValueError(
                f"n = {self.n} exceeds the budget MAX_PRESENTATION_N = {MAX_PRESENTATION_N}"
            )

    @staticmethod
    def sphere(n):
        return AlgebraPresentation("sphere", n)

    @staticmethod
    def sigma(n):
        return AlgebraPresentation("sigma", n)

    def check_generator(self, g):
        if g.kind in ("w", "w*"):
            if self.kind != "sigma":
                raise InvalidGeneratorError("w generators only exist in sigma presentations")
            return
        if not 0 <= g.index <= self.n:
            raise InvalidGeneratorError(f"generator index {g.index} outside 0..{self.n}")


# ---------------------------------------------------------------------------
# rewriting engine
#
# Inside _rewrite a word is (codes, s): codes a bytes object of z/z* letter
# codes, z_i -> i and z_i* -> n+1+i (never w, never z_n* in sigma), and s
# the collected central w exponent.  A coefficient is a polynomial
# p = sum_j c[j] t^j in Z[t], t = q^-1, held packed as the one int p(2^B)
# (Kronecker substitution): evaluation at 2^B is a ring map, so sums and
# products of packed ints are exact, and p is read back from p(2^B) when
# every |c[j]| < 2^(B-1).


def _ingest(pres, codes, gens):
    """(letter codes, w exponent s) of a word; in sigma z_n* counts as w z_n."""
    word = []
    s = 0
    top = 2 * pres.n + 1 if pres.kind == "sigma" else -1  # the code of sigma's z_n*
    for g in gens:
        c = codes.get(g)
        if c is None or c == top:  # w, w*, sigma's z_n*, or not a letter of pres
            pres.check_generator(g)
            if g.kind == "w":
                s += 1
                continue
            if g.kind == "w*":
                s -= 1
                continue
            s += 1
            c = codes[g] - pres.n - 1  # the code of z_n
        word.append(c)
    return bytes(word), s


@functools.cache
def _rules(pres):
    """The redex table {(g1, g2): [(factor, replacement, ds), ...]}.

    g1 g2 rewrites to the sum of factor * replacement * w^ds; the keys, the
    left-hand sides, alone fix the normal forms.  Every factor lies in
    Z[t], t = q^-1, and is written (k, r) for t^k * sum_j r[j] t^j with
    r[0] != 0.
    """
    n = pres.n
    sigma = pres.kind == "sigma"
    zs = [z(i) for i in range(n + 1)]
    zb = [z_star(i) for i in range(n if sigma else n + 1)]  # no z_n* in sigma
    one, minus_one, q_inv, q_inv2 = (0, (1,)), (0, (-1,)), (1, (1,)), (2, (1,))
    qinv2_m1, one_m_qinv2 = (0, (-1, 0, 1)), (0, (1, 0, -1))  # ±(q^-2 - 1)
    rules = {}
    for i, zi in enumerate(zs):
        for j in range(i):
            rules[zi, zs[j]] = [(q_inv, (zs[j], zi), 0)]
    for i, bi in enumerate(zb):
        for j in range(i + 1, len(zb)):
            rules[bi, zb[j]] = [(q_inv, (zb[j], bi), 0)]
        for j, zj in enumerate(zs):
            if j != i:
                rules[bi, zj] = [(q_inv, (zj, bi), 0)]
        if i < n:  # z_i* z_i -> q^-2 z_i z_i* - (q^-2-1) + (q^-2-1) sum_{j<i} z_j z_j*
            rules[bi, zs[i]] = [(q_inv2, (zs[i], bi), 0), (one_m_qinv2, (), 0)] + [
                (qinv2_m1, (zs[j], zb[j]), 0) for j in range(i)
            ]
    # 1 - sum_{j<n} z_j z_j*, times w^-1 in sigma
    ds = -1 if sigma else 0
    unit = [(one, (), ds)] + [(minus_one, (zs[j], zb[j]), ds) for j in range(n)]
    if sigma:
        rules[zs[n], zs[n]] = unit
    else:
        rules[zs[n], zb[n]] = unit
        rules[zb[n], zs[n]] = [(one, (zs[n], zb[n]), 0)]
    return rules


@functools.cache
def _compiled(pres):
    """_rules(pres) on letter codes: (table, width, codes, is_redex).

    codes maps z_i to i and z_i* to n+1+i, width is 2(n+1), and
    table[code(g1) * width + code(g2)] is the tuple of branches
    (k, r, replacement codes, ds) of the rule for g1 g2, or None;
    is_redex holds, at the same index, 1 for a rule and 0 for None.
    """
    n = pres.n
    width = 2 * (n + 1)
    codes = {z(i): i for i in range(n + 1)}
    codes.update({z_star(i): n + 1 + i for i in range(n + 1)})
    table = [None] * (width * width)
    for (g1, g2), rule in _rules(pres).items():
        branches = tuple((k, r, bytes(codes[g] for g in rep), ds) for (k, r), rep, ds in rule)
        # _chase and the random walk follow single-branch rules as swaps by t^k
        assert len(branches) > 1 or branches[0][1:] == ((1,), bytes((codes[g2], codes[g1])), 0)
        table[codes[g1] * width + codes[g2]] = branches
    return table, width, codes, bytes(map(bool, table))


def _apply_rule(table, width, word, s, t):
    """Expand the redex at position t into [(k, r, new_word, new_s), ...]."""
    head, tail = word[:t], word[t + 2 :]
    rule = table[word[t] * width + word[t + 1]]
    return [(k, r, head + rep + tail, s + ds) for k, r, rep, ds in rule]


def _chase(table, width, word, s):
    """Apply single-branch rules at leftmost positions until stuck.

    The single-branch rules of the table are swaps with factor t^0 or t^1,
    so the combined factor is t^k.  Returns (k, word, s, t) where t is the
    leftmost branching redex, or -1 if the word is normal.
    """
    w = word  # copied on the first swap
    k = 0
    t = 0
    last = len(w) - 1
    while t < last:
        rule = table[w[t] * width + w[t + 1]]
        if rule is None:
            t += 1
            continue
        if len(rule) > 1:
            break
        if w is word:
            w = bytearray(word)
        w[t], w[t + 1] = w[t + 1], w[t]
        k += rule[0][0]
        if t:
            t -= 1
    else:
        t = -1
    return k, word if w is word else bytes(w), s, t


def _word_to_monomial(n, word, s):
    """The monomial of a normal word of letter codes."""
    a = [0] * (n + 1)
    b = [0] * (n + 1)
    for c in word:
        if c <= n:
            a[c] += 1
        else:
            b[c - n - 1] += 1
    return Monomial(tuple(a), tuple(b), s)


def _leftmost(table, width, memo, register):
    """Leftmost redexes; single-branch rules are followed inline by the chase."""

    def intern(word, s):
        k, word, s, t = _chase(table, width, word, s)
        key = (word, s)
        if key not in memo:
            register(key, word, s, _apply_rule(table, width, word, s, t) if t >= 0 else None)
        return k, key

    return intern


def _random_walk(table, width, is_redex, rng, memo, register):
    """A randomly chosen redex at each step.

    A word met twice reuses the redex choices made on first contact: chains
    of single-branch applications, swaps by t^k, are walked inline and
    recorded in a side table.
    """
    walkmemo = {}  # key -> (t exponent, key of the walk's end)

    def intern(word, s):
        trail = []
        while True:
            key = (word, s)
            hit = walkmemo.get(key)
            if hit:
                sfx, final = hit
                break
            sfx, final = 0, key
            if key in memo:
                break
            last = len(word) - 1
            positions = [t for t in range(last) if is_redex[word[t] * width + word[t + 1]]]
            if not positions:
                register(key, word, s, None)
                break
            t = rng.choice(positions)
            rule = table[word[t] * width + word[t + 1]]
            if len(rule) > 1:
                register(key, word, s, _apply_rule(table, width, word, s, t))
                break
            k, _, rep, _ = rule[0]
            trail.append((key, k))
            word = word[:t] + rep + word[t + 2 :]
        for wkey, k in reversed(trail):
            sfx += k
            walkmemo[wkey] = (sfx, final)
        return sfx, final

    return intern


# memoryview formats of the signed ints of 8, 16, 32 and 64 bits
_CASTS = {8 * struct.calcsize(f): f for f in "bhiq"} if sys.byteorder == "little" else {}


def _pack(c, bits):
    """p(2^bits) of the polynomial p = sum_j c[j] t^j."""
    out = 0
    for x in reversed(c):
        out = (out << bits) + x
    return out


@functools.lru_cache(maxsize=64)
def _offset(bits, digits):
    """sum_{j < digits} 2^(bits-1) 2^(bits j): the top bit of each of the digits."""
    return (1 << (bits - 1)) * ((1 << bits * digits) - 1) // ((1 << bits) - 1)


def _decode(p, bits, k=0):
    """The QScalar t^k * c(t), t = q^-1, of a packed p = c(2^bits).

    bits is a multiple of 8 and every coefficient of c is below 2^(bits-1)
    in absolute value.  The t-valuation v of a nonzero c is the count of
    low zero digits of p.  Past it, the offset adds 2^(bits-1) to each
    digit, which makes the digits bits-wide fields with no carry between
    them; flipping each field's top bit back leaves the coefficient as the
    field's two's-complement value.  With m the degree of c the scalar is
    (c[m] + c[m-1] q + ... + c[v] q^(m-v)) / q^(k+m): the numerator has a
    nonzero constant term, so the pair is canonical without a gcd.
    """
    if not p:  # a coefficient that cancelled inside the DAG
        return QScalar.zero()
    half = 1 << (bits - 1)
    if -half < p < half:
        return _from_qpow((p,), k)
    v = ((p & -p).bit_length() - 1) // bits
    p >>= bits * v
    if -half < p < half:
        return _from_qpow((p,), k + v)
    digits = p.bit_length() // bits + 1
    offset = _offset(bits, digits)
    data = ((p + offset) ^ offset).to_bytes(bits // 8 * digits, "little")
    fmt = _CASTS.get(bits)
    if fmt:
        num = tuple(memoryview(data).cast(fmt)[::-1])
    else:
        size = bits // 8
        num = tuple(
            int.from_bytes(data[i - size : i], "little", signed=True)
            for i in range(len(data), 0, -size)
        )
    return _from_qpow(num, k + v + digits - 1)


_factor = functools.cache(_pack)  # r(2^bits) of a rule factor r


def _combine(out, memo, bits):
    """The packed normal form of a branch site.

    out lists the site's edges (k, r, child): the site is the sum of
    t^k * r * child.  The bound _rewrite gives the site, the sum of
    |r|_1 * bound[child], also bounds every partial sum; since it stays
    below 2^(bits-1), each packed sum reads back as its polynomial, and is
    zero exactly when the polynomial is.
    """
    nf = {}
    for k, r, child in out:
        m = _factor(r, bits) << (bits * k)
        for mon, c in memo[child].items():
            nf[mon] = nf.get(mon, 0) + m * c
    return nf


def _rewrite(pres, terms, strategy="leftmost", rng=None):
    """Exhaustively rewrite (coeff, word) pairs to a {Monomial: coeff} map.

    Each word, an iterable of Generators, is encoded once as letter codes,
    and pairs with the same encoded word are merged, so terms that cancel
    are never rewritten.  Below these roots every coefficient lies in
    Z[t], t = q^-1, since every rule factor does, and is held packed as
    p(2^B); a normal form is decoded and becomes a QScalar only at a root,
    where it is multiplied into the root's coefficient.

    The call runs in three passes.  Build: the strategy's intern function
    chooses the redexes; it follows single-branch rule chains inline and
    registers the word it stops at, a branch site or a normal word,
    returning (k, key) with word = t^k * key's word modulo the relations.
    Words are cached for the duration of the call, so branches that
    reconverge on the same word are expanded once instead of once per
    path.  A branch site is finished once all its children are; it then
    gets the bound sum of |r|_1 * bound[child] on its coefficients and
    joins the post-order.  Evaluate: B is the least multiple of 8 above
    the bit length of the largest root bound, and each branch site is
    combined once, in post-order.  Decode: at the roots.
    """
    table, width, codes, is_redex = _compiled(pres)
    n = pres.n
    memo = {}   # key -> {Monomial: packed coefficient}; None until a branch site is evaluated
    bound = {}  # key -> a bound on every |coefficient| of memo[key], once finished
    raw = {}    # key -> branch list: branch site found, not yet expanded
    edges = {}  # key -> [(k, r, child key)]: expanded
    order = []  # the finished branch sites, in post-order
    todo = []

    def register(key, word, s, branches):
        if branches:
            memo[key] = None
            raw[key] = branches
            todo.append(key)
        else:
            memo[key] = {_word_to_monomial(n, word, s): 1}
            bound[key] = 1

    if strategy == "leftmost":
        intern = _leftmost(table, width, memo, register)
    elif strategy == "random":
        intern = _random_walk(table, width, is_redex, rng or random.Random(0), memo, register)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    work = {}
    for coeff, gens in terms:
        key = _ingest(pres, codes, gens)
        acc = work.get(key)
        acc = coeff if acc is None else acc + coeff
        if acc:
            work[key] = acc
        elif key in work:
            del work[key]
    roots = []
    for (word, s), coeff in work.items():
        k, key = intern(word, s)
        roots.append((coeff, k, key))

    while todo:
        key = todo[-1]
        if key in bound:
            todo.pop()
            continue
        if key in raw:
            out = []
            for rk, r, new_word, new_s in raw.pop(key):
                k, child = intern(new_word, new_s)
                out.append((rk + k, r, child))
            edges[key] = out
            continue
        depth = len(todo)
        top = 0
        for _, r, child in edges[key]:
            if child in bound:
                top += sum(map(abs, r)) * bound[child]
            else:
                todo.append(child)
        if len(todo) == depth:
            bound[key] = top
            order.append(key)
            todo.pop()

    # every node lies below a root, and bounds grow towards the roots
    top = max([bound[key] for _, _, key in roots], default=1)
    bits = (top.bit_length() + 8) // 8 * 8
    for key in order:
        memo[key] = _combine(edges[key], memo, bits)

    result = {}
    for coeff, k, key in roots:
        unit = coeff == ONE
        for mon, c in memo[key].items():
            fc = _decode(c, bits, k)
            if not unit:
                fc = coeff * fc
            acc = result.get(mon)
            acc = fc if acc is None else acc + fc
            if acc:
                result[mon] = acc
            elif mon in result:
                del result[mon]
    return result


def unresolved_overlaps(pres):
    """The overlaps g1 g2 g3 of the redex table that do not resolve.

    Every left-hand side has length 2, so the only ambiguities are the
    overlaps: letter triples with g1 g2 and g2 g3 both redexes.  The system
    terminates, so by Bergman's diamond lemma it is confluent exactly when
    each overlap resolves, that is when rewriting g1 g2 first and g2 g3
    first reach the same normal form.  Returns the number of overlaps
    checked and the triples where they differ; an empty list proves
    confluence.
    """
    table, width, codes, _ = _compiled(pres)
    letters = sorted(codes, key=codes.get)

    def spell(word):
        return tuple(letters[c] for c in word)

    def one_step(word, t):  # the redex at t rewritten once, as _rewrite's terms
        branches = _apply_rule(table, width, word, 0, t)
        # a rule's w exponent ds is 0 or -1, and its factor's coefficients are 0 or ±1
        return [(_decode(_pack(r, 8), 8, k), spell(w) + (W_STAR,) * -s) for k, r, w, s in branches]

    checked = 0
    unresolved = []
    for word in map(bytes, product(range(width), repeat=3)):
        if table[word[0] * width + word[1]] and table[word[1] * width + word[2]]:
            checked += 1
            if _rewrite(pres, one_step(word, 0)) != _rewrite(pres, one_step(word, 1)):
                unresolved.append(spell(word))
    return checked, unresolved


class AlgebraElement:
    """A finite Q(q)-linear combination of normal-form monomials."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms=None):
        self.pres = pres
        self.terms = dict(terms) if terms else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(pres):
        return AlgebraElement(pres)

    @staticmethod
    def one(pres):
        n = pres.n
        unit = Monomial((0,) * (n + 1), (0,) * (n + 1), 0)
        return AlgebraElement(pres, {unit: ONE})

    @staticmethod
    def from_scalar(pres, c):
        c = c if isinstance(c, QScalar) else QScalar(c)
        return AlgebraElement.one(pres) * c

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.pres == other.pres and self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon, coeff in self.sorted_terms():
            cs = str(coeff)
            ms = str(mon)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            else:
                if any(op in cs for op in (" + ", " - ", "/")) or cs.startswith("-"):
                    cs = f"({cs})"
                parts.append(f"{cs} {ms}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.pres.kind}({self.pres.n}) element: {self}>"

    # -- ring operations -----------------------------------------------------

    def _check_same(self, other):
        if self.pres != other.pres:
            raise ValueError("elements of different presentations cannot be combined")

    def __add__(self, other):
        if isinstance(other, (int, QScalar)):
            other = AlgebraElement.from_scalar(self.pres, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            acc = out.get(mon)
            acc = c if acc is None else acc + c
            if acc:
                out[mon] = acc
            elif mon in out:
                del out[mon]
        return AlgebraElement(self.pres, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.pres, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, QScalar)):
            other = AlgebraElement.from_scalar(self.pres, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        c = c if isinstance(c, QScalar) else QScalar(c)
        if not c:
            return AlgebraElement(self.pres)
        return AlgebraElement(self.pres, {m: cc * c for m, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        left = [(m.word(), c) for m, c in self.terms.items()]
        right = [(m.word(), c) for m, c in other.terms.items()]
        terms = [(c1 * c2, w1 + w2) for w1, c1 in left for w2, c2 in right]
        return AlgebraElement(self.pres, _rewrite(self.pres, terms))

    def __rmul__(self, other):
        if isinstance(other, (int, QScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("element powers must be nonnegative integers")
        acc = AlgebraElement.one(self.pres)
        for _ in range(k):
            acc = acc * self
        return acc

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "presentation": {"kind": self.pres.kind, "n": self.pres.n},
            "terms": [
                {
                    "monomial": {"a": list(m.a), "b": list(m.b), "s": m.s},
                    "coeff": str(c),
                }
                for m, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data):
        from qwp.parsing import parse_scalar

        pres = AlgebraPresentation(data["presentation"]["kind"], data["presentation"]["n"])
        terms = {}
        for t in data["terms"]:
            m = Monomial(
                tuple(t["monomial"]["a"]), tuple(t["monomial"]["b"]), t["monomial"]["s"]
            )
            terms[m] = parse_scalar(t["coeff"])
        return AlgebraElement(pres, terms)


def normalize(x, pres, strategy="leftmost", rng=None):
    """Rewrite x to its normal-form element.

    x may be a Generator, a word (iterable of Generator), a list of
    (coeff, word) pairs, or an AlgebraElement (idempotence: renormalizing
    an element returns an equal element).
    """
    if isinstance(x, Generator):
        terms = [(ONE, (x,))]
    elif isinstance(x, AlgebraElement):
        if x.pres != pres:
            raise ValueError("element belongs to a different presentation")
        terms = [(coeff, mon.word()) for mon, coeff in x.terms.items()]
    elif isinstance(x, Iterable):
        x = list(x)
        if x and isinstance(x[0], tuple) and len(x[0]) == 2 and not isinstance(x[0], Generator):
            terms = [(c if isinstance(c, QScalar) else QScalar(c), gens) for c, gens in x]
        else:
            terms = [(ONE, x)]
    else:
        raise TypeError(f"cannot normalize object of type {type(x).__name__}")
    return AlgebraElement(pres, _rewrite(pres, terms, strategy=strategy, rng=rng))


def adjoint(x):
    """The *-involution, extended antilinearly (coefficients are real)."""
    pres = x.pres
    work = []
    for mon, coeff in x.terms.items():
        starred = tuple(g.star() for g in reversed(mon.word()))
        work.append((coeff, starred))
    return normalize(work, pres)


def defining_relations(pres):
    """The presentation's relations as (name, lhs_terms, rhs_terms) triples.

    Each side is a list of (QScalar, word) pairs; normalize(lhs - rhs) must
    vanish, and representations must satisfy them up to truncation effects.
    """
    n = pres.n
    rels = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rels.append((f"z{i} z{j} = q z{j} z{i}", [(ONE, (z(i), z(j)))], [(Q, (z(j), z(i)))]))
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                rels.append(
                    (
                        f"z{i} z{j}* = q z{j}* z{i}",
                        [(ONE, (z(i), z_star(j)))],
                        [(Q, (z_star(j), z(i)))],
                    )
                )
    for i in range(n + 1):
        rhs = [(ONE, (z_star(i), z(i)))]
        rhs += [(QINV2_M1, (z(j), z_star(j))) for j in range(i + 1, n + 1)]
        rels.append((f"z{i} z{i}* = z{i}* z{i} + (q^-2-1) sum", [(ONE, (z(i), z_star(i)))], rhs))
    rels.append(
        ("sum_j z_j z_j* = 1", [(ONE, (z(j), z_star(j))) for j in range(n + 1)], [(ONE, ())])
    )
    if pres.kind == "sigma":
        rels.append(("w w* = 1", [(ONE, (W, W_STAR))], [(ONE, ())]))
        rels.append(("w* w = 1", [(ONE, (W_STAR, W))], [(ONE, ())]))
        rels.append(("z_n* = w z_n", [(ONE, (z_star(n),))], [(ONE, (W, z(n)))]))
        for i in range(n + 1):
            rels.append((f"w z{i} = z{i} w", [(ONE, (W, z(i)))], [(ONE, (z(i), W))]))
            rels.append(
                (f"w z{i}* = z{i}* w", [(ONE, (W, z_star(i)))], [(ONE, (z_star(i), W))])
            )
    return rels


# ---------------------------------------------------------------------------
# distinguished elements


def make_named_element(name, params, pres):
    """Construct one of the named elements, normalized.

    name/params:
      "a"        {}                      sum_{i>=1} z_i z_i*
      "b"        {"i": i} or {"i","j"}   z_i z_j*   (i <= j <= n-1 for pairs)
      "c"        {"l": vec, "m": m}      z_0^l0 .. z_{n-1}^l_{n-1} z_n*,  sum l = m
      "c_tilde"  {"l": vec, "m": m}      z_0^l0 .. z_{n-1}^l_{n-1},       sum l = m
      "c_index"  {"i": i, "m": m}        z_i^m z_n*
      "d"        {"p": vec, "m": m}      z_0^p0 .. z_{n-1}^p_{n-1} w,     sum p = 2m
    """
    n = pres.n
    if name == "a":
        word_terms = [(ONE, (z(i), z_star(i))) for i in range(1, n + 1)]
        return normalize(word_terms, pres)
    if name == "b":
        i = params["i"]
        j = params.get("j", i)
        if not (0 <= i <= n and 0 <= j <= n):
            raise ParameterError(f"b indices must lie in 0..{n}")
        return normalize((z(i), z_star(j)), pres)
    if name in ("c", "c_tilde", "d"):
        key = "p" if name == "d" else "l"
        vec = tuple(params[key])
        m = params["m"]
        if name == "d" and pres.kind != "sigma":
            raise ParameterError("d elements live in sigma presentations")
        if len(vec) != n:
            raise ParameterError(f"{name[0]} exponent vector must have length n = {n}")
        if any(e < 0 for e in vec):
            raise ParameterError(f"{name[0]} exponents must be nonnegative")
        total, label = (2 * m, "2m") if name == "d" else (m, "m")
        if sum(vec) != total:
            raise ParameterError(f"sum({key}) = {sum(vec)} must equal {label} = {total}")
        tail = {"c": [z_star(n)], "c_tilde": [], "d": [W]}[name]
        return normalize([z(i) for i, e in enumerate(vec) for _ in range(e)] + tail, pres)
    if name == "c_index":
        i = params["i"]
        m = params["m"]
        if not 0 <= i <= n:
            raise ParameterError(f"c_index i must lie in 0..{n}")
        if m < 1:
            raise ParameterError("c_index needs m >= 1")
        return normalize([z(i)] * m + [z_star(n)], pres)
    raise ParameterError(f"unknown named element {name!r}")
