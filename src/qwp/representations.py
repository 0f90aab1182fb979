"""Truncated matrix models of the sphere and sigma *-representations.

The irreducible representations act on l2(N^n).  Everything here lives on
the finite hypercube {k : k_i <= cutoff}, where operators become sparse
complex matrices.  Each operator carries a shift budget recording how far
it can move a basis vector; columns whose coordinates stay at least that
far below the cutoff are immune to truncation artifacts, and residual
checks restrict to those interior columns so a genuine relation failure
is never confused with a cutoff effect.

Arithmetic is split by purpose.  Relation residuals and trace estimates
run in double precision against an interior tolerance of 1e-12, while the
eigenvalue-distinctness checks run in exact rational arithmetic at a
rational q0, because a strict-inequality claim cannot be certified with
rounded numbers.  The unit-modulus parameter lam may be given as an exact
phase pair (a, b) meaning e^{2*pi*i*a/b}, which keeps lam^{-2} exact
where the sigma family needs it.
"""

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from qwp.grading import GradingSpec, degree
from qwp.star_algebra import (
    ONE,
    W,
    AlgebraElement,
    AlgebraPresentation,
    defining_relations,
    make_named_element,
    normalize,
    z,
)

_FAMILIES = ("sphere_pi", "bar_pi", "sigma_pi")

# Point budget of a truncated cube {0..cutoff}^n.  The largest recorded
# input is the suite's trace check at n = 3, cutoff 60 (226,981 points).
# At the budget (cutoff 262143, 511 and 63 for n = 1, 2, 3) at q0 = 1/2,
# `rep verify --family sphere` takes about 5, 12 and 22 s with peaks of
# 202, 284 and 306 MB (the walk tables hold a successor and a weight per
# cube point and letter), and `rep fredholm "z0 z0*" --m 1` about 3 s
# with peaks of 28 MB (n = 1) and 18 MB (n = 3) (2 cores, Python 3.11).
MAX_CUBE_POINTS = 2**18


def _check_cube(n, cutoff):
    """Refuse a cube of more than MAX_CUBE_POINTS points before it is built.

    With sides of at least 2, MAX_CUBE_POINTS.bit_length() factors already
    exceed the budget, so the power computed here stays small.
    """
    if (cutoff + 1) ** min(n, MAX_CUBE_POINTS.bit_length()) > MAX_CUBE_POINTS:
        raise ValueError(
            f"a cube of {cutoff + 1}^{n} points exceeds the budget "
            f"MAX_CUBE_POINTS = {MAX_CUBE_POINTS}"
        )


def _exact_q0(q0, allow_one=False):
    """Coerce q0 to an exact Fraction in (0, 1), or (0, 1] when allowed."""
    if isinstance(q0, float):
        raise ValueError("q0 must be exact: Fraction, int, or string, not float")
    q0 = Fraction(q0)
    if allow_one:
        if not 0 < q0 <= 1:
            raise ValueError("q0 must lie in (0, 1]")
    elif not 0 < q0 < 1:
        raise ValueError("q0 must lie strictly between 0 and 1")
    return q0


@dataclass(frozen=True)
class TruncatedSpace:
    """Hypercube slice of l2(N^n): basis {k : k_i <= cutoff}, lex ordered.

    An optional sector (s, m) keeps only the vectors with sum(k) = s mod m.
    """

    n: int
    cutoff: int
    sector: tuple = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("space needs n >= 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        _check_cube(self.n, self.cutoff)
        if self.sector is not None:
            s, m = self.sector
            s, m = int(s), int(m)
            if m < 1 or not 0 <= s < m:
                raise ValueError("sector must be (s, m) with m >= 1 and 0 <= s < m")
            object.__setattr__(self, "sector", (s, m))
        vecs = product(range(self.cutoff + 1), repeat=self.n)
        if self.sector is not None:
            s, m = self.sector
            basis = tuple(k for k in vecs if sum(k) % m == s)
        else:
            basis = tuple(vecs)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_index", {k: i for i, k in enumerate(basis)})

    @property
    def basis(self):
        return self._basis

    @property
    def dim(self):
        return len(self._basis)

    def index(self, k):
        """Position of |k> in the basis, or None when k lies outside."""
        return self._index.get(tuple(k))

    def interior_indices(self, shift):
        """Basis positions whose vectors survive `shift` raises inside the cube."""
        top = self.cutoff - shift
        return tuple(j for j, k in enumerate(self._basis) if all(c <= top for c in k))


@dataclass(frozen=True)
class RepSpec:
    """Which irreducible representation to realize, and at which q0.

    lam is a unit-modulus complex number or an exact integer phase pair
    (a, b) meaning e^{2*pi*i*a/b}.  The bar family takes the label k in
    place of a phase; the sigma family additionally takes sign = +1 or -1.
    """

    family: str
    q0: Fraction
    lam: object = 1
    k: int = None
    sign: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        q0 = _exact_q0(self.q0)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "_f", float(q0))
        if self.family == "bar_pi":
            if self.k is None or self.k < 0:
                raise ValueError("bar_pi needs a label k >= 0")
        elif self.k is not None:
            raise ValueError("only bar_pi takes a label k")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.family != "sigma_pi" and self.sign != 1:
            raise ValueError("only sigma_pi takes a sign")
        lam = self.lam
        if isinstance(lam, tuple):
            a, b = lam
            a, b = int(a), int(b)
            if b < 1:
                raise ValueError("phase pair (a, b) needs b >= 1")
            object.__setattr__(self, "lam", (a % b, b))
        else:
            lam = complex(lam)
            if abs(abs(lam) - 1.0) > 1e-12:
                raise ValueError("lam must have modulus 1")
            object.__setattr__(self, "lam", lam)
        if self.family != "bar_pi":
            zn = self.lam_power(1)
            if self.family == "sigma_pi":
                object.__setattr__(self, "_w", self.lam_power(-2))
                object.__setattr__(self, "_wstar", self.lam_power(2))
                zn = self.sign * zn
            object.__setattr__(self, "_zn", zn)

    @property
    def pres_kind(self):
        """Kind of the presentation the family acts on: "sigma" or "sphere"."""
        return "sigma" if self.family == "sigma_pi" else "sphere"

    def lam_power(self, e):
        """lam**e, with exact integer phase arithmetic for pair-form lam."""
        if isinstance(self.lam, tuple):
            a, b = self.lam
            return cmath.exp(2j * cmath.pi * ((a * e) % b) / b)
        return self.lam**e


@dataclass(frozen=True)
class TruncatedOperator:
    """Sparse complex matrix on a TruncatedSpace.

    entries maps (row, col) to a nonzero complex value.  shift is the
    travel budget: no coordinate of a basis vector moves up by more than
    shift, so the columns of interior_indices(shift) carry exact entries
    of the untruncated operator.
    """

    space: TruncatedSpace
    entries: dict
    shift: int = 0

    @staticmethod
    def identity(space):
        return TruncatedOperator(space, {(j, j): 1.0 + 0j for j in range(space.dim)}, 0)

    def entry(self, row, col):
        return self.entries.get((row, col), 0j)

    def _merge(self, other, flip):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        merged = dict(self.entries)
        for key, val in other.entries.items():
            acc = merged.get(key, 0j) + (-val if flip else val)
            if acc == 0:
                merged.pop(key, None)
            else:
                merged[key] = acc
        return TruncatedOperator(self.space, merged, max(self.shift, other.shift))

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def scale(self, c):
        c = complex(c)
        if c == 0:
            return TruncatedOperator(self.space, {}, self.shift)
        scaled = {key: c * val for key, val in self.entries.items()}
        return TruncatedOperator(self.space, scaled, self.shift)

    def __matmul__(self, other):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")
        by_col = {}
        for (i, k), val in self.entries.items():
            by_col.setdefault(k, []).append((i, val))
        prod = {}
        for (k, j), bval in other.entries.items():
            for i, aval in by_col.get(k, ()):
                acc = prod.get((i, j), 0j) + aval * bval
                if acc == 0:
                    prod.pop((i, j), None)
                else:
                    prod[i, j] = acc
        return TruncatedOperator(self.space, prod, self.shift + other.shift)

    def adjoint(self):
        flipped = {(j, i): v.conjugate() for (i, j), v in self.entries.items()}
        return TruncatedOperator(self.space, flipped, self.shift)

    def max_abs(self, columns=None):
        """Largest entry magnitude, optionally restricted to a column set."""
        vals = (abs(v) for (i, j), v in self.entries.items() if columns is None or j in columns)
        return max(vals, default=0.0)

    def interior_columns(self):
        return self.space.interior_indices(self.shift)

    def diagonal(self):
        return tuple(self.entries.get((j, j), 0j) for j in range(self.space.dim))

    def to_coo(self):
        """Sorted coordinate-list form: [row, col, real, imag] per entry."""
        return [[i, j, v.real, v.imag] for (i, j), v in sorted(self.entries.items())]

    def to_json(self):
        return {"dim": self.space.dim, "shift": self.shift, "entries": self.to_coo()}


# ---------------------------------------------------------------------------
# generator actions on single basis vectors


def _admissible(p, k):
    """p_1 <= ... <= p_k and p_n < ... < p_{k+1}, reading p 1-based."""
    for t in range(k - 1):
        if p[t] > p[t + 1]:
            return False
    for t in range(k, len(p) - 1):
        if p[t] <= p[t + 1]:
            return False
    return True


def _bar_action(k, f, kind, i, p):
    """One bar-family generator on |p>: (coefficient, image) or None.

    z_i with i < k steps the block p_{i+1}..p_k down by one; the weight
    sqrt(1 - q^(2(p_{i+1} - p_i))) vanishes exactly when the step would
    break the ascending chain, so images stay admissible.  z_i* steps the
    block up with the weight read off the climbed vector, which is the
    adjoint and kills inadmissible sources automatically.  For i = k the
    block is empty and both act diagonally by q^(p_k + k).  Weight and
    admissibility are read off the upper vector of the step: the source
    for z, the image for z*.
    """
    if i > k:
        return None
    up = kind == "z*" and i < k
    upper = tuple(e + 1 if i <= t < k else e for t, e in enumerate(p)) if up else p
    if not _admissible(upper, k):
        return None
    base = upper[i - 1] if i else 0
    c = f ** (base + i)
    if i == k:
        return (complex(c), p)
    c *= math.sqrt(1.0 - f ** (2 * (upper[i] - base)))
    if c == 0.0:
        return None
    return (complex(c), upper if up else tuple(e - 1 if i <= t < k else e for t, e in enumerate(p)))


def _single_action(spec, g, p):
    """One generator applied to |p>: (coefficient, image tuple) or None.

    Trusts that g has already been checked against the family and n.
    """
    kind, i = g
    f = spec._f
    if kind in ("w", "w*"):
        return ((spec._w if kind == "w" else spec._wstar), p)
    if spec.family == "bar_pi":
        return _bar_action(spec.k, f, kind, i, p)
    n = len(p)
    if i == n:
        c = spec._zn * f ** (n + sum(p))
        return ((c if kind == "z" else c.conjugate()), p)
    # z lowers p_i to top - 1, z* raises it to top; both weigh sqrt(1 - q^(2 top))
    up = kind == "z*"
    top = p[i] + up
    if top == 0:
        return None
    c = math.sqrt(1.0 - f ** (2 * top)) * f ** (i + sum(p[:i]))
    return (complex(c), p[:i] + (top if up else top - 1,) + p[i + 1 :])


def _gen_shift(spec, g, n):
    """Upward travel of one generator: 1 for a raising step, else 0.

    Only raises can overflow the cube; lowering steps are guarded by the
    exact weight zeros at the bottom of the ladder.
    """
    kind, i = g
    if kind != "z*":
        return 0
    if spec.family == "bar_pi":
        return 1 if i < spec.k else 0
    return 1 if i < n else 0


def _check_space(spec, space):
    if spec.family == "bar_pi" and spec.k > space.n:
        raise ValueError(f"bar_pi label k = {spec.k} exceeds n = {space.n}")


def _check_presentation(pres, spec, space):
    if pres.kind != spec.pres_kind:
        raise ValueError(f"presentation kind {pres.kind!r} does not match family {spec.family!r}")
    if pres.n != space.n:
        raise ValueError(f"presentation has n = {pres.n} but the space has n = {space.n}")
    _check_space(spec, space)


def _check_degree_zero(x, n, m):
    if x.pres != AlgebraPresentation.sphere(n):
        raise ValueError("x must live in the sphere presentation with matching n")
    if degree(x, GradingSpec(x.pres, (1,) * n + (m,))) != 0:
        raise ValueError("x must be degree zero for the weights (1, ..., 1, m)")


def _act(spec, rev, p, cutoff, c):
    """The word whose letters, rightmost first, are rev applied to c |p>.

    Returns (coefficient, image), or None when a letter kills the vector,
    lifts it past the cutoff, or the coefficient comes out zero.
    """
    for g in rev:
        hit = _single_action(spec, g, p)
        if hit is None:
            return None
        c *= hit[0]
        p = hit[1]
        if max(p) > cutoff:
            return None
    return None if c == 0 else (c, p)


# ---------------------------------------------------------------------------
# assembly


class _WalkTables:
    """Per-letter walk tables over the live vectors of one (spec, space).

    The live vectors are the whole cube {0..cutoff}^n, or in the bar family
    its admissible vectors: every letter maps an admissible vector to an
    admissible one or kills it (see _bar_action).  For each letter g in use,
    nxt[i] is the live index of g |live[i]>, or -1 when g kills the vector
    or lifts it past the cutoff, and wt[i] is the coefficient; both come
    from _single_action.  rows maps a live index to the space's row (None
    off a sector), and cols/firsts pair each start column with its live
    index.  A table set serves the words of one call and is then dropped,
    so nothing carries over from one call to the next.
    """

    def __init__(self, spec, space):
        self.spec = spec
        self.space = space
        bar_k = spec.k if spec.family == "bar_pi" else None
        if bar_k is None and space.sector is None:
            self.index = space._index
            self.live = space.basis
            self.rows = self.cols = self.firsts = range(space.dim)
        else:
            cube = product(range(space.cutoff + 1), repeat=space.n)
            self.live = tuple(p for p in cube if bar_k is None or _admissible(p, bar_k))
            self.index = {p: i for i, p in enumerate(self.live)}
            self.rows = [space._index.get(p) for p in self.live]
            starts = [(col, self.index[p]) for col, p in enumerate(space.basis) if p in self.index]
            self.cols = [col for col, _ in starts]
            self.firsts = [i for _, i in starts]
        self._tables = {}
        self._interiors = {}
        self._values = {}

    def value(self, coeff):
        """A QScalar evaluated at q0 and rounded to float, once per scope."""
        if coeff not in self._values:
            self._values[coeff] = float(coeff.evaluate(self.spec.q0))
        return self._values[coeff]

    def table(self, g):
        """(nxt, wt) of one letter, built on first use."""
        if g not in self._tables:
            spec, cutoff, index = self.spec, self.space.cutoff, self.index
            nxt, wt = [], []
            for p in self.live:
                hit = _single_action(spec, g, p)
                j = -1 if hit is None else index.get(hit[1], -1)
                if j < 0 and hit is not None and max(hit[1]) <= cutoff:
                    raise AssertionError(f"{g} maps the live vector {p} off the live vectors")
                nxt.append(j)
                wt.append(None if j < 0 else hit[0])
            self._tables[g] = (nxt, wt)
        return self._tables[g]

    def interior(self, shift):
        """The set of interior columns for a shift budget, built on first use."""
        if shift not in self._interiors:
            self._interiors[shift] = set(self.space.interior_indices(shift))
        return self._interiors[shift]


def _assemble(walk, terms):
    """The operator of sum c * word over exact (QScalar, word) terms.

    Each coefficient is evaluated at q0 once and rounded to float; a pole
    raises PoleError.  The shift budget counts the raises of every word,
    also of one whose coefficient rounds to 0.  A word acts rightmost
    letter first, through the walk tables: from a start column's live
    index i each letter steps j = nxt[i], multiplies c by wt[i] and moves
    to i = j, which is _act's order of multiplication, so every float is
    the same.  An intermediate that climbs past the cutoff is compressed
    to zero (nxt is -1), and so is a final coefficient of 0.  In the bar
    family the vectors failing the admissibility chains span a null
    summand: they are not live, so every word, the empty one included,
    acts as zero on those columns.
    """
    spec, space = walk.spec, walk.space
    rows = walk.rows
    entries = {}
    get, pop = entries.get, entries.pop
    shift = 0
    for coeff, word in terms:
        val = walk.value(coeff)
        shift = max(shift, sum(_gen_shift(spec, g, space.n) for g in word))
        if val == 0:
            continue
        steps = [walk.table(g) for g in reversed(word)]
        for col, i in zip(walk.cols, walk.firsts):
            c = val
            for nxt, wt in steps:
                j = nxt[i]
                if j < 0:
                    break
                c *= wt[i]
                i = j
            else:
                row = rows[i]
                if c == 0 or row is None:
                    continue
                key = (row, col)
                acc = get(key, 0j) + c
                if acc == 0:
                    pop(key, None)
                else:
                    entries[key] = acc
    return TruncatedOperator(space, entries, shift)


def _element_terms(x):
    """The (coefficient, word) terms of an element, in sorted order."""
    return [(c, mon.word()) for mon, c in x.sorted_terms()]


def rep_generator(spec, g, space):
    """Sparse matrix of one generator on the truncated space.

    Entries follow the defining displays evaluated at q0; shifts that
    leave the cube compress to zero, and the returned operator's shift
    budget marks how far its images can travel.
    """
    _check_space(spec, space)
    AlgebraPresentation(spec.pres_kind, space.n).check_generator(g)
    return _assemble(_WalkTables(spec, space), [(ONE, (g,))])


def apply_element(x, spec, space):
    """Sparse matrix of a normalized element.

    Linear over terms and multiplicative along each monomial word, with
    coefficients evaluated exactly at q0 before rounding to float.  A pole
    of a coefficient at q0 propagates as PoleError.  In the bar family the
    unit acts as the projection onto the admissible vectors, not as the
    identity, because the inadmissible vectors span a null summand.
    """
    _check_presentation(x.pres, spec, space)
    return _assemble(_WalkTables(spec, space), _element_terms(x))


def relation_residual(p, spec, space):
    """Worst interior entry of L - R over the defining relations.

    Each relation gets its own interior: the columns whose vectors survive
    that relation's shift budget without touching the cutoff.  A relation
    with an empty interior contributes 0 and raises the empty flag.
    """
    _check_presentation(p, spec, space)
    walk = _WalkTables(spec, space)
    per = {}
    empty = False
    for name, lhs, rhs in defining_relations(p):
        op = _assemble(walk, lhs + [(-c, w) for c, w in rhs])
        interior = walk.interior(op.shift)
        empty = empty or not interior
        per[name] = op.max_abs(interior)
    return {"max_residual": max(per.values()), "per_relation": per, "empty_interior": empty}


# ---------------------------------------------------------------------------
# structural checks


def _compositions(total, parts):
    """Nonnegative integer vectors of the given length and sum, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _label(prefix, vec):
    return f"{prefix}[{','.join(map(str, vec))}]"


def _subalgebra_generators(pres, m):
    """The subalgebra generators as (name, label, element), in this order:
    the b pairs, the degree-m c and c_tilde monomials and, in sigma, the
    length-2m d monomials."""
    n = pres.n
    out = [
        ("b", _label("b", (i, j)), make_named_element("b", {"i": i, "j": j}, pres))
        for i in range(n)
        for j in range(i, n)
    ]
    for name in ("c", "c_tilde"):
        for l in _compositions(m, n):
            out.append((name, _label(name, l), make_named_element(name, {"l": l, "m": m}, pres)))
    if pres.kind == "sigma":
        for p in _compositions(2 * m, n):
            out.append(("d", _label("d", p), make_named_element("d", {"p": p, "m": m}, pres)))
    return out


def sector_split_check(spec, m, space):
    """Do the subalgebra generators respect the sum(k) mod m sectors?

    Assembles z_n, the b pairs, the degree-m monomials with and without
    the final starred factor, and in the sigma family also w and the
    length-2m monomials, then counts matrix entries joining different
    sectors.  z_0 is reported as a deliberate non-invariant control.
    """
    if spec.family not in ("sphere_pi", "sigma_pi"):
        raise ValueError("sector splitting applies to the sphere and sigma families")
    if m < 1:
        raise ValueError("m must be >= 1")
    if space.sector is not None:
        raise ValueError("sector check needs the full cube, not a sector subspace")
    n = space.n
    pres = AlgebraPresentation(spec.pres_kind, n)
    items = [(f"z{n}", normalize(z(n), pres))]
    if spec.family == "sigma_pi":
        items.append(("w", normalize(W, pres)))
    items += [(label, el) for _, label, el in _subalgebra_generators(pres, m)]
    sums = tuple(sum(k) for k in space.basis)
    walk = _WalkTables(spec, space)

    def summary(el):
        op = _assemble(walk, _element_terms(el))
        off = [abs(v) for (r, c), v in op.entries.items() if (sums[r] - sums[c]) % m]
        return {
            "off_sector_entries": len(off),
            "max_off_sector": max(off, default=0.0),
            "invariant": not off,
        }

    generators = {label: summary(el) for label, el in items}
    return {
        "m": m,
        "all_invariant": all(info["invariant"] for info in generators.values()),
        "generators": generators,
        "control_z0": summary(normalize(z(0), pres)),
    }


def eigenvalue_distinctness(m, n, q0, space):
    """Exact diagonal spectra of the products c_i c_i* and their separation.

    For each i < n the diagonal value on |k> is

        gamma_i(k) = q0^(2(n+sum(k)+m)) * q0^(2m(i+k_0+...+k_{i-1}))
                     * prod_{t=1..m} (1 - q0^(2(k_i+t)))

    computed as an exact Fraction.  The report checks that gamma separates
    the index i at fixed k and the coordinate k_i at fixed i.  q0 = 1 is
    accepted as a classical control; its collisions are counted, not
    raised.
    """
    q0 = _exact_q0(q0, allow_one=True)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if space.n != n:
        raise ValueError(f"space has n = {space.n}, expected {n}")
    basis = space.basis
    q2 = q0 * q0
    gammas = []
    for i in range(n):
        col = []
        for k in basis:
            val = q2 ** (n + sum(k) + m) * q2 ** (m * (i + sum(k[:i])))
            for t in range(1, m + 1):
                val *= 1 - q2 ** (k[i] + t)
            col.append(val)
        gammas.append(col)
    index_examples = []
    index_collisions = 0
    for idx, k in enumerate(basis):
        for i in range(n):
            for j in range(i + 1, n):
                if gammas[i][idx] == gammas[j][idx]:
                    index_collisions += 1
                    if len(index_examples) < 20:
                        index_examples.append((i, j, k))
    value_collisions = 0
    value_examples = []
    for i in range(n):
        buckets = {}
        for idx, k in enumerate(basis):
            buckets.setdefault(gammas[i][idx], []).append(k)
        for group in buckets.values():
            if len(group) < 2:
                continue
            sizes = Counter(k[i] for k in group)
            total = len(group) * (len(group) - 1) // 2
            same = sum(c * (c - 1) // 2 for c in sizes.values())
            value_collisions += total - same
            for a in range(len(group)):
                if len(value_examples) >= 20:
                    break
                for b in range(a + 1, len(group)):
                    if group[a][i] != group[b][i]:
                        value_examples.append((i, group[a], group[b]))
                        if len(value_examples) >= 20:
                            break
    return {
        "q0": str(q0),
        "basis_size": len(basis),
        "distinct": index_collisions == 0 and value_collisions == 0,
        "index_collisions": index_collisions,
        "value_collisions": value_collisions,
        "index_examples": index_examples,
        "value_examples": value_examples,
    }


def fredholm_trace(x, n, m, q0, cutoff):
    """Trace of the even-minus-odd representation difference, with bounds.

    Sums diagonal elements of sum_k (-1)^k bar_pi_k(x) lazily over the
    cube basis (no matrices are materialized), reports the analytic tail
    bound q0^cutoff * C(cutoff+n-1, n-1) / (1-q0)^n, and evaluates the
    comparison series sum_r C(r+n-1, n-1) q0^r against its closed form
    (1-q0)^(-n).
    """
    q0 = _exact_q0(q0)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    _check_cube(n, cutoff)
    _check_degree_zero(x, n, m)
    specs = tuple(RepSpec("bar_pi", q0, k=k) for k in range(n + 1))
    terms = tuple(
        (complex(float(coeff.evaluate(q0))), tuple(reversed(mon.word())))
        for mon, coeff in x.sorted_terms()
    )
    total = 0.0
    for p in product(range(cutoff + 1), repeat=n):
        for k, spec in enumerate(specs):
            if not _admissible(p, k):
                continue
            sign = -1.0 if k % 2 else 1.0
            for val, rev in terms:
                hit = _act(spec, rev, p, cutoff, val)
                if hit is not None and hit[1] == p:
                    total += sign * hit[0].real
    f = float(q0)
    tail = f**cutoff * math.comb(cutoff + n - 1, n - 1) / (1.0 - f) ** n
    # (1-q0)^n times the partial sum is 1 minus the first n terms of the
    # binomial expansion of ((1-q0) + q0)^(cutoff+n): n exact terms, not cutoff+1
    head = sum(math.comb(cutoff + n, j) * (1 - q0) ** j * q0 ** (cutoff + n - j) for j in range(n))
    closed = 1 / (1 - q0) ** n
    series = (1 - head) * closed
    return {
        "partial_trace": total,
        "tail_bound": tail,
        "series_partial": float(series),
        "series_closed_form": float(closed),
        "series_gap": float(closed - series),
        "cutoff": cutoff,
    }


@dataclass(frozen=True)
class FredholmModule:
    """Even-odd pair of summed bar representations with the flip operators.

    Lives on the doubled space H + H: F swaps the two copies, gamma signs
    them, and pi_plus/pi_minus sum the even and odd bar labels.  Elements
    fed to the module must be degree zero for the weights (1, ..., 1, m).
    """

    n: int
    m: int
    q0: Fraction
    cutoff: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        object.__setattr__(self, "q0", _exact_q0(self.q0))
        object.__setattr__(self, "space", TruncatedSpace(self.n, self.cutoff))

    def _summed(self, x, parity):
        _check_degree_zero(x, self.n, self.m)
        acc = TruncatedOperator(self.space, {}, 0)
        for k in range(parity, self.n + 1, 2):
            acc = acc + apply_element(x, RepSpec("bar_pi", self.q0, k=k), self.space)
        return acc

    def pi_plus(self, x):
        """Sum of the even-label representations applied to x."""
        return self._summed(x, 0)

    def pi_minus(self, x):
        """Sum of the odd-label representations applied to x."""
        return self._summed(x, 1)

    def difference(self, x):
        return self.pi_plus(x) - self.pi_minus(x)

    def trace_difference(self, x):
        op = self.difference(x)
        return sum(v.real for (i, j), v in op.entries.items() if i == j)

    def F(self):
        """The copy swap on H + H as a sparse dict over doubled indices."""
        d = self.space.dim
        ent = {}
        for j in range(d):
            ent[j, d + j] = 1
            ent[d + j, j] = 1
        return ent

    def gamma(self):
        """The sign grading on H + H: +1 on the first copy, -1 on the second."""
        d = self.space.dim
        ent = {}
        for j in range(d):
            ent[j, j] = 1
            ent[d + j, d + j] = -1
        return ent


def _drop_top(x):
    """The substitution sending the last z generator to zero.

    Exact on normal forms: a normal-form monomial either carries a factor
    of the top generator (and dies) or never mentions it (and survives).
    """
    n = x.pres.n
    kept = {mon: c for mon, c in x.terms.items() if mon.a[n] == 0 and mon.b[n] == 0}
    return AlgebraElement(x.pres, kept)


def quotient_consistency(spec, space, m=1):
    """Effect of killing the top generator on the subalgebra generators.

    The b pairs must come through untouched; degree-m monomials carrying
    the starred top factor must die; the surviving step monomials must
    lower sum(k) by exactly m (plain) or 2m (sigma length-2m family).
    """
    if spec.family not in ("sphere_pi", "sigma_pi"):
        raise ValueError("quotient checks apply to the sphere and sigma families")
    if m < 1:
        raise ValueError("m must be >= 1")
    n = space.n
    pres = AlgebraPresentation(spec.pres_kind, n)
    sums = tuple(sum(k) for k in space.basis)
    checks = []
    for name, label, el in _subalgebra_generators(pres, m):
        dropped = _drop_top(el)
        op = apply_element(dropped, spec, space)
        if name == "b":
            resid = (op - apply_element(el, spec, space)).max_abs()
            kind, passed = "unchanged", dropped == el and resid == 0.0
        elif name == "c":
            resid = op.max_abs()
            kind, passed = "annihilated", dropped.is_zero() and not op.entries
        else:
            step, kind = (m, "step_by_m") if name == "c_tilde" else (2 * m, "step_by_2m")
            bad = [abs(v) for (r, c), v in op.entries.items() if sums[c] - sums[r] != step]
            resid = max(bad, default=0.0)
            passed = dropped == el and not bad
        checks.append({"element": label, "kind": kind, "passed": passed, "max_residual": resid})
    return {"m": m, "all_passed": all(c["passed"] for c in checks), "checks": checks}
