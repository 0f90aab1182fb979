"""Weighted gradings and strong-grading certificates.

A weight tuple m assigns degree m_i to z_i, -m_i to z_i*, and -2*m_n to
the central unitary w.  The grading group is Z (modulus 0) or Z_N.  A
grading is strong at degree g when identity resolves: finitely many
pairs (a_i, b_i) with a_i of degree -g, b_i of degree g and
sum_i a_i b_i = 1.  Three constructors produce such certificates:

  * bezout_lens_resolution: a Bezout identity along z_0 certifies the
    cyclic Z_N-grading (degrees 1 and N-1);
  * weighted_resolution: a triangular elimination over the commuting
    diagonal elements b_i = z_i z_i* certifies degrees +-1 of the
    index-N Z-grading carried by the weighted lens subalgebra;
  * compose_tower_resolutions: splices the two along the exact sequence
    0 -> Z -(xN)-> Z -> Z_N -> 0 into +-1 certificates for the weighted
    Z-grading of the whole algebra.

Certificate arithmetic stays on Laurent polynomials in q wherever it can,
because sums of rational functions with other denominators cost a gcd
each.  The Bezout cofactors are built over a common denominator D and
divided by it once per output term.  Every other product works on
cleared forms: _clear(x) = (L, L*x) with only q-power denominators left
and L in Z[q], _times multiplies two cleared forms, and _over divides a
cleared form back by its L once per output term.  verify_resolution sums
(L/L_i) P_i - L over the cleared pair products (L_i, P_i), with L the lcm
of the L_i, and reads the defect as that sum over L.  Canonical forms are
unique, so this defect is exactly sum a_i b_i - 1, whether or not the
certificate carries denominators and whether or not it passes; no
construction is trusted blindly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qwp.scalar import (
    QScalar,
    _from_qpow,
    _peval,
    _pexquo,
    _pgcd,
    _pmul,
    _primitive,
    _psub,
    _trim,
)
from qwp.star_algebra import (
    AlgebraElement,
    AlgebraPresentation,
    make_named_element,
    normalize,
    z,
    z_star,
)

INHOMOGENEOUS = "inhomogeneous"

# Pair-count budget of a composed certificate.  The largest recorded call
# has 64 pairs; at the budget, sphere (1,1,2) at degree 4 (256 pairs) takes
# about 55 s and sphere (1,3) at degree 5 (243 pairs) about 2 minutes and
# 210 MB (2 cores, Python 3.11).
MAX_CERTIFICATE_PAIRS = 256

_ONE = QScalar.one()


@dataclass(frozen=True)
class GradingSpec:
    """Weights plus group data fixing the degree of every generator.

    modulus 0 means the group Z; modulus N >= 1 means Z_N with degrees
    reduced mod N.  scale embeds a coarser Z-grading: degree k under a
    scaled spec means raw weighted degree k*scale.  Raw degrees outside
    scale*Z are reported inhomogeneous (such elements lie outside the
    index-scale subalgebra the scaled grading lives on).
    """

    pres: AlgebraPresentation
    weights: tuple
    modulus: int = 0
    scale: int = 1

    def __post_init__(self):
        weights = tuple(int(m) for m in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.pres.n + 1:
            raise ValueError(
                f"need {self.pres.n + 1} weights for n = {self.pres.n}, got {len(weights)}"
            )
        if any(m <= 0 for m in weights):
            raise ValueError("weights must be positive")
        if math.gcd(*weights) != 1:
            raise ValueError("weights must be coprime as a tuple")
        if self.modulus < 0:
            raise ValueError("modulus must be 0 (for Z) or a positive integer")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.modulus and self.scale != 1:
            raise ValueError("scaled gradings are Z-gradings; use modulus 0")

    @property
    def w_weight(self):
        return -2 * self.weights[-1]

    def raw_degree(self, mon):
        """Weighted Z-degree of a normal monomial, before reduction."""
        d = mon.s * self.w_weight
        for i, m in enumerate(self.weights):
            d += (mon.a[i] - mon.b[i]) * m
        return d

    def reduce(self, d):
        """Map a raw Z-degree into the grading group; None if not in scale*Z."""
        if self.modulus:
            return d % self.modulus
        if self.scale != 1:
            if d % self.scale:
                return None
            return d // self.scale
        return d


def degree(x, g):
    """Common degree of all monomials of x under g, or INHOMOGENEOUS.

    The zero element is reported as degree 0 (it is homogeneous of every
    degree, and 0 keeps verify_resolution's bookkeeping simple).
    """
    if x.pres != g.pres:
        raise ValueError("element and grading use different presentations")
    raws = {g.raw_degree(mon) for mon in x.terms}
    if not raws:
        return 0
    if len(raws) > 1:
        return INHOMOGENEOUS
    d = g.reduce(raws.pop())
    return INHOMOGENEOUS if d is None else d


def homogeneous_components(x, g):
    """Split x into its homogeneous parts: {degree: AlgebraElement}.

    Monomials whose raw degree falls outside scale*Z are collected under
    the INHOMOGENEOUS key.
    """
    if x.pres != g.pres:
        raise ValueError("element and grading use different presentations")
    parts = {}
    for mon, coeff in x.terms.items():
        d = g.reduce(g.raw_degree(mon))
        key = INHOMOGENEOUS if d is None else d
        parts.setdefault(key, {})[mon] = coeff
    return {d: AlgebraElement(x.pres, terms) for d, terms in parts.items()}


@dataclass(frozen=True)
class ResolutionOfIdentity:
    """Certificate that identity resolves at the target degree.

    pairs is a tuple of (a, b) with a of degree -target, b of degree
    target, and sum a*b = 1; verify_resolution checks all three.
    """

    target: int
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((a, b) for a, b in self.pairs))

    def to_json(self):
        return {
            "target": self.target,
            "pairs": [[a.to_json(), b.to_json()] for a, b in self.pairs],
        }

    @staticmethod
    def from_json(data, pres=None):
        pairs = []
        for a, b in data["pairs"]:
            ea, eb = AlgebraElement.from_json(a), AlgebraElement.from_json(b)
            if pres is not None and (ea.pres != pres or eb.pres != pres):
                raise ValueError("serialized pair uses a different presentation")
            pairs.append((ea, eb))
        return ResolutionOfIdentity(data["target"], tuple(pairs))


@dataclass(frozen=True)
class TowerSpec:
    """The exact sequence 0 -> Z -(x modulus)-> Z -> Z_modulus -> 0."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("tower modulus must be a positive integer")


def verify_resolution(r, g):
    """Check degrees and the pair sum; never raises on failure.

    Returns {"valid": bool, "failures": [...], "defect": element or None}
    where failures lists per-pair degree violations and defect is
    sum a_i b_i - 1 when nonzero.  The sum is taken on cleared forms:
    with (L_i, P_i) the cleared product of pair i and L the lcm of the
    L_i, the defect is (sum (L/L_i) P_i - L) / L.
    """
    pres = g.pres
    # r.target is a group element already; only cyclic targets need reduction
    target, cotarget = (t % g.modulus if g.modulus else t for t in (r.target, -r.target))
    failures = []
    for idx, (a, b) in enumerate(r.pairs):
        for slot, elem, want in (("a", a, cotarget), ("b", b, target)):
            if elem.is_zero():
                continue
            d = degree(elem, g)
            if d != want:
                failures.append({"pair": idx, "slot": slot, "degree": d, "expected": want})
    prods = [_times(_clear(a), _clear(b)) for a, b in r.pairs]
    lcm = _lcm(dict.fromkeys(l for l, _ in prods))
    total = -AlgebraElement.one(pres).scale(QScalar(lcm))
    for l, p in prods:
        total = total + (p if l == lcm else p.scale(QScalar(_pexquo(lcm, l))))
    defect = _over(lcm, total) or None
    valid = not failures and defect is None
    return {"valid": valid, "failures": failures, "defect": defect}


def compose_resolutions(r1, r2, g):
    """Certificate for the sum of targets: pairs (a_i c_j, d_j b_i)."""
    left = [(_clear(a), _clear(b)) for a, b in r1.pairs]
    right = [(_clear(c), _clear(d)) for c, d in r2.pairs]
    pairs = tuple(
        (_over(*_times(a, c)), _over(*_times(d, b))) for a, b in left for c, d in right
    )
    target = r1.target + r2.target
    if g.modulus:
        target %= g.modulus
    return ResolutionOfIdentity(target, pairs)


# ---------------------------------------------------------------------------
# cleared denominators: L*x with only q-power denominators, L in Z[q]


def _lcm(polys):
    """lcm in Z[q] of primitive integer polynomials; (1,) for none."""
    out = (1,)
    for p in polys:
        out = _pmul(out, _pexquo(p, _pgcd(out, p)))
    return out


def _clear(x):
    """(L, X) with X = L*x free of denominators other than powers of q.

    L is the lcm of the primitive parts of x's coefficient denominators
    with their q power stripped.  Each coefficient n/(q^k d), d monic with
    d(0) != 0, becomes n*(L/d)/q^k by exact division, so no gcd is taken
    beyond the lcm.  Returns ((1,), x) itself when there is nothing to
    clear.
    """
    parts = {}
    for c in x.terms.values():
        den = c.den
        if any(den[:-1]):
            k = 0
            while not den[k]:
                k += 1
            parts[den[k:]] = None
    if not parts:
        return (1,), x
    prims = {d: _primitive(d)[1] for d in parts}
    lcm = _lcm(dict.fromkeys(prims.values()))
    # d is monic, so L/d = lead(p) * L/p for its primitive part p
    mult = {d: tuple(p[-1] * c for c in _pexquo(lcm, p)) for d, p in prims.items()}
    terms = {}
    for mon, c in x.terms.items():
        den = c.den
        k = 0
        while not den[k]:
            k += 1
        # a pure q-power denominator leaves (1,), which takes all of L
        terms[mon] = _from_qpow(_pmul(c.num, mult.get(den[k:], lcm)), k)
    return lcm, AlgebraElement(x.pres, terms)


def _times(x, y):
    """Product of two cleared forms: (Lx, X) * (Ly, Y) = (Lx*Ly, X*Y)."""
    return _pmul(x[0], y[0]), x[1] * y[1]


def _over(lcm, x):
    """x/L, one division per term: the element a cleared form (L, x) stands for."""
    return x if lcm == (1,) else x.scale(QScalar(1, lcm))


# ---------------------------------------------------------------------------
# Bezout cofactors over Q(q)[t] without Euclid (polynomials are scalar.py
# coefficient tuples, low degree first, with QScalar entries)


def _series_quotient(num, den, L):
    """num/den as a power series, truncated below degree L <= len(num); den(0) != 0."""
    inv = _ONE / den[0]
    out = []
    for k in range(L):
        acc = num[k]
        for i in range(1, min(k, len(den) - 1) + 1):
            acc = acc - den[i] * out[k - i]
        out.append(acc * inv)
    return _trim(out)


def _linear_cofactors(prod, lin):
    """(D, f) with prod + f*lin = D for a linear lin = (l0, l1) coprime to prod, l0 != 0.

    D = prod(r) at the root r = -l0/l1 of lin, and f = (D - prod)/lin is an
    exact division, so the series quotient gives it; 1/D and f/D are the
    minimal-degree Bezout cofactors.  With Laurent coefficients and l1 a
    signed power of q, D and f stay Laurent polynomials, so no gcd is
    taken.
    """
    l0, l1 = lin
    D = _peval(prod, -l0 / l1)
    return D, _series_quotient(_psub((D,), prod), lin, len(prod) - 1)


# ---------------------------------------------------------------------------
# element helpers


def _zpow(pres, i, k, star=False):
    gen = z_star(i) if star else z(i)
    return normalize((gen,) * k, pres)


def _poly_at(poly, x, pres):
    """Evaluate a Q(q)[t] polynomial at an algebra element as sum c_k x^k.

    Not Horner, which would send every partial sum, rational-function
    coefficients and all, through the rewriting engine again.
    """
    acc = AlgebraElement.zero(pres)
    power = AlgebraElement.one(pres)
    for k, c in enumerate(poly):
        if k:
            power = power * x
        acc = acc + power.scale(c)
    return acc


# ---------------------------------------------------------------------------
# constructors


def bezout_lens_resolution(N, n, weights=None, target=1, pres=None):
    """Cyclic certificate along z_0 for Z_N-degree 1 (or N-1 with target=-1).

    With a = sum_{i>=1} z_i z_i*, the closed products
      z_0^N z_0*^N  = prod_{s=0}^{N-1} (1 - q^{2s} a)
      z_0*^N z_0^N  = prod_{s=1}^{N}   (1 - q^{-2s} a)
    turn the certificate into a polynomial Bezout identity in a between a
    product and a linear factor.  The two never share a root (q^{-2s} vs
    q^2, distinct for 0 < q < 1), so the identity exists, and because one
    side is linear its cofactors have a closed form (_linear_cofactors),
    evaluated at a over their common denominator D, which each pair
    element is divided by once.
    """
    if N < 1:
        raise ValueError("modulus N must be a positive integer")
    if target not in (1, -1):
        raise ValueError("target must be +1 or -1")
    if pres is None:
        pres = AlgebraPresentation.sphere(n)
    if weights is None:
        weights = (1,) * (n + 1)
    if weights[0] % N != 1 % N:
        raise ValueError("the z_0 weight must be congruent to 1 mod N")
    one = AlgebraElement.one(pres)
    if N == 1:
        return ResolutionOfIdentity(0, ((one, one),))
    a = make_named_element("a", {}, pres)
    # P + beta*Q = D with P(a) = x^{N-1} y^{N-1} and Q(a) = y x:
    #   target +1, (x, y) = (z_0, z_0*): P = prod_{s=0}^{N-2}(1 - q^{2s}a), Q = 1 - q^{-2}a;
    #   target -1, (x, y) = (z_0*, z_0): P = prod_{s=1}^{N-1}(1 - q^{-2s}a), Q = 1 - a.
    star = target == -1
    if star:
        consts, lin = [-QScalar.q(-2 * s) for s in range(1, N)], -_ONE
    else:
        consts, lin = [-QScalar.q(2 * s) for s in range(N - 1)], -QScalar.q(-2)
    D, beta = _linear_cofactors(_linear_product(consts), (_ONE, lin))
    inv = _ONE / D
    x1, xN = (_zpow(pres, 0, k, star) for k in (1, N - 1))
    y1, yN = (_zpow(pres, 0, k, not star) for k in (1, N - 1))
    pairs = (
        (xN.scale(inv), yN),
        ((_poly_at(beta, a, pres) * y1).scale(inv), x1),
    )
    # target -1 lists the Q pair first
    return ResolutionOfIdentity(target % N, pairs[::target])


def _linear_product(consts):
    """prod_c (1 + c y) as a coefficient tuple in y, low degree first."""
    out = (_ONE,)
    for c in consts:
        out = _pmul(out, (_ONE, c))
    return out


def _level_poly(l, plus):
    """The dehomogenized level form in y = c_j/b_j, degree l.

    minus: prod_{k=0}^{l-1} (1 + (1 - q^{2k}) y)   from z^l z*^l
    plus:  prod_{s=1}^{l}   (1 - (q^{-2s} - 1) y)  from z*^l z^l
    """
    if plus:
        return _linear_product(-(QScalar.q(-2 * s) - _ONE) for s in range(1, l + 1))
    return _linear_product(_ONE - QScalar.q(2 * k) for k in range(l))


def _homogenize_at(poly, total, belem, celem, pres):
    """Evaluate the degree-`total` homogenization of poly at (b, c)."""
    if len(poly) - 1 > total:
        raise ValueError("polynomial degree exceeds homogenization degree")
    bpow = [AlgebraElement.one(pres)]
    cpow = [AlgebraElement.one(pres)]
    for _ in range(total):
        bpow.append(bpow[-1] * belem)
        cpow.append(cpow[-1] * celem)
    acc = AlgebraElement.zero(pres)
    for d, coeff in enumerate(poly):
        if coeff:
            acc = acc + (bpow[total - d] * cpow[d]).scale(coeff)
    return acc


def _triangular_coeffs(pres, exps, plus):
    """Coefficients C_i with sum_i C_i * P_i(b) = 1 by back-substitution.

    P_i(b) is the closed product for z_i^{l_i} z_i*^{l_i} (or its starred
    mirror), a binary form of degree l_i in (b_i, c_i) with c_i =
    sum_{j>i} b_j.  Working upward from i = n, the accumulated identity
    sum_{i>j} C_i P_i = c_j^L is lifted through the split
    (b_j + c_j)^T = U P_j + W c_j^L of degree T = l_j + L - 1.  In
    y = c_j/b_j, U is the power series (1 + y)^T / P_j(y) truncated below
    degree L (P_j(0) = 1, so this takes ring operations only) and y^L W
    is what remains.  Since b_j + c_j = c_{j-1}, the new level is T; at
    the top, b_0 + c_0 = 1 collapses the accumulated form to 1.
    """
    n = pres.n
    coeffs = {n: AlgebraElement.one(pres)}
    level = exps[n]
    for j in range(n - 1, -1, -1):
        lj = exps[j]
        pj = _level_poly(lj, plus)
        total = lj + level - 1
        t = tuple(math.comb(total, k) for k in range(total + 1))
        u1 = _series_quotient(t, pj, level)
        rem = _psub(t, _pmul(u1, pj))
        if any(rem[:level]):
            raise ArithmeticError("level elimination failed to clear low terms")
        w1 = rem[level:]
        belem = make_named_element("b", {"i": j}, pres)
        celem = AlgebraElement.zero(pres)
        for k in range(j + 1, n + 1):
            celem = celem + make_named_element("b", {"i": k}, pres)
        ncoeffs = {j: _homogenize_at(u1, total - lj, belem, celem, pres)}
        wfac = _homogenize_at(w1, total - level, belem, celem, pres)
        for i, c in coeffs.items():
            ncoeffs[i] = wfac * c
        coeffs = ncoeffs
        level = total
    return [coeffs[i] for i in range(n + 1)]


def weighted_resolution(m, pres=None):
    """Certificates for degrees -1 and +1 of the index-N Z-grading.

    With l_i = prod_{j != i} m_j, the pairs are (C_i z_i^{l_i}, z_i*^{l_i})
    for degree -1 and (D_i z_i*^{l_i}, z_i^{l_i}) for degree +1, where the
    C_i, D_i are polynomials in the commuting b_0..b_n found by the
    triangular elimination (_triangular_coeffs).
    """
    m = tuple(int(w) for w in m)
    if len(m) < 2 or any(w <= 0 for w in m):
        raise ValueError("need at least two positive weights")
    n = len(m) - 1
    if pres is None:
        pres = AlgebraPresentation.sphere(n)
    if pres.n != n:
        raise ValueError("presentation size does not match the weight tuple")
    total = math.prod(m)
    exps = tuple(total // m[i] for i in range(n + 1))
    out = {}
    for key, target, plus in (("res_minus", -1, False), ("res_plus", 1, True)):
        coeffs = _triangular_coeffs(pres, exps, plus)
        pairs = tuple(
            (coeffs[i] * _zpow(pres, i, e, star=plus), _zpow(pres, i, e, star=not plus))
            for i, e in enumerate(exps)
        )
        out[key] = ResolutionOfIdentity(target, pairs)
    return {"res_plus": out["res_plus"], "res_minus": out["res_minus"]}


def _power(res, k, g):
    """Certificate for k times the base degree: the +-1 pair of res composed |k| times.

    res is a {"res_plus", "res_minus"} dict; k = 0 gives the unit
    certificate and leaves res unread.  The result has p^|k| pairs for a
    base of p pairs; a count above MAX_CERTIFICATE_PAIRS is refused with a
    ValueError before anything is composed.
    """
    if k == 0:
        one = AlgebraElement.one(g.pres)
        return ResolutionOfIdentity(0, ((one, one),))
    base = res["res_plus"] if k > 0 else res["res_minus"]
    count = 1
    for _ in range(abs(k)):
        count *= len(base.pairs)
        if count > MAX_CERTIFICATE_PAIRS:
            raise ValueError(
                f"a certificate of {len(base.pairs)}^{abs(k)} pairs exceeds the budget "
                f"MAX_CERTIFICATE_PAIRS = {MAX_CERTIFICATE_PAIRS}"
            )
    out = base
    for _ in range(abs(k) - 1):
        out = compose_resolutions(out, base, g)
    return out


def compose_tower_resolutions(tower, lens_res, cyclic_res, g):
    """Splice lens and cyclic certificates into +-1 certificates for g.

    g is the weighted Z-grading of the full algebra (modulus 0, scale 1,
    first weight 1).  Each cyclic pair is split into Z-homogeneous
    components; matched components of complementary degree either already
    sit in degrees (-d, d) or get a lens certificate spliced in between
    to shift them there.  Inputs are verified first and rejected if
    invalid.
    """
    if g.modulus or g.scale != 1:
        raise ValueError("the ambient grading must be the Z-grading (modulus 0, scale 1)")
    if g.weights[0] != 1:
        raise ValueError("tower composition needs first weight 1")
    N = tower.modulus
    if N != math.prod(g.weights):
        raise ValueError("tower modulus must equal the product of the weights")
    pres = g.pres
    g_cyc = GradingSpec(pres, g.weights, modulus=N)
    g_lens = GradingSpec(pres, g.weights, scale=N)
    for name, res, spec in (("lens", lens_res, g_lens), ("cyclic", cyclic_res, g_cyc)):
        for key in ("res_plus", "res_minus"):
            if not verify_resolution(res[key], spec)["valid"]:
                raise ValueError(f"input certificate {name} {key} failed verification")
    out = {}
    for d, cyc in ((1, cyclic_res["res_plus"]), (-1, cyclic_res["res_minus"])):
        pairs = []
        for a, b in cyc.pairs:
            acomp = homogeneous_components(a, g)
            bcomp = homogeneous_components(b, g)
            for t, at in acomp.items():
                if t == INHOMOGENEOUS or (t + d) % N:
                    raise ValueError("cyclic certificate is not Z_N-homogeneous")
                bt = bcomp.get(-t)
                if bt is None:
                    continue
                k = (t + d) // N
                if k == 0:
                    pairs.append((at, bt))
                    continue
                shift = [(_clear(u), _clear(v)) for u, v in _power(lens_res, k, g_lens).pairs]
                ca, cb = _clear(at), _clear(bt)
                pairs.extend((_over(*_times(ca, u)), _over(*_times(v, cb))) for u, v in shift)
        out[d] = ResolutionOfIdentity(d, tuple(pairs))
    return {"res_plus": out[1], "res_minus": out[-1]}


def check_strong_grading(p, g, degrees):
    """Try the applicable constructor at each degree and verify the result.

    Returns {"degrees": {d: entry}, "all_certified": bool} where each
    entry carries the certificate (or None), the verification verdict,
    and a note explaining any failure.  Failures are reported, never
    raised.  Degrees are taken in (|d|, d) order.  When the +-1
    certificates cannot be built, every nonzero degree carries the reason
    as its note.
    """
    if g.pres != p:
        raise ValueError("grading spec was built for a different presentation")
    report = {"degrees": {}, "all_certified": True}
    base = None  # the +-1 certificates, or the error that stopped their construction
    for d in sorted(set(degrees), key=lambda v: (abs(v), v)):
        entry = {"degree": d, "certified": False, "resolution": None, "verification": None, "note": ""}
        k = _signed_degree(g, d)
        if k and base is None:
            try:
                base = _base_resolutions(p, g)
            except (ValueError, ArithmeticError) as exc:
                base = exc
        if k and isinstance(base, Exception):
            entry["note"] = str(base)
        else:
            res = _power(base, k, g)
            verdict = verify_resolution(res, g)
            entry["resolution"] = res
            entry["verification"] = verdict
            entry["certified"] = verdict["valid"]
            if not verdict["valid"]:
                entry["note"] = "constructed certificate failed verification"
        report["degrees"][d] = entry
        report["all_certified"] = report["all_certified"] and entry["certified"]
    return report


def _signed_degree(g, d):
    """d as a multiple of the +-1 base degree, taking the shorter way round Z_N."""
    if not g.modulus:
        return d
    d %= g.modulus
    return d if d <= g.modulus - d else d - g.modulus


def _base_resolutions(p, g):
    """The {"res_plus", "res_minus"} certificates that every degree of g is a power of."""
    if g.modulus:
        return {
            key: bezout_lens_resolution(g.modulus, p.n, g.weights, target=t, pres=p)
            for key, t in (("res_plus", 1), ("res_minus", -1))
        }
    if g.scale != 1:
        return weighted_resolution(g.weights, pres=p)
    if g.weights[0] != 1:
        raise ValueError("no constructor applies: the Z-grading route needs first weight 1")
    N = math.prod(g.weights)
    lens = weighted_resolution(g.weights, pres=p)
    cyclic = _base_resolutions(p, GradingSpec(p, g.weights, modulus=N))
    return compose_tower_resolutions(TowerSpec(N), lens, cyclic, g)
