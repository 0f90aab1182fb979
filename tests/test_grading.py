"""Weighted degrees, homogeneous splitting, and strong-grading certificates."""

import functools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import replay_certificates
from qwp.scalar import QScalar, _padd, _pmul
from qwp.star_algebra import (
    AlgebraElement,
    AlgebraPresentation,
    adjoint,
    make_named_element,
    normalize,
    z,
    z_star,
)
from qwp.grading import (
    INHOMOGENEOUS,
    GradingSpec,
    ResolutionOfIdentity,
    TowerSpec,
    bezout_lens_resolution,
    check_strong_grading,
    compose_resolutions,
    compose_tower_resolutions,
    degree,
    homogeneous_components,
    verify_resolution,
    weighted_resolution,
    _clear,
    _linear_cofactors,
)

q = QScalar.q()
one = QScalar.one()

S1 = AlgebraPresentation.sphere(1)
S2 = AlgebraPresentation.sphere(2)
SIG1 = AlgebraPresentation.sigma(1)


def z_el(pres, i, k=1, star=False):
    g = z_star(i) if star else z(i)
    return normalize((g,) * k, pres)


def random_word(pres, rng, max_len=8):
    alphabet = [z(i) for i in range(pres.n + 1)] + [
        z_star(i) for i in range(pres.n + 1)
    ]
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


# -- degrees -----------------------------------------------------------------


def test_degree_examples():
    g = GradingSpec(pres=S1, weights=(1, 3))
    assert degree(z_el(S1, 0), g) == 1
    assert degree(normalize((z(0),) * 3 + (z_star(1),), S1), g) == 0
    assert degree(z_el(S1, 0) + z_el(S1, 1), g) == INHOMOGENEOUS


def test_degree_zero_and_scalars():
    g = GradingSpec(pres=S1, weights=(1, 2))
    assert degree(AlgebraElement.zero(S1), g) == 0
    assert degree(AlgebraElement.one(S1).scale(q ** 3), g) == 0


def test_degree_cyclic_reduction():
    g = GradingSpec(pres=S1, weights=(1, 1), modulus=2)
    assert degree(z_el(S1, 0), g) == 1
    assert degree(normalize((z(0), z(1)), S1), g) == 0
    assert degree(z_el(S1, 1, star=True), g) == 1


def test_degree_scaled_grading():
    # index-2 subalgebra: raw degree 2k reads as k, odd raw degrees fall out
    g = GradingSpec(pres=S1, weights=(1, 1), scale=2)
    assert degree(normalize((z(0), z(1)), S1), g) == 1
    assert degree(z_el(S1, 0), g) == INHOMOGENEOUS
    assert degree(z_el(S1, 0, 2, star=True), g) == -1


def test_degree_presentation_mismatch():
    g = GradingSpec(pres=S1, weights=(1, 1))
    with pytest.raises(ValueError):
        degree(AlgebraElement.one(S2), g)


def test_sigma_w_degree():
    # z_n* = w z_n forces |w| = -2 m_n
    g = GradingSpec(pres=SIG1, weights=(1, 2))
    zs = normalize((z_star(1),), SIG1)
    assert degree(zs, g) == -2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([z(0), z(1), z(2), z_star(0), z_star(1), z_star(2)]),
             min_size=0, max_size=5).map(tuple),
    st.lists(st.sampled_from([z(0), z(1), z(2), z_star(0), z_star(1), z_star(2)]),
             min_size=0, max_size=5).map(tuple),
)
def test_degree_multiplicative(w1, w2):
    g = GradingSpec(pres=S2, weights=(1, 2, 3))
    x, y = normalize(w1, S2), normalize(w2, S2)
    dx, dy = degree(x, g), degree(y, g)
    assert dx != INHOMOGENEOUS and dy != INHOMOGENEOUS
    if not x.is_zero() and not y.is_zero():
        assert degree(x * y, g) == dx + dy


def test_degree_multiplicative_cyclic():
    rng = random.Random(3)
    g = GradingSpec(pres=S1, weights=(1, 3), modulus=3)
    for _ in range(60):
        x = normalize(random_word(S1, rng, 6), S1)
        y = normalize(random_word(S1, rng, 6), S1)
        if x.is_zero() or y.is_zero():
            continue
        assert degree(x * y, g) == (degree(x, g) + degree(y, g)) % 3


def test_adjoint_flips_degree():
    rng = random.Random(4)
    g = GradingSpec(pres=S2, weights=(1, 2, 3))
    gc = GradingSpec(pres=S2, weights=(1, 2, 3), modulus=4)
    for _ in range(60):
        x = normalize(random_word(S2, rng, 6), S2)
        if x.is_zero():
            continue
        assert degree(adjoint(x), g) == -degree(x, g)
        assert degree(adjoint(x), gc) == (-degree(x, gc)) % 4


def test_restriction_consistency():
    # lens Z-degree k <=> ambient Z-degree k*N
    rng = random.Random(5)
    N = 6
    gz = GradingSpec(pres=S2, weights=(1, 2, 3))
    gl = GradingSpec(pres=S2, weights=(1, 2, 3), scale=N)
    for _ in range(80):
        x = normalize(random_word(S2, rng, 6), S2)
        if x.is_zero():
            continue
        d = degree(x, gz)
        if d % N == 0:
            assert degree(x, gl) == d // N
        else:
            assert degree(x, gl) == INHOMOGENEOUS


def test_homogeneous_components_split():
    rng = random.Random(6)
    g = GradingSpec(pres=S1, weights=(1, 2))
    for _ in range(30):
        x = normalize(random_word(S1, rng), S1) + normalize(random_word(S1, rng), S1)
        parts = homogeneous_components(x, g)
        back = AlgebraElement.zero(S1)
        for d, comp in parts.items():
            assert degree(comp, g) == d
            back = back + comp
        assert back == x


def test_homogeneous_components_scaled_bucket():
    g = GradingSpec(pres=S1, weights=(1, 1), scale=2)
    x = z_el(S1, 0) + normalize((z(0), z(1)), S1)
    parts = homogeneous_components(x, g)
    assert set(parts) == {INHOMOGENEOUS, 1}
    assert parts[INHOMOGENEOUS] == z_el(S1, 0)


# -- GradingSpec validation ---------------------------------------------------------


def test_grading_spec_validation():
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(1, 2, 3))
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(1, 0))
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(2, 4))
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(1, 1), modulus=-2)
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(1, 1), modulus=2, scale=3)
    with pytest.raises(ValueError):
        GradingSpec(pres=S1, weights=(1, 1), scale=0)


def test_tower_spec_validation():
    with pytest.raises(ValueError):
        TowerSpec(modulus=0)


# -- verify_resolution -------------------------------------------------------


def test_verify_lens_n2_valid():
    g = GradingSpec(pres=S1, weights=(1, 1), modulus=2)
    r = bezout_lens_resolution(2, 1)
    verdict = verify_resolution(r, g)
    assert verdict["valid"]
    assert verdict["failures"] == []
    assert verdict["defect"] is None


def test_verify_reports_defect():
    # z0* z0 = 1 - q^-2 a, so the lone pair (z0*, z0) misses identity
    g = GradingSpec(pres=S1, weights=(1, 1))
    r = ResolutionOfIdentity(1, ((z_el(S1, 0, star=True), z_el(S1, 0)),))
    verdict = verify_resolution(r, g)
    assert not verdict["valid"]
    assert verdict["failures"] == []
    a = make_named_element("a", {}, S1)
    assert verdict["defect"] == a.scale(-(q ** -2))


def test_verify_empty_pairs():
    g = GradingSpec(pres=S1, weights=(1, 1))
    verdict = verify_resolution(ResolutionOfIdentity(0, ()), g)
    assert not verdict["valid"]
    assert verdict["defect"] == -AlgebraElement.one(S1)


def test_verify_reports_degree_failures():
    g = GradingSpec(pres=S1, weights=(1, 1))
    r = ResolutionOfIdentity(1, ((z_el(S1, 0), z_el(S1, 0, star=True)),))
    verdict = verify_resolution(r, g)
    assert not verdict["valid"]
    slots = {(f["pair"], f["slot"]) for f in verdict["failures"]}
    assert slots == {(0, "a"), (0, "b")}
    assert verdict["failures"][0]["expected"] == -1


def test_verify_cyclic_target_units():
    # target N-1 represents -1 in Z_N; both reductions must agree
    g = GradingSpec(pres=S1, weights=(1, 1), modulus=3)
    r = bezout_lens_resolution(3, 1, target=-1)
    assert r.target == 2
    assert verify_resolution(r, g)["valid"]


# -- bezout_lens_resolution --------------------------------------------------


def test_bezout_trivial_modulus():
    r = bezout_lens_resolution(1, 2)
    assert r.target == 0
    assert r.pairs == ((AlgebraElement.one(S2), AlgebraElement.one(S2)),)


def test_bezout_n2_closed_form():
    r = bezout_lens_resolution(2, 1)
    alpha = one / (one - q ** 2)
    beta = (q ** 2) / (q ** 2 - one)
    assert r.pairs[0][0] == z_el(S1, 0).scale(alpha)
    assert r.pairs[0][1] == z_el(S1, 0, star=True)
    assert r.pairs[1][0] == z_el(S1, 0, star=True).scale(beta)
    assert r.pairs[1][1] == z_el(S1, 0)
    # the identity alpha (1 - a) + beta (1 - q^-2 a) = 1 behind the pairs
    a = make_named_element("a", {}, S1)
    i1 = AlgebraElement.one(S1)
    assert (i1 - a).scale(alpha) + (i1 - a.scale(q ** -2)).scale(beta) == i1


def test_bezout_weight_congruence_required():
    with pytest.raises(ValueError):
        bezout_lens_resolution(2, 1, weights=(2, 1))
    with pytest.raises(ValueError):
        bezout_lens_resolution(0, 1)
    with pytest.raises(ValueError):
        bezout_lens_resolution(2, 1, target=3)


def test_bezout_all_small_cases_verify():
    for N in (2, 3, 4, 5):
        for n in (1, 2, 3):
            pres = AlgebraPresentation.sphere(n)
            g = GradingSpec(pres=pres, weights=(1,) * (n + 1), modulus=N)
            for target in (1, -1):
                r = bezout_lens_resolution(N, n, target=target, pres=pres)
                assert verify_resolution(r, g)["valid"], (N, n, target)


def _bezout_identities(N):
    """(P, lin) for both targets: the cofactors solve c*P + f*lin = 1.

    Target 1 pairs prod_{s=0}^{N-2}(1 - q^{2s}x) with 1 - q^{-2}x; target -1
    pairs prod_{s=1}^{N-1}(1 - q^{-2s}x) with 1 - x.
    """
    plus, minus = (one,), (one,)
    for s in range(N - 1):
        plus = _pmul(plus, (one, -QScalar.q(2 * s)))
        minus = _pmul(minus, (one, -QScalar.q(-2 * (s + 1))))
    return (
        (plus, (one, -QScalar.q(-2))),
        (minus, (one, -one)),
    )


def _bezout_cofactors(p, lin):
    """The cofactors 1/D and f/D with (1/D)*p + (f/D)*lin = 1."""
    D, f = _linear_cofactors(p, lin)
    return (one / D,), tuple(v / D for v in f)


def _to_sympy(c, qs):
    num = sum(sympy.Rational(Fraction(v)) * qs ** i for i, v in enumerate(c.num))
    den = sum(sympy.Rational(Fraction(v)) * qs ** i for i, v in enumerate(c.den))
    return num / den


def _sympy_poly(coeffs, qs, x):
    return sum(_to_sympy(c, qs) * x ** i for i, c in enumerate(coeffs))


def test_bezout_coefficients_match_sympy_gcdex():
    qs, x = sympy.symbols("q x")
    for N in (2, 3, 4, 5):
        for p, lin in _bezout_identities(N):
            c, f = _bezout_cofactors(p, lin)
            s_, t_, h = sympy.gcdex(sympy.Poly(_sympy_poly(p, qs, x), x, domain=f"QQ({qs})"),
                                    sympy.Poly(_sympy_poly(lin, qs, x), x, domain=f"QQ({qs})"))
            c_ref = sympy.Poly(s_ / h, x).all_coeffs()[::-1]
            f_ref = sympy.Poly(t_ / h, x).all_coeffs()[::-1]
            assert len(c) == len(c_ref) and len(f) == len(f_ref)
            for mine, ref in zip(c + f, c_ref + f_ref):
                assert sympy.simplify(_to_sympy(mine, qs) - ref) == 0


def test_bezout_identity_exact_and_denominators_vanish_at_1():
    for N in (2, 3, 4, 5):
        for p, lin in _bezout_identities(N):
            D, f_raw = _linear_cofactors(p, lin)
            assert _padd(p, _pmul(f_raw, lin)) == (D,)
            # Laurent polynomials: no denominator other than a power of q
            assert not any(any(v.den[:-1]) for v in (D,) + f_raw)
            c, f = _bezout_cofactors(p, lin)
            total = [QScalar.zero()] * max(len(c) + len(p), len(f) + len(lin))
            for i, v in enumerate(_pmul(c, p)):
                total[i] = total[i] + v
            for i, v in enumerate(_pmul(f, lin)):
                total[i] = total[i] + v
            assert total[0] == one and all(v.is_zero() for v in total[1:])
            seen_pole = False
            for v in c + f:
                if len(v.den) > 1:
                    seen_pole = True
                    assert sum(Fraction(w) for w in v.den) == 0
            assert seen_pole


# -- weighted_resolution -----------------------------------------------------


def lens_spec(m, pres):
    return GradingSpec(pres=pres, weights=m, scale=math.prod(m))


def test_weighted_unit_weights():
    r = weighted_resolution((1, 1))
    for i in range(2):
        assert r["res_minus"].pairs[i][0] == z_el(S1, i)
        assert r["res_minus"].pairs[i][1] == z_el(S1, i, star=True)
    g = lens_spec((1, 1), S1)
    assert verify_resolution(r["res_minus"], g)["valid"]
    assert verify_resolution(r["res_plus"], g)["valid"]


@pytest.mark.parametrize("m", [(1, 2), (2, 3), (1, 1, 2), (1, 2, 3)])
def test_weighted_triangular_verifies(m):
    n = len(m) - 1
    pres = AlgebraPresentation.sphere(n)
    r = weighted_resolution(m, pres=pres)
    g = lens_spec(m, pres)
    total = math.prod(m)
    for key, sign in (("res_minus", -1), ("res_plus", 1)):
        res = r[key]
        assert res.target == sign
        assert len(res.pairs) == n + 1
        assert verify_resolution(res, g)["valid"], (m, key)
    for i in range(n + 1):
        mon = next(iter(r["res_minus"].pairs[i][1].terms))
        assert mon.b[i] == total // m[i]


def test_weighted_sigma_presentation():
    r = weighted_resolution((1, 2), pres=SIG1)
    g = lens_spec((1, 2), SIG1)
    assert verify_resolution(r["res_minus"], g)["valid"]
    assert verify_resolution(r["res_plus"], g)["valid"]


def test_weighted_input_validation():
    with pytest.raises(ValueError):
        weighted_resolution((3,))
    with pytest.raises(ValueError):
        weighted_resolution((1, -2))
    with pytest.raises(ValueError):
        weighted_resolution((1, 2), pres=S2)


# -- composition -------------------------------------------------------------


def test_compose_resolutions_cyclic():
    g = GradingSpec(pres=S1, weights=(1, 1), modulus=5)
    r1 = bezout_lens_resolution(5, 1)
    r2 = compose_resolutions(r1, r1, g)
    assert r2.target == 2
    assert verify_resolution(r2, g)["valid"]


def tower_inputs(m, pres):
    weights = (1, m)
    lens = weighted_resolution(weights, pres=pres)
    cyclic = {
        "res_plus": bezout_lens_resolution(m, 1, weights=weights, target=1, pres=pres),
        "res_minus": bezout_lens_resolution(m, 1, weights=weights, target=-1, pres=pres),
    }
    return TowerSpec(modulus=m), lens, cyclic


def test_tower_unit_weights_reduces_to_unit_relation():
    g = GradingSpec(pres=S1, weights=(1, 1))
    out = compose_tower_resolutions(*tower_inputs(1, S1), g)
    expected = tuple((z_el(S1, i), z_el(S1, i, star=True)) for i in range(2))
    assert out["res_minus"].pairs == expected
    assert verify_resolution(out["res_plus"], g)["valid"]


@pytest.mark.parametrize("pres,m", [(S1, 2), (S1, 3), (SIG1, 2), (SIG1, 4)])
def test_tower_composition_verifies(pres, m):
    g = GradingSpec(pres=pres, weights=(1, m))
    out = compose_tower_resolutions(*tower_inputs(m, pres), g)
    assert verify_resolution(out["res_plus"], g)["valid"]
    assert verify_resolution(out["res_minus"], g)["valid"]


def test_tower_rejects_bad_inputs():
    tower, lens, cyclic = tower_inputs(2, S1)
    g = GradingSpec(pres=S1, weights=(1, 2))
    with pytest.raises(ValueError):
        compose_tower_resolutions(tower, lens, cyclic,
                                  GradingSpec(pres=S1, weights=(1, 2), modulus=2))
    with pytest.raises(ValueError):
        compose_tower_resolutions(TowerSpec(modulus=3), lens, cyclic, g)
    broken = {
        "res_plus": cyclic["res_plus"],
        "res_minus": ResolutionOfIdentity(-1, ((AlgebraElement.one(S1),) * 2,)),
    }
    with pytest.raises(ValueError):
        compose_tower_resolutions(tower, lens, broken, g)


# -- cleared verification ----------------------------------------------------


@functools.cache
def _valid_certificates():
    """A Bezout, a tower and a weighted certificate with their gradings."""
    tower = compose_tower_resolutions(*tower_inputs(2, S1), GradingSpec(pres=S1, weights=(1, 2)))
    return {
        "bezout": (bezout_lens_resolution(3, 1), GradingSpec(pres=S1, weights=(1, 1), modulus=3)),
        "tower": (tower["res_minus"], GradingSpec(pres=S1, weights=(1, 2))),
        "weighted": (weighted_resolution((2, 3))["res_plus"], lens_spec((2, 3), S1)),
    }


def _direct_defect(r, pres):
    total = AlgebraElement.zero(pres)
    for a, b in r.pairs:
        total = total + a * b
    return total - AlgebraElement.one(pres)


def _assert_defect_is_direct(verdict, direct):
    """verify_resolution's defect is the plain sum a_i b_i - 1, or None when that is 0."""
    assert verdict["valid"] == direct.is_zero()
    if direct.is_zero():
        assert verdict["defect"] is None
        return
    assert verdict["defect"] == direct
    assert verdict["defect"].to_json() == direct.to_json()
    assert str(verdict["defect"]) == str(direct)


def _replace_pair(r, idx, a, b):
    pairs = list(r.pairs)
    pairs[idx] = (a, b)
    return ResolutionOfIdentity(r.target, tuple(pairs))


def _has_denominator(r):
    return any(
        any(c.den[:-1]) for pair in r.pairs for x in pair for c in x.terms.values()
    )


def test_clear_multiplies_out_non_q_power_denominators():
    r, _ = _valid_certificates()["bezout"]
    for a, b in r.pairs:
        for x in (a, b):
            lcm, cleared = _clear(x)
            assert all(type(c) is int for c in lcm)
            assert cleared == x.scale(QScalar(lcm))
            assert not any(any(c.den[:-1]) for c in cleared.terms.values())
    assert _has_denominator(r)
    weighted, _ = _valid_certificates()["weighted"]
    assert not _has_denominator(weighted)
    a = weighted.pairs[0][0]
    assert _clear(a) == ((1,), a) and _clear(a)[1] is a


@pytest.mark.parametrize("name", ["bezout", "tower", "weighted"])
def test_perturbed_coefficient_rejected_by_both_checks(name):
    r, g = _valid_certificates()[name]
    assert _has_denominator(r) is (name != "weighted")
    verdict = verify_resolution(r, g)
    assert verdict["valid"] and verdict["failures"] == []
    _assert_defect_is_direct(verdict, _direct_defect(r, g.pres))
    a, b = r.pairs[-1]
    mon, coeff = a.sorted_terms()[0]
    # a denominator that is not a power of q, so the sum is taken over L != 1
    bad = _replace_pair(r, len(r.pairs) - 1, a + AlgebraElement(S1, {mon: coeff / (1 + q)}), b)
    assert _has_denominator(bad)
    direct = _direct_defect(bad, g.pres)
    assert not direct.is_zero()
    verdict = verify_resolution(bad, g)
    assert not verdict["valid"] and verdict["failures"] == []
    _assert_defect_is_direct(verdict, direct)


_PAIR_SCALARS = (
    one,
    q ** -2,
    -one,
    (1 + q) / (1 - q ** 3),
    (1 - q ** 3) / (1 + q),
    q / (1 + 2 * q ** 2),
    (1 + 2 * q ** 2) / q,
)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["bezout", "tower", "weighted"]),
    idx=st.integers(min_value=0, max_value=20),
    s=st.sampled_from(_PAIR_SCALARS),
    t=st.sampled_from(_PAIR_SCALARS),
)
def test_cleared_and_direct_verdicts_agree(name, idx, s, t):
    # (a, b) -> (s a, t b) keeps the identity exactly when s t = 1; (s a, b/s)
    # always keeps it, with the pairs' denominators no longer alike
    r, g = _valid_certificates()[name]
    idx %= len(r.pairs)
    a, b = r.pairs[idx]
    for u in (t, one / s):
        changed = _replace_pair(r, idx, a.scale(s), b.scale(u))
        direct = _direct_defect(changed, g.pres)
        assert direct.is_zero() == (s * u == one)
        verdict = verify_resolution(changed, g)
        assert verdict["failures"] == []
        _assert_defect_is_direct(verdict, direct)


# -- check_strong_grading ----------------------------------------------------


def test_check_strong_grading_cyclic_unit_weights():
    g = GradingSpec(pres=S1, weights=(1, 1), modulus=2)
    report = check_strong_grading(S1, g, {0, 1})
    assert report["all_certified"]
    assert report["degrees"][0]["certified"]
    assert report["degrees"][1]["verification"]["valid"]


def test_check_strong_grading_weighted_sphere():
    g = GradingSpec(pres=S1, weights=(1, 2))
    report = check_strong_grading(S1, g, {-1, 1})
    assert report["all_certified"]


def test_check_strong_grading_sigma_cyclic():
    g = GradingSpec(pres=SIG1, weights=(1, 1), modulus=2)
    report = check_strong_grading(SIG1, g, {0, 1})
    assert report["all_certified"]


def test_check_strong_grading_reports_missing_constructor():
    g = GradingSpec(pres=S1, weights=(2, 3))
    report = check_strong_grading(S1, g, {1})
    assert not report["all_certified"]
    entry = report["degrees"][1]
    assert not entry["certified"]
    assert "no constructor" in entry["note"]


def test_check_strong_grading_lens_route():
    g = GradingSpec(pres=S1, weights=(1, 2), scale=2)
    report = check_strong_grading(S1, g, {-1, 1, 2})
    assert report["all_certified"]


def test_check_strong_grading_pres_mismatch():
    g = GradingSpec(pres=S1, weights=(1, 1))
    with pytest.raises(ValueError):
        check_strong_grading(S2, g, {1})


# -- serialization -----------------------------------------------------------


def test_resolution_json_round_trip():
    r = bezout_lens_resolution(3, 1)
    back = ResolutionOfIdentity.from_json(r.to_json(), pres=S1)
    assert back.target == r.target
    assert back.pairs == r.pairs
    with pytest.raises(ValueError):
        ResolutionOfIdentity.from_json(r.to_json(), pres=S2)


# -- recorded corpus ---------------------------------------------------------


def test_recorded_certificate_corpus():
    assert replay_certificates() == 51
