"""Rewriting engine: relation soundness, normal forms, involution, named elements."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import replay_normal_forms
from qwp import star_algebra
from qwp.scalar import QScalar
from qwp.star_algebra import (
    MAX_PRESENTATION_N,
    AlgebraElement,
    AlgebraPresentation,
    Generator,
    InvalidGeneratorError,
    Monomial,
    ParameterError,
    W,
    W_STAR,
    adjoint,
    defining_relations,
    make_named_element,
    _rules,
    normalize,
    unresolved_overlaps,
    z,
    z_star,
)

q = QScalar.q()

S1 = AlgebraPresentation.sphere(1)
S2 = AlgebraPresentation.sphere(2)
S3 = AlgebraPresentation.sphere(3)
SIG1 = AlgebraPresentation.sigma(1)
SIG2 = AlgebraPresentation.sigma(2)

ALL_PRES = [S1, S2, S3, SIG1, SIG2, AlgebraPresentation.sigma(3)]


def gens_for(pres):
    out = [z(i) for i in range(pres.n + 1)] + [z_star(i) for i in range(pres.n + 1)]
    if pres.kind == "sigma":
        out += [W, W_STAR]
    return out


def random_word(pres, rng, max_len=8):
    alphabet = gens_for(pres)
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def test_presentation_size_budget():
    assert MAX_PRESENTATION_N == 100
    for kind in ("sphere", "sigma"):
        assert AlgebraPresentation(kind, MAX_PRESENTATION_N).n == MAX_PRESENTATION_N
        with pytest.raises(ValueError, match="MAX_PRESENTATION_N"):
            AlgebraPresentation(kind, MAX_PRESENTATION_N + 1)


# -- relation examples -----------------------------------------------------------


def test_z1_z0_commutation():
    el = normalize((z(1), z(0)), S1)
    assert el.terms == {Monomial((1, 1), (0, 0), 0): q ** -1}


def test_unit_relation_collapses():
    for pres in (S1, S2, S3):
        terms = [(QScalar.one(), (z(j), z_star(j))) for j in range(pres.n + 1)]
        assert normalize(terms, pres) == AlgebraElement.one(pres)


def test_z1star_z1_n1():
    el = normalize((z_star(1), z(1)), S1)
    expected = AlgebraElement.one(S1) - normalize((z(0), z_star(0)), S1)
    assert el == expected


def test_product_formula_N2():
    a = make_named_element("a", {}, S2)
    one = AlgebraElement.one(S2)
    lhs = normalize([z(0)] * 2 + [z_star(0)] * 2, S2)
    rhs = (one - a) * (one - (q ** 2) * a)
    assert lhs == rhs


def test_relations_normalize_to_zero():
    for pres in ALL_PRES:
        for name, lhs, rhs in defining_relations(pres):
            diff = normalize(lhs, pres) - normalize(rhs, pres)
            assert diff.is_zero(), f"{pres}: relation {name} broken: {diff}"


def test_w_in_sphere_rejected():
    with pytest.raises(InvalidGeneratorError):
        normalize((W,), S1)
    with pytest.raises(InvalidGeneratorError):
        normalize((z(0), W_STAR), S2)


def test_index_out_of_range_rejected():
    with pytest.raises(InvalidGeneratorError):
        normalize((z(5),), S1)


# -- normal form -------------------------------------------------------------


def test_sphere_normal_form_shape():
    rng = random.Random(7)
    for _ in range(150):
        pres = rng.choice([S1, S2, S3])
        el = normalize(random_word(pres, rng), pres)
        for mon in el.terms:
            assert mon.s == 0
            assert min(mon.a[pres.n], mon.b[pres.n]) == 0


def test_sigma_normal_form_shape():
    rng = random.Random(8)
    for _ in range(150):
        pres = rng.choice([SIG1, SIG2])
        el = normalize(random_word(pres, rng), pres)
        for mon in el.terms:
            assert mon.b[pres.n] == 0
            assert mon.a[pres.n] in (0, 1)


def test_normalize_idempotent_on_results():
    rng = random.Random(9)
    for _ in range(60):
        pres = rng.choice(ALL_PRES)
        el = normalize(random_word(pres, rng), pres)
        assert normalize(el, pres) == el


def test_strategy_independence_sample():
    rng = random.Random(10)
    for trial in range(200):
        pres = rng.choice(ALL_PRES)
        word = random_word(pres, rng, max_len=9)
        left = normalize(word, pres, strategy="leftmost")
        rand = normalize(word, pres, strategy="random", rng=random.Random(trial))
        assert left == rand, f"strategies disagree on {word}"


def test_recorded_normal_form_corpus():
    assert replay_normal_forms() == 322


@pytest.mark.parametrize(
    "k, digest",
    [
        (16, "e28d246369ce4364daba73bd9ecbd65990e6cb71d591ff99e578fc96af294150"),
        (20, "df5db161dde91eb0583aa557a73f398ce96939296cf4f8ca932ad4c286ab5d0b"),
    ],
)
def test_wide_packed_normal_forms_keep_their_digest(k, digest):
    # the packed coefficients of these two are wider than 64 bits (72 and 96),
    # so their roots decode by slicing, not through a memoryview format
    nf = normalize([z_star(0)] * k + [z(0)] * k, S2)
    assert hashlib.sha256(str(nf).encode()).hexdigest() == digest


def test_each_branch_site_is_combined_once_at_one_width(monkeypatch):
    calls = []  # per _rewrite call: (bits, id of the edge list) of each combine
    combine = star_algebra._combine
    rewrite = star_algebra._rewrite

    def recording_combine(out, memo, bits):
        calls[-1].append((bits, id(out)))
        return combine(out, memo, bits)

    def recording_rewrite(*args, **kwargs):
        calls.append([])
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(star_algebra, "_combine", recording_combine)
    monkeypatch.setattr(star_algebra, "_rewrite", recording_rewrite)
    replay_normal_forms()
    assert len(calls) == 2 * 322 and any(calls)
    for combined in calls:
        assert len({bits for bits, _ in combined}) <= 1
        # every edge list lives until its call ends, so equal ids mean one list
        assert len({out for _, out in combined}) == len(combined)
    # Every corpus word still decodes right at 8 bits narrower than its bound
    # asks for, and even at a fixed 8 bits, so the corpus alone cannot show a
    # width that is too small.  This word peaks at |coefficient| 504, which
    # needs more than 8 bits; its digest is that of its normal form under the
    # kernel that evaluated the DAG twice.
    calls.clear()
    nf = normalize([z_star(0)] * 12 + [z(0)] * 12, S1)
    assert calls[0] and all(bits > 8 for bits, _ in calls[0])
    want = "271a19791ffbfa01da0af60b105ba34ac7e28f27bf1bccca427fff04308070b9"
    assert hashlib.sha256(str(nf).encode()).hexdigest() == want


def test_a_cancelled_coefficient_decodes_to_zero():
    mon = Monomial((1, 0), (0, 0), 0)
    memo = {"A": {mon: 5}, "B": {mon: 5}}
    assert star_algebra._combine([(0, (1,), "A"), (0, (-1,), "B")], memo, 8) == {mon: 0}
    zero = star_algebra._decode(0, 8, 3)
    assert zero == QScalar(0) and zero.num == ()


PACKED_WIDTHS = (8, 16, 32, 64, 72)  # 72 has no memoryview format and decodes by slicing


@st.composite
def packed_polynomials(draw):
    """(bits, c, k): c in Z[t] with every |c[j]| < 2^(bits-1) and c[-1] != 0."""
    bits = draw(st.sampled_from(PACKED_WIDTHS))
    top = 2 ** (bits - 1) - 1
    digit = st.one_of(st.just(0), st.sampled_from((top, -top, 1, -1)), st.integers(-top, top))
    low = [0] * draw(st.integers(0, 4))
    body = draw(st.lists(digit, max_size=10))
    lead = draw(st.one_of(st.sampled_from((top, -top, -1)), st.integers(-top, top).filter(bool)))
    return bits, tuple(low + body + [lead]), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(packed_polynomials())
def test_packed_coefficients_round_trip(case):
    bits, c, k = case
    packed = star_algebra._pack(c, bits)
    assert packed == sum(cj << (bits * j) for j, cj in enumerate(c))
    got = star_algebra._decode(packed, bits, k)
    # t^k sum_j c[j] t^j, t = q^-1: c read from the top down over q^(k + deg c)
    v = next(j for j, cj in enumerate(c) if cj)
    assert got.num == c[v:][::-1], (bits, c)
    assert got.den == (0,) * (k + len(c) - 1) + (1,), (bits, c)


def _normal_monomial(pres, word):
    """The documented normal-form shape, read off a z/z* word directly."""
    kinds = [g.kind for g in word]
    a = [g.index for g in word if g.kind == "z"]
    b = [g.index for g in word if g.kind == "z*"]
    n = pres.n
    shape = kinds == sorted(kinds) and a == sorted(a) and b == sorted(b, reverse=True)
    if pres.kind == "sphere":
        return shape and min(a.count(n), b.count(n)) == 0
    return shape and a.count(n) <= 1


@pytest.mark.parametrize("pres", ALL_PRES, ids=lambda p: f"{p.kind}{p.n}")
def test_rule_table_keys_are_the_reducible_pairs(pres):
    # z_n* never reaches the engine in sigma: _ingest rewrites it as w z_n
    top = pres.n + (pres.kind == "sphere")
    letters = [z(i) for i in range(pres.n + 1)] + [z_star(i) for i in range(top)]
    rules = _rules(pres)
    assert set(rules) <= set(product(letters, repeat=2))
    for pair in product(letters, repeat=2):
        assert (pair in rules) == (not _normal_monomial(pres, pair)), pair


@pytest.mark.parametrize("kind", ["sphere", "sigma"])
def test_every_overlap_resolves(kind):
    for n in range(1, 6):
        checked, unresolved = unresolved_overlaps(AlgebraPresentation(kind, n))
        assert checked > 0 and unresolved == [], f"{kind}({n})"


def test_overlap_check_finds_a_broken_rule(monkeypatch):
    # drop the last correction term of z_1* z_1 in sphere(3): a wrong right-hand side
    rules = _rules(S3)
    broken = {**rules, (z_star(1), z(1)): rules[z_star(1), z(1)][:-1]}
    monkeypatch.setattr(star_algebra, "_rules", lambda pres: broken)
    star_algebra._compiled.cache_clear()
    try:
        assert unresolved_overlaps(S3)[1]
    finally:
        star_algebra._compiled.cache_clear()


def test_t_polynomials_become_canonical_scalars():
    rng = random.Random(13)
    cases = [(1,), (-4,), (0, 0, 7), (0, 1, 0, -1), (2, 0, 0, 0, 0, 3)]
    for _ in range(60):
        c = [rng.randint(-9, 9) for _ in range(rng.randrange(1, 9))]
        c[-1] = c[-1] or 1
        if rng.random() < 0.5:
            v = rng.randrange(len(c))
            c[:v] = [0] * v
        cases.append(tuple(c))
    for c in cases:
        for k in (0, 1, 3):
            want = sum((cj * QScalar.q(-j - k) for j, cj in enumerate(c)), QScalar.zero())
            got = star_algebra._decode(star_algebra._pack(c, 32), 32, k)
            assert (got.num, got.den) == (want.num, want.den), (c, k)


@pytest.mark.parametrize("pres", [S2, SIG2], ids=lambda p: f"{p.kind}{p.n}")
def test_root_coefficients_scale_the_normal_form(pres):
    rng = random.Random(14)
    coeffs = [1 / (1 - q**2), (q + 2) / 3, QScalar(Fraction(-5, 7)) * q**-3]
    for trial in range(12):
        word = random_word(pres, rng, max_len=8)
        while len(word) < 6:
            word = random_word(pres, rng, max_len=8)
        for strategy in ("leftmost", "random"):
            nf = normalize(word, pres, strategy=strategy, rng=random.Random(trial))
            for c in coeffs:
                got = normalize([(c, word)], pres, strategy=strategy, rng=random.Random(trial))
                assert got == nf.scale(c), (word, strategy, c)


def test_cancelling_terms_meet_before_rewriting(monkeypatch):
    chased = []
    chase = star_algebra._chase

    def recording_chase(table, width, word, s):
        chased.append(len(word))
        return chase(table, width, word, s)

    one = QScalar.one()
    left = normalize([(one, (z(0),)), (one, (z(0), z(0)))], S1)
    right = normalize([(one, (z(0), z(0))), (-one, (z(0),))], S1)
    monkeypatch.setattr(star_algebra, "_chase", recording_chase)
    got = left * right
    # z0 z0^2 and z0^2 (-z0) share one word, and its two terms cancel before any chase
    assert sorted(chased) == [2, 4]
    assert got == normalize([(one, (z(0),) * 4), (-one, (z(0),) * 2)], S1)


@pytest.mark.parametrize("strategy", ["leftmost", "random"])
def test_opposite_terms_normalize_to_zero(strategy):
    rng = random.Random(15)
    for trial in range(40):
        pres = rng.choice(ALL_PRES)
        word = random_word(pres, rng)
        c = QScalar(Fraction(rng.randint(1, 9), rng.randint(1, 9))) * q ** rng.randint(-3, 3)
        out = normalize([(c, word), (-c, word)], pres, strategy=strategy, rng=random.Random(trial))
        assert out.is_zero(), word


def test_sigma_zstar_n_elimination():
    el = normalize((z_star(1),), SIG1)
    assert el.terms == {Monomial((0, 1), (0, 0), 1): QScalar.one()}


def test_sigma_zn_squared():
    el = normalize((z(1), z(1)), SIG1)
    one_mon = Monomial((0, 0), (0, 0), -1)
    b0_mon = Monomial((1, 0), (1, 0), -1)
    assert el.terms == {one_mon: QScalar.one(), b0_mon: -QScalar.one()}


def test_sigma_w_unitary():
    assert normalize((W, W_STAR), SIG2) == AlgebraElement.one(SIG2)
    assert normalize((W_STAR, W), SIG2) == AlgebraElement.one(SIG2)


# -- involution --------------------------------------------------------------


def test_adjoint_examples():
    assert adjoint(normalize((z(0),), S1)).terms == {
        Monomial((0, 0), (1, 0), 0): QScalar.one()
    }
    x = normalize((z(1), z_star(0)), S1).scale(q)
    expected = normalize((z(0), z_star(1)), S1).scale(q)
    assert adjoint(x) == expected
    one = AlgebraElement.one(S2)
    assert adjoint(one) == one


def test_adjoint_involution_and_antihom():
    rng = random.Random(11)
    for _ in range(40):
        pres = rng.choice(ALL_PRES)
        x = normalize(random_word(pres, rng, 5), pres)
        y = normalize(random_word(pres, rng, 5), pres)
        assert adjoint(adjoint(x)) == x
        assert adjoint(x * y) == adjoint(y) * adjoint(x)


# -- named elements ----------------------------------------------------------


def test_named_a():
    el = make_named_element("a", {}, S1)
    assert el == normalize((z(1), z_star(1)), S1)


def test_named_c_teardrop():
    el = make_named_element("c", {"l": (3,), "m": 3}, S1)
    assert el == normalize([z(0)] * 3 + [z_star(1)], S1)


def test_named_b_unit_identity():
    b00 = make_named_element("b", {"i": 0, "j": 0}, S2)
    a = make_named_element("a", {}, S2)
    assert b00 == AlgebraElement.one(S2) - a


def test_named_parameter_errors():
    with pytest.raises(ParameterError):
        make_named_element("c", {"l": (1, 0), "m": 3}, S2)
    with pytest.raises(ParameterError):
        make_named_element("d", {"p": (2, 0), "m": 1}, S2)  # sphere, not sigma
    with pytest.raises(ParameterError):
        make_named_element("d", {"p": (1, 0), "m": 1}, SIG2)  # sum != 2m
    with pytest.raises(ParameterError):
        make_named_element("nope", {}, S1)


def test_named_d_sigma():
    el = make_named_element("d", {"p": (2, 0), "m": 1}, SIG2)
    assert el.terms == {Monomial((2, 0, 0), (0, 0, 0), 1): QScalar.one()}


def test_named_exponent_families_build_their_monomials():
    cases = [
        ("c", {"l": (1, 2), "m": 3}, S2, Monomial((1, 2, 0), (0, 0, 1), 0)),
        ("c_tilde", {"l": (1, 2), "m": 3}, S2, Monomial((1, 2, 0), (0, 0, 0), 0)),
        ("d", {"p": (1, 1), "m": 1}, SIG2, Monomial((1, 1, 0), (0, 0, 0), 1)),
        # in sigma z_n* is w z_n
        ("c", {"l": (0, 1), "m": 1}, SIG2, Monomial((0, 1, 1), (0, 0, 0), 1)),
    ]
    for name, params, pres, mon in cases:
        assert make_named_element(name, params, pres).terms == {mon: QScalar.one()}


@pytest.mark.parametrize(
    "name, params, pres, message",
    [
        ("c", {"l": (1,), "m": 1}, S2, "c exponent vector must have length n = 2"),
        ("c", {"l": (2, -1), "m": 1}, S2, "c exponents must be nonnegative"),
        ("c", {"l": (1, 0), "m": 3}, S2, "sum(l) = 1 must equal m = 3"),
        ("c_tilde", {"l": (1, 0, 0), "m": 1}, S2, "c exponent vector must have length n = 2"),
        ("c_tilde", {"l": (-1, 2), "m": 1}, S2, "c exponents must be nonnegative"),
        ("c_tilde", {"l": (1, 1), "m": 1}, SIG2, "sum(l) = 2 must equal m = 1"),
        ("d", {"p": (2, 0), "m": 1}, S2, "d elements live in sigma presentations"),
        # outside sigma d is refused before its vector is checked
        ("d", {"p": (1,), "m": 5}, S2, "d elements live in sigma presentations"),
        ("d", {"p": (2,), "m": 1}, SIG2, "d exponent vector must have length n = 2"),
        ("d", {"p": (3, -1), "m": 1}, SIG2, "d exponents must be nonnegative"),
        ("d", {"p": (1, 0), "m": 1}, SIG2, "sum(p) = 1 must equal 2m = 2"),
    ],
)
def test_named_exponent_family_messages(name, params, pres, message):
    with pytest.raises(ParameterError) as err:
        make_named_element(name, params, pres)
    assert str(err.value) == message


def test_diagonal_elements_commute():
    for pres in (S2, SIG2):
        bs = [make_named_element("b", {"i": i}, pres) for i in range(pres.n + 1)]
        for x in bs:
            for y in bs:
                assert (x * y - y * x).is_zero()


# -- element algebra ---------------------------------------------------------


def test_mixed_presentations_rejected():
    with pytest.raises(ValueError):
        AlgebraElement.one(S1) + AlgebraElement.one(S2)


words_s2 = st.lists(
    st.sampled_from(gens_for(S2)), min_size=0, max_size=5
).map(tuple)


@settings(max_examples=40, deadline=None)
@given(words_s2, words_s2)
def test_normalize_is_multiplicative(w1, w2):
    x, y = normalize(w1, S2), normalize(w2, S2)
    assert normalize(w1 + w2, S2) == x * y


def test_serialization_round_trip():
    rng = random.Random(12)
    for _ in range(20):
        pres = rng.choice(ALL_PRES)
        el = normalize(random_word(pres, rng), pres)
        assert AlgebraElement.from_json(el.to_json()) == el


def test_generator_str():
    assert str(z(0)) == "z0"
    assert str(z_star(2)) == "z2*"
    assert str(W) == "w"
    assert str(Generator("w*", -1)) == "w*"
