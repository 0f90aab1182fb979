"""Truncated representation models: assembly, residuals, sectors, traces."""

import cmath
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpora import replay_representations
from qwp.parsing import parse_expression
from qwp.scalar import PoleError, QScalar
from qwp.star_algebra import (
    W,
    W_STAR,
    AlgebraElement,
    AlgebraPresentation,
    InvalidGeneratorError,
    adjoint,
    make_named_element,
    normalize,
    z,
    z_star,
)
import qwp.representations as representations
from qwp.representations import (
    MAX_CUBE_POINTS,
    FredholmModule,
    RepSpec,
    TruncatedOperator,
    TruncatedSpace,
    _act,
    _admissible,
    _assemble,
    _WalkTables,
    apply_element,
    eigenvalue_distinctness,
    fredholm_trace,
    quotient_consistency,
    relation_residual,
    rep_generator,
    sector_split_check,
)

HALF = Fraction(1, 2)
TOL = 1e-12

S1 = AlgebraPresentation.sphere(1)
S2 = AlgebraPresentation.sphere(2)
S3 = AlgebraPresentation.sphere(3)
SIG1 = AlgebraPresentation.sigma(1)
SIG2 = AlgebraPresentation.sigma(2)


def phase(theta):
    return cmath.exp(2j * cmath.pi * theta)


def dict_matmul(a, b):
    """Sparse dict product for the doubled-space flip operators."""
    by_col = {}
    for (i, k), v in a.items():
        by_col.setdefault(k, []).append((i, v))
    out = {}
    for (k, j), w in b.items():
        for i, v in by_col.get(k, ()):
            out[i, j] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v != 0}


def unit_sum_product(spec, space):
    """Sum over j of op(z_j) @ op(z_j*), assembled from generator matrices."""
    n = space.n
    total = TruncatedOperator(space, {}, 0)
    for j in range(n + 1):
        total = total + rep_generator(spec, z(j), space) @ rep_generator(spec, z_star(j), space)
    return total


# -- truncated spaces --------------------------------------------------------


def test_basis_is_lexicographic_hypercube():
    sp = TruncatedSpace(2, 2)
    assert sp.basis == tuple(product(range(3), repeat=2))
    assert sp.dim == 9
    for j, k in enumerate(sp.basis):
        assert sp.index(k) == j
    assert sp.index((3, 0)) is None


def test_sector_restriction():
    sp = TruncatedSpace(2, 3, sector=(1, 2))
    assert sp.basis
    assert all(sum(k) % 2 == 1 for k in sp.basis)
    assert sp.index((0, 0)) is None
    assert sp.dim == sum(1 for k in product(range(4), repeat=2) if sum(k) % 2 == 1)


def test_interior_indices():
    sp = TruncatedSpace(2, 3)
    assert sp.interior_indices(0) == tuple(range(sp.dim))
    inner = sp.interior_indices(1)
    assert all(max(sp.basis[j]) <= 2 for j in inner)
    assert len(inner) == 9
    assert sp.interior_indices(4) == ()


def test_space_validation():
    with pytest.raises(ValueError):
        TruncatedSpace(0, 3)
    with pytest.raises(ValueError):
        TruncatedSpace(1, -1)
    with pytest.raises(ValueError):
        TruncatedSpace(1, 3, sector=(2, 2))
    with pytest.raises(ValueError):
        TruncatedSpace(1, 3, sector=(0, 0))


def test_cube_point_budget(monkeypatch):
    def no_cube(*args, **kwargs):
        # the budget must be checked before the cube is built or iterated
        raise AssertionError("iterated the cube")

    monkeypatch.setattr("qwp.representations.product", no_cube)
    x = make_named_element("b", {"i": 0, "j": 0}, S3)
    for build in (
        lambda: TruncatedSpace(3, 1000),
        lambda: TruncatedSpace(3, 1000, sector=(0, 2)),
        lambda: TruncatedSpace(19, 1),
        lambda: TruncatedSpace(10**9, 1),
        lambda: FredholmModule(3, 1, HALF, 1000),
        lambda: fredholm_trace(x, 3, 1, HALF, 1000),
    ):
        with pytest.raises(ValueError, match="MAX_CUBE_POINTS"):
            build()
    monkeypatch.undo()
    # a cube of exactly MAX_CUBE_POINTS points passes, and so does any n at cutoff 0
    assert TruncatedSpace(1, MAX_CUBE_POINTS - 1).dim == MAX_CUBE_POINTS
    assert TruncatedSpace(1000, 0).dim == 1


# -- representation specs ----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        RepSpec("unknown", HALF)
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", 0.5)
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", Fraction(0))
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", Fraction(1))
    with pytest.raises(ValueError):
        RepSpec("bar_pi", HALF)
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", HALF, k=1)
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", HALF, sign=-1)
    with pytest.raises(ValueError):
        RepSpec("sigma_pi", HALF, sign=2)
    with pytest.raises(ValueError):
        RepSpec("sphere_pi", HALF, lam=2.0)
    with pytest.raises(ValueError):
        RepSpec("sigma_pi", HALF, lam=(1, 0))


def test_phase_pair_is_exact():
    spec = RepSpec("sigma_pi", HALF, lam=(1, 4))
    assert spec.lam == (1, 4)
    assert abs(spec.lam_power(1) - 1j) < 1e-15
    # (-2) and (+2) reduce to the same residue mod 4: bitwise identical
    assert spec.lam_power(-2) == spec.lam_power(2)
    assert abs(spec.lam_power(-2) + 1) < 1e-15
    assert RepSpec("sigma_pi", HALF, lam=(5, 4)).lam == (1, 4)


def test_string_q0_accepted():
    spec = RepSpec("sphere_pi", "1/3")
    assert spec.q0 == Fraction(1, 3)


# -- operator arithmetic -----------------------------------------------------


def test_operator_arithmetic():
    sp = TruncatedSpace(1, 2)
    ident = TruncatedOperator.identity(sp)
    a = TruncatedOperator(sp, {(0, 1): 2.0 + 0j}, 1)
    assert (a + a).entry(0, 1) == 4.0
    assert (a - a).entries == {}
    assert a.scale(0.5).entry(0, 1) == 1.0
    assert a.scale(0).entries == {}
    assert (a @ ident).entries == a.entries
    assert (a @ a).entries == {}
    assert a.adjoint().entry(1, 0) == 2.0
    assert (ident @ a).shift == 1
    other = TruncatedSpace(1, 3)
    with pytest.raises(ValueError):
        a + TruncatedOperator.identity(other)
    with pytest.raises(ValueError):
        a @ TruncatedOperator.identity(other)


def test_coo_output_sorted():
    sp = TruncatedSpace(1, 2)
    op = TruncatedOperator(sp, {(2, 0): 1j, (0, 1): 2.0 + 0j}, 0)
    coo = op.to_coo()
    assert coo == [[0, 1, 2.0, 0.0], [2, 0, 0.0, 1.0]]
    blob = op.to_json()
    assert blob["dim"] == 3 and blob["shift"] == 0


@pytest.mark.parametrize(
    "spec,n",
    [
        (RepSpec("sphere_pi", HALF, lam=phase(0.3)), 2),
        (RepSpec("sigma_pi", HALF, lam=phase(0.7), sign=-1), 2),
        (RepSpec("bar_pi", HALF, k=1), 2),
        (RepSpec("bar_pi", HALF, k=2), 2),
    ],
)
def test_star_is_matrix_adjoint(spec, n):
    sp = TruncatedSpace(n, 5)
    for i in range(n + 1):
        low = rep_generator(spec, z(i), sp)
        high = rep_generator(spec, z_star(i), sp)
        assert high.entries == low.adjoint().entries


# -- generator matrices: sphere family ---------------------------------------


def test_bottom_annihilation():
    sp = TruncatedSpace(2, 4)
    spec = RepSpec("sphere_pi", HALF)
    op = rep_generator(spec, z(0), sp)
    for (r, c) in op.entries:
        assert sp.basis[c][0] > 0


def test_zn_diagonal_with_phase():
    lam = phase(Fraction(1, 3))
    sp = TruncatedSpace(2, 4)
    spec = RepSpec("sphere_pi", HALF, lam=lam)
    op = rep_generator(spec, z(2), sp)
    j0 = sp.index((0, 0))
    assert abs(op.entry(j0, j0) - lam * 0.25) < 1e-15
    for (r, c), v in op.entries.items():
        assert r == c
        k = sp.basis[c]
        assert abs(v - lam * 0.5 ** (2 + sum(k))) < 1e-15


def test_single_step_sparsity():
    sp = TruncatedSpace(2, 4)
    spec = RepSpec("sphere_pi", HALF)
    for l in range(2):
        low = rep_generator(spec, z(l), sp)
        for (r, c) in low.entries:
            kc, kr = sp.basis[c], sp.basis[r]
            assert kr[l] == kc[l] - 1
            assert all(kr[t] == kc[t] for t in range(2) if t != l)
        high = rep_generator(spec, z_star(l), sp)
        assert high.shift == 1
        for (r, c) in high.entries:
            assert sp.basis[r][l] == sp.basis[c][l] + 1


def test_generator_and_space_validation():
    sp = TruncatedSpace(2, 3)
    spec = RepSpec("sphere_pi", HALF)
    with pytest.raises(InvalidGeneratorError):
        rep_generator(spec, z(5), sp)
    with pytest.raises(InvalidGeneratorError):
        rep_generator(spec, W, sp)
    with pytest.raises(ValueError):
        rep_generator(RepSpec("bar_pi", HALF, k=4), z(0), sp)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_shift_budgets(n):
    """Only a raising z_i* moves a vector up: i < n, or i < k in the bar family."""
    sp = TruncatedSpace(n, 3)
    zs = [z(i) for i in range(n + 1)] + [z_star(i) for i in range(n + 1)]
    families = [
        (RepSpec("sphere_pi", HALF), zs, n),
        (RepSpec("sigma_pi", HALF), zs + [W, W.star()], n),
    ] + [(RepSpec("bar_pi", HALF, k=k), zs, k) for k in range(n + 1)]
    for spec, gens, top in families:
        for g in gens:
            expected = 1 if g.kind == "z*" and g.index < top else 0
            assert rep_generator(spec, g, sp).shift == expected, (spec, g)


def test_zero_coefficient_term_keeps_its_shift():
    # (1 - 2q) vanishes at q0 = 1/2: its term adds no entry but still three raises
    x = parse_expression("(1 - 2q) z0*^3 + z0", S1)
    sp = TruncatedSpace(1, 6)
    spec = RepSpec("sphere_pi", HALF)
    op = apply_element(x, spec, sp)
    assert op.shift == 3
    assert op.entries == apply_element(normalize((z(0),), S1), spec, sp).entries


# -- generator matrices: sigma family ----------------------------------------


def test_sigma_examples():
    lam = 1j
    sp = TruncatedSpace(2, 4)
    spec = RepSpec("sigma_pi", HALF, lam=(1, 4), sign=-1)
    op = rep_generator(spec, z(2), sp)
    j0 = sp.index((0, 0))
    assert abs(op.entry(j0, j0) + lam * 0.25) < 1e-15
    w_op = rep_generator(spec, W, sp)
    for j in range(sp.dim):
        assert abs(w_op.entry(j, j) + 1) < 1e-15  # i^(-2) = -1
    assert len(w_op.entries) == sp.dim
    # the lowering generators ignore phase and sign
    plain = RepSpec("sphere_pi", HALF)
    assert rep_generator(spec, z(0), sp).entries == rep_generator(plain, z(0), sp).entries


# -- generator matrices: bar family ------------------------------------------


def test_bar_top_label_diagonal():
    sp = TruncatedSpace(2, 5)
    spec = RepSpec("bar_pi", HALF, k=2)
    op = rep_generator(spec, z(2), sp)
    ja = sp.index((1, 2))
    assert abs(op.entry(ja, ja) - 0.5**4) < 1e-15  # q^(p_n + n) at p = (1,2)
    jb = sp.index((2, 1))
    assert op.entry(jb, jb) == 0  # fails p_1 <= p_2
    for (r, c) in op.entries:
        assert r == c


def test_bar_vanishes_above_label():
    sp = TruncatedSpace(3, 3)
    spec = RepSpec("bar_pi", HALF, k=1)
    for i in (2, 3):
        assert rep_generator(spec, z(i), sp).entries == {}
        assert rep_generator(spec, z_star(i), sp).entries == {}


def test_bar_unit_is_admissible_projection():
    sp = TruncatedSpace(2, 6)
    one = AlgebraElement.one(S2)
    proj = apply_element(one, RepSpec("bar_pi", HALF, k=0), sp)
    expected = sum(1 for p in sp.basis if p[0] > p[1])
    assert len(proj.entries) == expected
    assert all(r == c and v == 1 for (r, c), v in proj.entries.items())
    full = apply_element(one, RepSpec("bar_pi", HALF, k=1), sp)
    assert len(full.entries) == sp.dim  # both chains vacuous for k=1, n=2


def test_bar_block_step_pattern():
    sp = TruncatedSpace(3, 4)
    spec = RepSpec("bar_pi", HALF, k=2)
    op = rep_generator(spec, z(0), sp)
    assert op.entries
    for (r, c) in op.entries:
        pc, pr = sp.basis[c], sp.basis[r]
        assert pr == (pc[0] - 1, pc[1] - 1, pc[2])


def test_same_parity_supports_disjoint():
    # the chain conditions for labels k and k+2 contradict each other
    for n, k in ((2, 0), (3, 0), (3, 1)):
        cube = tuple(product(range(5), repeat=n))
        both = [p for p in cube if _admissible(p, k) and _admissible(p, k + 2)]
        assert both == []


# -- element assembly --------------------------------------------------------


def test_unit_element_gives_identity():
    sp = TruncatedSpace(2, 4)
    for spec in (RepSpec("sphere_pi", HALF), RepSpec("sigma_pi", HALF)):
        pres = SIG2 if spec.family == "sigma_pi" else S2
        op = apply_element(AlgebraElement.one(pres), spec, sp)
        assert op.entries == TruncatedOperator.identity(sp).entries


def test_unit_relation_on_interior():
    sp = TruncatedSpace(2, 6)
    spec = RepSpec("sphere_pi", HALF, lam=phase(0.3))
    total = unit_sum_product(spec, sp)
    gap = total - TruncatedOperator.identity(sp)
    interior = set(sp.interior_indices(total.shift))
    assert gap.max_abs(columns=interior) <= TOL
    # at the cutoff wall the compressed sum visibly falls short of 1
    assert gap.max_abs() > 1e-3


def test_cl_is_step_by_m():
    sp = TruncatedSpace(2, 6)
    spec = RepSpec("sphere_pi", HALF)
    m = 2
    cl = make_named_element("c", {"l": (1, 1), "m": m}, S2)
    op = apply_element(cl, spec, sp)
    sums = [sum(k) for k in sp.basis]
    assert op.entries
    for (r, c) in op.entries:
        assert sums[c] - sums[r] == m
    # nonzero weight wherever the lowering ladder has room
    for j, k in enumerate(sp.basis):
        if k[0] >= 1 and k[1] >= 1:
            assert any(c == j for (_, c) in op.entries)


def test_pole_propagates():
    bad = AlgebraElement.one(S1) * QScalar(1, (Fraction(-1, 2), 1))
    sp = TruncatedSpace(1, 3)
    with pytest.raises(PoleError):
        apply_element(bad, RepSpec("sphere_pi", HALF), sp)


def test_element_mismatch_errors():
    sp = TruncatedSpace(2, 3)
    with pytest.raises(ValueError):
        apply_element(AlgebraElement.one(SIG2), RepSpec("sphere_pi", HALF), sp)
    with pytest.raises(ValueError):
        apply_element(AlgebraElement.one(S1), RepSpec("sphere_pi", HALF), sp)


_LETTERS = st.integers(min_value=0, max_value=5)


@settings(max_examples=30, deadline=None)
@given(st.lists(_LETTERS, max_size=3), st.lists(_LETTERS, min_size=1, max_size=3))
def test_products_multiply_on_interior(code1, code2):
    # codes 0..5 pick z_0, z_0*, z_1, z_1*, z_2, z_2* on the 2-sphere algebra
    def decode(code):
        i, star = divmod(code, 2)
        return z_star(i) if star else z(i)

    sp = TruncatedSpace(2, 5)
    spec = RepSpec("sphere_pi", HALF, lam=phase(0.3))
    x = normalize(tuple(decode(c) for c in code1), S2)
    y = normalize(tuple(decode(c) for c in code2), S2)
    xy = x * y
    combined = apply_element(xy, spec, sp)
    factored = apply_element(x, spec, sp) @ apply_element(y, spec, sp)
    budget = max(combined.shift, factored.shift)
    interior = set(sp.interior_indices(budget))
    # every word acts with entries of modulus at most 1, so an entry of
    # combined sums terms up to the largest coefficient of x*y at q0 (4096
    # for q^-12 at 1/2, where one ulp is 9.1e-13); the bound scales with it
    size = max([1.0] + [abs(float(c.evaluate(spec.q0))) for c in xy.terms.values()])
    assert (combined - factored).max_abs(columns=interior) <= TOL * size


# -- walk tables against the letter-by-letter action --------------------------


@st.composite
def _walk_cases(draw):
    """A family, space and word of at most 6 letters, with a coefficient."""
    family = draw(st.sampled_from(["sphere_pi", "sigma_pi", "bar_pi"]))
    n = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, 5 if n < 3 else 3))
    m = draw(st.integers(1, 3))
    sector = draw(st.none() | st.integers(0, m - 1).map(lambda s: (s, m)))
    q0 = draw(st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4)]))
    if family == "bar_pi":
        spec = RepSpec(family, q0, k=draw(st.integers(0, n)))
    elif family == "sigma_pi":
        spec = RepSpec(family, q0, lam=(2, 5), sign=draw(st.sampled_from([1, -1])))
    else:
        spec = RepSpec(family, q0, lam=(3, 7))
    letters = [z(i) for i in range(n + 1)] + [z_star(i) for i in range(n + 1)]
    if family == "sigma_pi":
        letters += [W, W_STAR]
    word = tuple(draw(st.lists(st.sampled_from(letters), max_size=6)))
    coeff = draw(st.sampled_from([QScalar(1), QScalar.q(), QScalar(-3)]))
    return spec, TruncatedSpace(n, cutoff, sector), word, coeff


def _letter_by_letter(spec, space, word, val):
    """The entries of val * word assembled through _act, one column at a time."""
    want = {}
    rev = tuple(reversed(word))
    for col, p in enumerate(space.basis):
        if spec.family == "bar_pi" and not _admissible(p, spec.k):
            continue
        hit = _act(spec, rev, p, space.cutoff, val)
        if hit is not None and space.index(hit[1]) is not None:
            want[space.index(hit[1]), col] = 0j + hit[0]
    return want


_SPHERE1 = RepSpec("sphere_pi", HALF)


@settings(max_examples=150, deadline=None)
@given(_walk_cases())
# z0* z0* from |0>, |1> and |2> climbs past cutoff 1; z1 z0 dies at the bottom of the ladder
@example((_SPHERE1, TruncatedSpace(1, 1), (z_star(0), z_star(0)), QScalar(1)))
@example((_SPHERE1, TruncatedSpace(1, 3), (z(1), z(0)), QScalar(1)))
@example((RepSpec("bar_pi", HALF, k=2), TruncatedSpace(2, 2), (z_star(0), z(1)), QScalar.q()))
def test_walk_tables_match_letter_by_letter_action(case):
    spec, space, word, coeff = case
    op = _assemble(_WalkTables(spec, space), [(coeff, word)])
    want = _letter_by_letter(spec, space, word, float(coeff.evaluate(spec.q0)))
    assert op.entries == want
    # the same floats bit for bit, zero signs included, in the same order
    assert repr(list(op.entries.items())) == repr(list(want.items()))


def test_walk_tables_drop_climbs_and_bottom_deaths():
    spec, space = _SPHERE1, TruncatedSpace(1, 1)
    climbed = _assemble(_WalkTables(spec, space), [(QScalar(1), (z_star(0), z_star(0)))])
    assert climbed.entries == {}
    bottom = _assemble(_WalkTables(spec, TruncatedSpace(1, 3)), [(QScalar(1), (z(0),))])
    assert {col for _, col in bottom.entries} == {1, 2, 3}


def test_walk_tables_live_only_for_one_call(monkeypatch):
    calls = []
    single = representations._single_action

    def counting(spec, g, p):
        calls.append(g)
        return single(spec, g, p)

    monkeypatch.setattr(representations, "_single_action", counting)
    args = (S2, RepSpec("sphere_pi", HALF, lam=(3, 7)), TruncatedSpace(2, 4))
    first = relation_residual(*args)
    made = len(calls)
    assert made > 0
    second = relation_residual(*args)
    # the second call builds every table again: nothing is kept between calls
    assert len(calls) == 2 * made
    assert first == second


# -- relation residuals ------------------------------------------------------


@pytest.mark.parametrize("q0", [Fraction(1, 4), HALF, Fraction(3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_relations_hold(n, q0):
    pres = AlgebraPresentation.sphere(n)
    spec = RepSpec("sphere_pi", q0, lam=phase(0.3733))
    out = relation_residual(pres, spec, TruncatedSpace(n, 6 if n < 3 else 4))
    assert out["max_residual"] <= TOL
    assert not out["empty_interior"]


@pytest.mark.parametrize("q0", [Fraction(1, 4), HALF, Fraction(3, 4)])
@pytest.mark.parametrize("n", [1, 2])
def test_sigma_relations_hold(n, q0):
    pres = AlgebraPresentation.sigma(n)
    spec = RepSpec("sigma_pi", q0, lam=(3, 8), sign=-1)
    out = relation_residual(pres, spec, TruncatedSpace(n, 6))
    assert out["max_residual"] <= TOL


@pytest.mark.parametrize("q0", [Fraction(1, 4), HALF, Fraction(3, 4)])
@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (3, 3)])
def test_bar_relations_hold(n, k, q0):
    pres = AlgebraPresentation.sphere(n)
    spec = RepSpec("bar_pi", q0, k=k)
    out = relation_residual(pres, spec, TruncatedSpace(n, 6 if n < 3 else 4))
    assert out["max_residual"] <= TOL


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_relations_hold_for_any_phase(theta):
    spec = RepSpec("sphere_pi", HALF, lam=phase(theta))
    out = relation_residual(S1, spec, TruncatedSpace(1, 6))
    assert out["max_residual"] <= TOL


def test_empty_interior_flagged():
    out = relation_residual(S1, RepSpec("sphere_pi", HALF), TruncatedSpace(1, 0))
    assert out["empty_interior"]
    assert out["max_residual"] == 0.0


def test_residual_mismatch_errors():
    with pytest.raises(ValueError):
        relation_residual(SIG1, RepSpec("sphere_pi", HALF), TruncatedSpace(1, 3))
    with pytest.raises(ValueError):
        relation_residual(S2, RepSpec("sphere_pi", HALF), TruncatedSpace(1, 3))


# -- sector splitting --------------------------------------------------------


def test_single_sector_trivial():
    out = sector_split_check(RepSpec("sphere_pi", HALF), 1, TruncatedSpace(2, 4))
    assert out["all_invariant"]
    assert out["control_z0"]["invariant"]


def test_sector_block_diagonality():
    out = sector_split_check(RepSpec("sphere_pi", HALF), 2, TruncatedSpace(2, 6))
    assert out["all_invariant"]
    for label in ("b[0,1]", "c[2,0]", "c[1,1]", "c[0,2]", "z2"):
        assert out["generators"][label]["invariant"]
    assert not out["control_z0"]["invariant"]
    assert out["control_z0"]["off_sector_entries"] > 0


def test_sector_sigma_family():
    spec = RepSpec("sigma_pi", HALF, lam=(1, 6), sign=-1)
    out = sector_split_check(spec, 2, TruncatedSpace(2, 5))
    assert out["all_invariant"]
    assert "w" in out["generators"]
    assert any(label.startswith("d[") for label in out["generators"])


def test_sector_check_validation():
    with pytest.raises(ValueError):
        sector_split_check(RepSpec("bar_pi", HALF, k=0), 2, TruncatedSpace(2, 3))
    with pytest.raises(ValueError):
        sector_split_check(RepSpec("sphere_pi", HALF), 0, TruncatedSpace(2, 3))
    with pytest.raises(ValueError):
        sector_split_check(RepSpec("sphere_pi", HALF), 2, TruncatedSpace(2, 3, sector=(0, 2)))


# -- eigenvalue distinctness -------------------------------------------------


def test_distinctness_small_cases():
    assert eigenvalue_distinctness(2, 1, HALF, TruncatedSpace(1, 8))["distinct"]
    out = eigenvalue_distinctness(3, 2, HALF, TruncatedSpace(2, 6))
    assert out["distinct"]
    assert out["index_collisions"] == 0 and out["value_collisions"] == 0


def test_distinctness_on_sector_basis():
    out = eigenvalue_distinctness(2, 2, HALF, TruncatedSpace(2, 6, sector=(1, 2)))
    assert out["distinct"]


def test_exact_diagonal_matches_operator():
    # the closed form behind the report must agree with brute-force assembly
    n, m = 2, 2
    sp = TruncatedSpace(n, 8)
    spec = RepSpec("sphere_pi", HALF)
    q2 = HALF * HALF
    for i in range(n):
        ci = make_named_element("c_index", {"i": i, "m": m}, S2)
        op = apply_element(ci * adjoint(ci), spec, sp)
        interior = set(op.interior_columns())
        assert interior
        for j, k in enumerate(sp.basis):
            if j not in interior:
                continue
            val = q2 ** (n + sum(k) + m) * q2 ** (m * (i + sum(k[:i])))
            for t in range(1, m + 1):
                val *= 1 - q2 ** (k[i] + t)
            assert abs(op.entry(j, j) - float(val)) <= TOL
            for r in range(sp.dim):
                if r != j:
                    assert op.entry(r, j) == 0


def test_classical_point_collides():
    out = eigenvalue_distinctness(2, 2, Fraction(1), TruncatedSpace(2, 4))
    assert not out["distinct"]
    assert out["index_collisions"] > 0
    assert out["value_collisions"] > 0
    assert out["index_examples"] and out["value_examples"]


def test_distinctness_validation():
    with pytest.raises(ValueError):
        eigenvalue_distinctness(2, 2, 0.5, TruncatedSpace(2, 4))
    with pytest.raises(ValueError):
        eigenvalue_distinctness(2, 2, Fraction(3, 2), TruncatedSpace(2, 4))
    with pytest.raises(ValueError):
        eigenvalue_distinctness(2, 1, HALF, TruncatedSpace(2, 4))


# -- Fredholm module ---------------------------------------------------------


def test_flip_and_grading_identities():
    mod = FredholmModule(1, 1, HALF, 3)
    d = 2 * mod.space.dim
    f, g = mod.F(), mod.gamma()
    ident = {(j, j): 1 for j in range(d)}
    assert dict_matmul(f, f) == ident
    assert dict_matmul(g, g) == ident
    fg = dict_matmul(f, g)
    gf = dict_matmul(g, f)
    assert {k: -v for k, v in gf.items()} == fg


@pytest.mark.parametrize("n,m,l", [(1, 1, (1,)), (2, 2, (1, 1)), (2, 3, (0, 3))])
def test_difference_collapses_to_top_label(n, m, l):
    pres = AlgebraPresentation.sphere(n)
    cl = make_named_element("c", {"l": l, "m": m}, pres)
    mod = FredholmModule(n, m, HALF, 5)
    diff = mod.difference(cl)
    top = apply_element(cl, RepSpec("bar_pi", HALF, k=n), mod.space)
    assert (diff - top.scale((-1) ** n)).max_abs() == 0.0


def test_cl_partial_traces_vanish():
    # a strict step in the last coordinate leaves nothing on the diagonal
    for n, m, l in ((1, 1, (1,)), (2, 2, (2, 0))):
        pres = AlgebraPresentation.sphere(n)
        cl = make_named_element("c", {"l": l, "m": m}, pres)
        for cutoff in (3, 6):
            out = fredholm_trace(cl, n, m, HALF, cutoff)
            assert out["partial_trace"] == 0.0
            assert abs(out["partial_trace"]) <= out["tail_bound"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_b00_traces_cauchy(n):
    pres = AlgebraPresentation.sphere(n)
    b00 = make_named_element("b", {"i": 0, "j": 0}, pres)
    cuts = (2, 4, 6, 8)
    traces = {K: fredholm_trace(b00, n, 1, HALF, K) for K in cuts}
    for a, b in zip(cuts, cuts[1:]):
        gap = abs(traces[b]["partial_trace"] - traces[a]["partial_trace"])
        assert gap <= traces[a]["tail_bound"]


def test_lazy_trace_matches_assembled():
    n, m = 2, 2
    b01 = make_named_element("b", {"i": 0, "j": 1}, S2)
    mod = FredholmModule(n, m, HALF, 5)
    lazy = fredholm_trace(b01, n, m, HALF, 5)["partial_trace"]
    assert abs(lazy - mod.trace_difference(b01)) <= TOL


def test_bound_series_identity():
    out = fredholm_trace(make_named_element("b", {"i": 0, "j": 0}, S2), 2, 1, HALF, 8)
    assert out["series_closed_form"] == 4.0
    assert out["series_partial"] < 4.0
    assert 0 <= out["series_gap"] <= out["tail_bound"]
    longer = fredholm_trace(make_named_element("b", {"i": 0, "j": 0}, S2), 2, 1, HALF, 12)
    assert out["series_partial"] < longer["series_partial"] < 4.0


def test_bound_series_is_the_direct_partial_sum():
    for n in (1, 2, 3):
        b00 = make_named_element("b", {"i": 0, "j": 0}, AlgebraPresentation.sphere(n))
        for q0 in (Fraction(1, 4), HALF, Fraction(3, 4), Fraction(2, 7)):
            closed = 1 / (1 - q0) ** n
            for cutoff in (0, 1, 2, 5, 9):
                direct = sum(math.comb(r + n - 1, n - 1) * q0**r for r in range(cutoff + 1))
                out = fredholm_trace(b00, n, 1, q0, cutoff)
                assert out["series_partial"] == float(direct), (n, q0, cutoff)
                assert out["series_gap"] == float(closed - direct), (n, q0, cutoff)


def test_fredholm_validation():
    z0 = normalize(z(0), S2)
    with pytest.raises(ValueError):
        fredholm_trace(z0, 2, 1, HALF, 4)
    with pytest.raises(ValueError):
        fredholm_trace(AlgebraElement.one(S1), 2, 1, HALF, 4)
    with pytest.raises(ValueError):
        fredholm_trace(AlgebraElement.one(S2), 2, 1, 0.5, 4)
    mod = FredholmModule(2, 1, HALF, 3)
    with pytest.raises(ValueError):
        mod.pi_plus(z0)
    with pytest.raises(ValueError):
        FredholmModule(2, 1, HALF, -1)


# -- quotient consistency ----------------------------------------------------


def test_quotient_sphere_family():
    out = quotient_consistency(RepSpec("sphere_pi", HALF), TruncatedSpace(2, 5), m=2)
    assert out["all_passed"]
    kinds = {c["element"]: c["kind"] for c in out["checks"]}
    assert kinds["b[0,1]"] == "unchanged"
    assert kinds["c[1,1]"] == "annihilated"
    assert kinds["c_tilde[2,0]"] == "step_by_m"


def test_quotient_sigma_family():
    spec = RepSpec("sigma_pi", HALF, lam=(1, 4), sign=-1)
    out = quotient_consistency(spec, TruncatedSpace(2, 5), m=2)
    assert out["all_passed"]
    d_checks = [c for c in out["checks"] if c["kind"] == "step_by_2m"]
    assert d_checks
    assert all(c["passed"] for c in d_checks)


def test_quotient_validation():
    with pytest.raises(ValueError):
        quotient_consistency(RepSpec("bar_pi", HALF, k=0), TruncatedSpace(2, 3))
    with pytest.raises(ValueError):
        quotient_consistency(RepSpec("sphere_pi", HALF), TruncatedSpace(2, 3), m=0)


# -- gauge independence ------------------------------------------------------


def test_phase_gauge_invariance():
    sp = TruncatedSpace(2, 5)
    base = RepSpec("sphere_pi", HALF)
    other = RepSpec("sphere_pi", HALF, lam=phase(Fraction(3, 7)))
    b00 = make_named_element("b", {"i": 0, "j": 0}, S2)
    assert apply_element(b00, base, sp).entries == apply_element(b00, other, sp).entries
    cl = make_named_element("c", {"l": (1, 0), "m": 1}, S2)
    op_a = apply_element(cl, base, sp)
    op_b = apply_element(cl, other, sp)
    assert set(op_a.entries) == set(op_b.entries)
    for key, v in op_a.entries.items():
        assert abs(abs(v) - abs(op_b.entries[key])) <= TOL
    assert any(abs(v.imag) > 1e-3 for v in op_b.entries.values())


def test_zn_spectrum_modulus_phase_free():
    sp = TruncatedSpace(1, 6)
    diag_a = rep_generator(RepSpec("sphere_pi", HALF), z(1), sp).diagonal()
    diag_b = rep_generator(RepSpec("sphere_pi", HALF, lam=phase(0.123)), z(1), sp).diagonal()
    for a, b in zip(diag_a, diag_b):
        assert abs(abs(a) - abs(b)) <= TOL


def test_recorded_representation_corpus():
    assert replay_representations() == 136
