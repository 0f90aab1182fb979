"""Smith normal form, invariant factors, lens K-groups, and teardrop candidates."""

import json
import math
import random
import time
from itertools import combinations, product
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from qwp.ktheory import (
    FGAbelianGroup,
    MAX_TEARDROP_SIZE,
    IntMatrix,
    LensDescriptor,
    SixTermInput,
    _factors_modulo_minor,
    _invariant_factors,
    determinantal_invariants,
    gysin_matrix,
    lens_k_groups,
    phi_matrix,
    real_teardrop_k,
    six_term_k_groups,
    smith_normal_form,
    teardrop_k_groups,
)

Z = FGAbelianGroup(1)
ZERO = FGAbelianGroup(0)


def G(rank, *torsion):
    return FGAbelianGroup.from_parts(rank, torsion)


def submatrix(A, rows, cols):
    return IntMatrix.from_rows(
        [[A.entries[i][j] for j in cols] for i in rows]
    )


def minor_gcd(A, size):
    """gcd of all nonzero size x size minors, by direct enumeration."""
    vals = [
        abs(submatrix(A, rows, cols).det())
        for rows in combinations(range(A.rows), size)
        for cols in combinations(range(A.cols), size)
    ]
    return math.gcd(*(v for v in vals if v)) if any(vals) else 0


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


int_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(int_entries, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(IntMatrix.from_rows)
        )
    )


# -- IntMatrix ----------------------------------------------------------------


def test_matrix_constructors():
    assert IntMatrix.identity(2).entries == ((1, 0), (0, 1))
    assert IntMatrix.zero(2, 3).entries == ((0, 0, 0), (0, 0, 0))
    assert IntMatrix.from_rows([]).rows == 0
    assert IntMatrix.zero(3, 0).cols == 0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1, 2), (3, 4)))


def test_matrix_product_and_transpose():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).entries == ((2, 1), (4, 3))
    assert a.transpose().entries == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        a @ IntMatrix.zero(3, 3)


def test_matrix_det():
    assert IntMatrix.from_rows([[3, 1, -4], [2, -3, 1], [-2, 0, 5]]).det() == -33
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix.identity(0).det() == 1
    with pytest.raises(ValueError):
        IntMatrix.zero(2, 3).det()
    # the pivot search swaps rows and columns; each swap flips the sign
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
    assert IntMatrix.from_rows([[0, 2], [3, 0]]).det() == -6
    assert IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]]).det() == 0


@given(matrices(4))
@settings(max_examples=40, deadline=None)
def test_matrix_det_matches_sympy(m):
    if m.rows == m.cols:
        assert m.det() == sympy.Matrix(m.to_json()).det()


# -- FGAbelianGroup -----------------------------------------------------------


def test_group_canonical_validation():
    with pytest.raises(ValueError):
        FGAbelianGroup(-1)
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        FGAbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        FGAbelianGroup.from_parts(0, (0,))


def test_group_from_parts_canonicalizes():
    assert G(0, 4, 2, 6) == FGAbelianGroup(0, (2, 2, 12))
    assert G(2, 1, 1) == FGAbelianGroup(2)
    assert G(0, 2, 3) == FGAbelianGroup(0, (6,))
    assert G(1, 2, 4) == FGAbelianGroup(1, (2, 4))


def test_group_str_and_json():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(G(3, 2, 6)) == "Z^3 + Z_2 + Z_6"
    assert G(1, 4).to_json() == {"rank": 1, "torsion": [4]}


@given(
    st.integers(0, 3),
    st.lists(st.integers(1, 30), max_size=4),
    st.lists(st.integers(1, 30), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_direct_sum_commutes_and_canonicalizes(r, ta, tb):
    a, b = G(r, *ta), G(0, *tb)
    assert a.direct_sum(b) == b.direct_sum(a)
    s = a.direct_sum(b)
    assert G(s.rank, *s.invariant_factors) == s


# -- Smith normal form ---------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))[
        "invariant_factors"
    ] == (1, 6)
    zero = smith_normal_form(IntMatrix.zero(3, 2))
    assert zero["S"] == IntMatrix.zero(3, 2)
    assert zero["invariant_factors"] == ()
    assert smith_normal_form(IntMatrix.identity(4))["invariant_factors"] == (
        1,
        1,
        1,
        1,
    )


def check_snf(m):
    out = smith_normal_form(m)
    u, s, v = out["U"], out["S"], out["V"]
    assert u @ m @ v == s
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [s.entries[i][i] for i in range(min(m.rows, m.cols))]
    assert all(
        s.entries[i][j] == 0
        for i in range(m.rows)
        for j in range(m.cols)
        if i != j
    )
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert tuple(nonzero) == out["invariant_factors"]
    return out


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_snf_properties(m):
    out = check_snf(m)
    expected = sympy_snf(sympy.Matrix(m.to_json()))
    dim = min(m.rows, m.cols)
    sympy_factors = tuple(
        abs(expected[i, i]) for i in range(dim) if expected[i, i]
    )
    assert out["invariant_factors"] == sympy_factors
    assert _invariant_factors(m) == out["invariant_factors"]


@given(matrices(4))
@settings(max_examples=40, deadline=None)
def test_snf_preserves_det_magnitude(m):
    if m.rows == m.cols and m.det() != 0:
        factors = smith_normal_form(m)["invariant_factors"]
        assert math.prod(factors) == abs(m.det())


# -- phi matrix ----------------------------------------------------------------


def test_phi_pinned_4x4():
    M = phi_matrix(LensDescriptor(2, (1, 1)))
    cols = [tuple(M.entries[r][c] for r in range(4)) for c in range(4)]
    assert cols == [
        (-1, 1, 0, 0),
        (1, -1, 0, 0),
        (0, 1, -1, 1),
        (1, 0, 1, -1),
    ]


def test_phi_mod_one_is_strict_triangle():
    M = phi_matrix(LensDescriptor(1, (0, 0, 0)))
    assert M.entries == ((0, 1, 1), (0, 0, 1), (0, 0, 0))


def phi_oracle(d):
    """Image of each basis vector by direct substitution in the formula."""
    N, ws = d.N, d.weights
    cols = []
    for i in range(d.n + 1):
        for m in range(N):
            img = {}
            for j in range(i + 1):
                key = (j, (m - ws[j]) % N)
                img[key] = img.get(key, 0) + 1
            img[(i, m)] = img.get((i, m), 0) - 1
            cols.append(img)
    rows = [
        [col.get((i, m), 0) for col in cols]
        for i in range(d.n + 1)
        for m in range(N)
    ]
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "N,weights",
    [(3, (1, 2)), (2, (1, 1)), (4, (1, 2, 3)), (5, (0, 1)), (6, (1, 5, 1, 5))],
)
def test_phi_matches_substitution_oracle(N, weights):
    d = LensDescriptor(N, weights)
    assert phi_matrix(d) == phi_oracle(d)


# -- lens K-groups ---------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_lens_sphere_case(n):
    out = lens_k_groups(LensDescriptor(1, (0,) * (n + 1)))
    assert out["K1"] == Z
    assert out["K0"] == Z


def test_lens_rp3_like_case():
    out = lens_k_groups(LensDescriptor(2, (1, 1)))
    assert out["K1"] == Z
    assert out["K0"] == G(1, 2)
    assert out["formula_check"] == {
        "hypothesis_satisfied": True,
        "expected_k1_rank": 1,
        "matches": True,
    }


def test_lens_rank_two_case():
    out = lens_k_groups(LensDescriptor(4, (1, 2, 3)))
    assert out["K1"] == FGAbelianGroup(2)
    assert out["formula_check"]["matches"] is True


def test_lens_outside_hypothesis_flags():
    out = lens_k_groups(LensDescriptor(4, (2, 2)))
    check = out["formula_check"]
    assert check["hypothesis_satisfied"] is False
    assert check["expected_k1_rank"] is None and check["matches"] is None
    assert out["K1"].invariant_factors == ()


def test_lens_descriptor_validation():
    with pytest.raises(ValueError):
        LensDescriptor(0, (0,))
    with pytest.raises(ValueError):
        LensDescriptor(3, ())
    with pytest.raises(ValueError):
        LensDescriptor(3, (1, 3))
    with pytest.raises(ValueError):
        LensDescriptor(3, (-1, 1))


def all_descriptors(max_N, max_n):
    for N in range(1, max_N + 1):
        for n in range(max_n + 1):
            for ws in product(range(N), repeat=n + 1):
                yield LensDescriptor(N, ws)


def test_lens_formula_sweep():
    """Kernel rank equals the gcd formula whenever the weights are coprime."""
    checked = 0
    for d in all_descriptors(6, 3):
        if not d.pairwise_coprime:
            continue
        out = lens_k_groups(d)
        assert out["formula_check"]["matches"] is True, d
        assert out["K1"].invariant_factors == ()
        checked += 1
    assert checked > 300


def test_lens_rank_nullity_and_kernel_oracle():
    rng = random.Random(7)
    pool = [d for d in all_descriptors(5, 2)]
    for d in rng.sample(pool, 25):
        M = phi_matrix(d)
        snf = smith_normal_form(M)
        im_rank = len(snf["invariant_factors"])
        out = lens_k_groups(d)
        assert out["K1"].rank + im_rank == d.size
        assert out["K1"].rank == len(sympy.Matrix(M.to_json()).nullspace())


def sympy_factors(rows):
    return tuple(
        abs(int(t)) for t in sympy_invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if t
    )


def test_recorded_invariant_factor_corpus():
    """Factors of Phi and of the binomial matrices, as smith_normal_form gave them."""
    corpus = json.loads((Path(__file__).parent / "data" / "invariant_factors.json").read_text())
    assert len(corpus["lens"]) == 420 and len(corpus["gysin"]) == 32
    for entry in corpus["lens"]:
        M = phi_matrix(LensDescriptor(entry["N"], entry["weights"]))
        assert _invariant_factors(M) == tuple(entry["factors"]), entry
    for entry in corpus["gysin"]:
        A = gysin_matrix(entry["n"], entry["m"])
        assert _invariant_factors(A) == tuple(entry["factors"]), entry


# smith_normal_form alone runs for over 30 s on each of the first four
# (three are excluded from perfbench's lens ladder), so sympy is their
# reference.  On the 100 x 100 Phi of (20; 18,19,10,5,14) it is the other
# way round: sympy's invariant_factors takes minutes and
# smith_normal_form 0.1 s.  On the last two (105 and 120 square) sympy
# runs for minutes and smith_normal_form for over 2 s, even on the small
# blocks that the unit-pivot pass leaves.  Ranks over Q and GF(p) check
# all seven.
SIZE_LADDER = [
    (11, (2, 7, 3, 1)),
    (12, (2, 2, 2, 7)),
    (15, (1, 2, 7, 11)),
    (15, (2, 11, 10, 10)),
    (20, (18, 19, 10, 5, 14)),
    (15, (11, 7, 3, 8, 9, 7, 9)),
    (20, (5, 16, 16, 5, 4, 5)),
]


@pytest.mark.parametrize("N,weights", SIZE_LADDER)
def test_lens_size_ladder_is_fast_and_exact(N, weights):
    d = LensDescriptor(N, weights)
    start = time.perf_counter()
    out = lens_k_groups(d)
    assert time.perf_counter() - start < 1.0
    M = phi_matrix(d)
    factors = _invariant_factors(M)
    assert out["K1"] == FGAbelianGroup(d.size - len(factors))
    assert out["K0"] == G(d.size - len(factors), *factors)
    if d.pairwise_coprime:
        assert out["K1"].rank == sum(math.gcd(N, m) for m in weights) - d.n
        assert out["formula_check"]["matches"] is True
    if d.size <= 60:
        assert factors == sympy_factors(M.to_json())
    elif d.size == 100:
        assert factors == smith_normal_form(M)["invariant_factors"]
    # the factors prime to p count the rank of M over GF(p)
    dm = DomainMatrix(M.to_json(), (M.rows, M.cols), sympy.ZZ)
    assert dm.convert_to(sympy.QQ).rank() == len(factors)
    for p in sorted({p for t in factors for p in sympy.primefactors(t)} | {2, 3}):
        assert dm.convert_to(sympy.GF(p)).rank() == sum(1 for t in factors if t % p), p


# smith_normal_form runs for over 2 s on A and for over 30 s on 2A, which
# has no unit entry, so the unit-pivot pass leaves all of it.
DENSE_BLOCK = [
    [4, -2, -8, 3, 6, 0, -3],
    [-1, 6, 5, 6, 8, 0, 9],
    [0, 4, -5, 0, 0, 8, -5],
    [-6, 0, 1, 9, 2, 3, 5],
    [4, 0, 8, 0, 6, -6, -5],
    [-8, -4, 0, 1, -4, -9, 9],
    [3, -5, 7, 3, 0, -5, -5],
]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dense_block_is_fast_and_exact(k):
    A = IntMatrix.from_rows([[k * x for x in row] for row in DENSE_BLOCK])
    start = time.perf_counter()
    factors = _invariant_factors(A)
    assert time.perf_counter() - start < 1.0
    assert factors == sympy_factors(A.to_json())
    assert math.prod(factors) == abs(A.det())


@given(matrices(6), st.sampled_from([1, 2, 3, 6]))
@settings(max_examples=80, deadline=None)
def test_factors_modulo_minor_match_sympy(m, k):
    rows = [[k * x for x in row] for row in m.to_json()]
    assert _factors_modulo_minor(rows) == sympy_factors(rows)


# -- gysin matrix ----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_gysin_two_by_two(m):
    assert gysin_matrix(2, m).to_json() == [[0, 0], [2 * m, 0]]


def test_gysin_edge_cases():
    assert gysin_matrix(1, 5).to_json() == [[0]]
    assert gysin_matrix(3, 1).to_json() == [[0, 0, 0], [2, 0, 0], [-1, 2, 0]]
    with pytest.raises(ValueError):
        gysin_matrix(0, 1)
    with pytest.raises(ValueError):
        gysin_matrix(2, 0)


def test_gysin_band_respects_binomial_width():
    A = gysin_matrix(6, 1)
    for i in range(6):
        for j in range(6):
            if 0 < i - j <= 2:
                assert A.entries[i][j] == (-1) ** (i - j + 1) * math.comb(2, i - j)
            else:
                assert A.entries[i][j] == 0


# -- determinantal invariants ------------------------------------------------------


def test_determinantal_known_ratios():
    for m in range(1, 6):
        assert determinantal_invariants(gysin_matrix(2, m))["r"] == (2 * m,)
        assert determinantal_invariants(gysin_matrix(3, m))["r"] == (m, 4 * m)


def test_determinantal_sweep_identities():
    for n in range(2, 7):
        for m in range(1, 6):
            out = determinantal_invariants(gysin_matrix(n, m))
            d, r = out["d"], out["r"]
            assert d[-1] == 2 ** (n - 1) * m ** (n - 1)
            assert math.prod(r) == d[-1]
            assert any(x % 2 == 0 for x in r)
            if m == 1:
                assert r == (1,) * (n - 2) + (2 ** (n - 1),)


def test_determinantal_matches_minor_enumeration():
    rng = random.Random(11)
    mats = [gysin_matrix(n, m) for n in (2, 3, 4) for m in (1, 2, 3)]
    mats += [random_matrix(rng, 3, 3) for _ in range(6)]
    mats += [random_matrix(rng, 4, 4, bound=5) for _ in range(4)]
    for A in mats:
        try:
            out = determinantal_invariants(A)
        except ValueError:
            assert minor_gcd(A, A.rows - 1) == 0 or minor_gcd(A, 1) == 0
            continue
        for i, di in enumerate(out["d"], start=1):
            assert di == minor_gcd(A, i)


def test_determinantal_degenerate_guard():
    with pytest.raises(ValueError):
        determinantal_invariants(IntMatrix.zero(3, 3))
    with pytest.raises(ValueError):
        determinantal_invariants(
            IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
        )
    with pytest.raises(ValueError):
        determinantal_invariants(IntMatrix.zero(2, 3))


def test_determinantal_trivial_size():
    assert determinantal_invariants(gysin_matrix(1, 2)) == {"d": (), "r": ()}


# -- six-term bookkeeping -----------------------------------------------------------


def test_six_term_input_validation():
    with pytest.raises(ValueError):
        SixTermInput(G(2), ZERO, Z, Z, IntMatrix.from_rows([[2]]))
    with pytest.raises(ValueError):
        SixTermInput(Z, ZERO, Z, ZERO, IntMatrix.from_rows([[2]]))


def test_six_term_unsupported_shapes():
    with pytest.raises(ValueError):
        six_term_k_groups(
            SixTermInput(Z, Z, Z, Z, IntMatrix.from_rows([[2]]))
        )
    with pytest.raises(ValueError):
        six_term_k_groups(
            SixTermInput(G(1, 2), ZERO, Z, Z, IntMatrix.from_rows([[2]]))
        )
    with pytest.raises(ValueError):
        six_term_k_groups(
            SixTermInput(Z, ZERO, G(1, 2), Z, IntMatrix.from_rows([[3]]))
        )


def test_six_term_split_free_case():
    out = six_term_k_groups(
        SixTermInput(G(2), ZERO, G(3), ZERO, IntMatrix.zero(2, 0))
    )
    assert out["K1"] == ZERO
    assert out["K0_candidates"] == (FGAbelianGroup(5),)


# -- teardrop K-groups ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n,m,rank", [(1, 1, 2), (2, 3, 5), (4, 2, 6), (3, 1, 4)]
)
def test_teardrop_groups(n, m, rank):
    out = teardrop_k_groups(n, m)
    assert out["K0"] == FGAbelianGroup(rank)
    assert out["K1"] == ZERO
    parts = out["decomposition"]
    assert parts["ideal"].direct_sum(parts["quotient"]) == out["K0"]


def test_teardrop_validation():
    with pytest.raises(ValueError):
        teardrop_k_groups(0, 1)
    with pytest.raises(ValueError):
        teardrop_k_groups(1, 0)


def test_teardrop_size_budget(monkeypatch):
    def nothing_built(*args, **kwargs):
        # the budget must be checked before a matrix or a sequence is built
        raise AssertionError("built a teardrop matrix")

    for name in ("gysin_matrix", "SixTermInput", "IntMatrix"):
        monkeypatch.setattr(f"qwp.ktheory.{name}", nothing_built)
    edge = 46  # the largest n with n^3 within the budget
    assert edge**3 < MAX_TEARDROP_SIZE < (edge + 1) ** 3
    over = ((1, 10**6), (edge + 1, 1), (edge, MAX_TEARDROP_SIZE - edge**3 + 1), (10**9, 10**9))
    for n, m in over:
        for build in (teardrop_k_groups, real_teardrop_k):
            with pytest.raises(ValueError, match="MAX_TEARDROP_SIZE"):
                build(n, m)
    monkeypatch.undo()
    # sizes n^3 + m of exactly MAX_TEARDROP_SIZE pass
    assert teardrop_k_groups(1, MAX_TEARDROP_SIZE - 1)["K0"] == FGAbelianGroup(MAX_TEARDROP_SIZE)
    out = real_teardrop_k(edge, MAX_TEARDROP_SIZE - edge**3)
    assert out["K1"] == ZERO


# -- real teardrop candidates -----------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_real_teardrop_splits_in_lowest_dimension(m):
    out = real_teardrop_k(1, m)
    assert out["K1"] == ZERO
    assert out["K0_candidates"] == (G(m, 2),)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_real_teardrop_two_candidates(m):
    out = real_teardrop_k(2, m)
    assert out["K0_candidates"] == (G(m, 2, 2 * m), G(m, 4 * m))
    assert len(set(out["K0_candidates"])) == 2


@pytest.mark.parametrize("m", [2, 4])
def test_real_teardrop_three_candidates_even(m):
    out = real_teardrop_k(3, m)
    assert out["K0_candidates"] == (
        G(m, 2, m, 4 * m),
        G(m, 2 * m, 4 * m),
        G(m, m, 8 * m),
    )
    assert len(set(out["K0_candidates"])) == 3


@pytest.mark.parametrize("m", [1, 3, 5])
def test_real_teardrop_odd_candidates_coincide(m):
    out = real_teardrop_k(3, m)
    assert G(m, 2, m, 4 * m) == G(m, 2 * m, 4 * m)
    assert out["K0_candidates"] == (G(m, 2 * m, 4 * m), G(m, m, 8 * m))


def test_real_teardrop_weight_one_tower():
    for n in range(2, 7):
        out = real_teardrop_k(n, 1)
        assert out["K1"] == ZERO
        assert out["K0_candidates"] == (G(1, 2, 2 ** (n - 1)), G(1, 2 ** n))


def test_real_teardrop_presents_all_candidates():
    out = real_teardrop_k(3, 2)
    assert "K0" not in out
    assert all(g.rank == 2 for g in out["K0_candidates"])


# -- group ops ------------------------------------------------------------------------


def test_group_ops_examples():
    # canonical forms make isomorphism plain equality
    assert G(0, 2).direct_sum(G(0, 3)) == G(0, 6)
    assert (G(0, 2) == G(0, 3)) is False
    assert (G(0, 2, 3) == G(0, 6)) is True
    for m in range(1, 6):
        assert (G(m, 2, 2 * m) == G(m, 4 * m)) is False
    g = G(2, 4, 8)
    assert ZERO.direct_sum(g) == g
