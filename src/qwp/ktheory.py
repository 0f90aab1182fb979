"""K-groups of lens and teardrop algebras by exact integer linear algebra.

Everything reduces to kernels and cokernels of integer matrices.  For a
lens descriptor (N; m_0,...,m_n) the groups are K_1 = ker Phi and
K_0 = coker Phi, where Phi is an explicit endomorphism of Z^{N(n+1)}
read off the crossed-product graph of the cyclic grading.  For the
teardrop quotients the groups come from a six-term exact sequence whose
connecting map is a small explicit matrix.

Smith normal form over arbitrary-precision integers does all the work:
it yields ranks, torsion, and determinantal divisors, with every step
exact.  Results are stored as FGAbelianGroup in canonical invariant-
factor form, so isomorphism testing is plain equality.

One deliberate non-answer: the real teardrop extension problem admits
several groups (Z_2 either stays a summand or doubles one even torsion
factor), and the data computed here cannot distinguish them.
real_teardrop_k returns the full candidate list and never picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries are a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(entries)}")
        if any(len(row) != self.cols for row in entries):
            raise ValueError("all rows must have the same length")

    @staticmethod
    def from_rows(rows):
        rows = [tuple(row) for row in rows]
        cols = len(rows[0]) if rows else 0
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n):
        return IntMatrix(
            n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.cols} cols by {other.rows} rows")
        rows = tuple(
            tuple(
                sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            )
            for i in range(self.rows)
        )
        return IntMatrix(self.rows, other.cols, rows)

    def transpose(self):
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(
                tuple(self.entries[i][j] for i in range(self.rows))
                for j in range(self.cols)
            ),
        )

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination; exact."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_json(self):
        """Row-major nested lists, suitable for JSON serialization."""
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group in canonical invariant-factor form.

    rank is the free rank; invariant_factors is the torsion chain
    t_1 | t_2 | ... | t_k with every t_i >= 2.  The structure theorem
    makes this form unique, so == between instances is isomorphism.
    Use from_parts to canonicalize arbitrary torsion coefficients.
    """

    rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        factors = tuple(int(t) for t in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if any(t < 2 for t in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(b % a for a, b in zip(factors, factors[1:])):
            raise ValueError("invariant factors must form a divisibility chain")

    @staticmethod
    def from_parts(rank, torsion=()):
        """Canonicalize a direct sum Z^rank + sum_i Z_{c_i}.

        Torsion coefficients may arrive in any order and need not form a
        chain; factors equal to 1 contribute nothing.  Canonicalization
        runs Smith normal form on the diagonal relation matrix.
        """
        coeffs = [int(c) for c in torsion if int(c) != 1]
        if any(c < 1 for c in coeffs):
            raise ValueError("torsion coefficients must be positive")
        if not coeffs:
            return FGAbelianGroup(rank)
        diag = IntMatrix.from_rows(
            [[c if i == j else 0 for j in range(len(coeffs))] for i, c in enumerate(coeffs)]
        )
        factors = smith_normal_form(diag)["invariant_factors"]
        return FGAbelianGroup(rank, tuple(t for t in factors if t > 1))

    def direct_sum(self, other):
        return FGAbelianGroup.from_parts(
            self.rank + other.rank, self.invariant_factors + other.invariant_factors
        )

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.invariant_factors)}

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z_{t}" for t in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class LensDescriptor:
    """Parameters (N; m_0,...,m_n) of a cyclic quotient of the sphere.

    N >= 1 is the order of the cyclic group and the n+1 weights live in
    {0,...,N-1}.  The closed-form rank count for K_1 assumes the weights
    are pairwise coprime; pairwise_coprime reports whether that holds,
    and lens_k_groups skips the formula cross-check when it does not.
    """

    N: int
    weights: tuple

    def __post_init__(self):
        weights = tuple(int(m) for m in self.weights)
        object.__setattr__(self, "weights", weights)
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not weights:
            raise ValueError("need at least one weight")
        if any(m < 0 or m >= self.N for m in weights):
            raise ValueError(f"weights must lie in 0..{self.N - 1}")

    @property
    def n(self):
        return len(self.weights) - 1

    @property
    def size(self):
        return self.N * (self.n + 1)

    @property
    def pairwise_coprime(self):
        ws = self.weights
        return all(
            math.gcd(ws[i], ws[j]) == 1
            for i in range(len(ws))
            for j in range(i + 1, len(ws))
        )


@dataclass(frozen=True)
class SixTermInput:
    """Inputs for the specialized six-term bookkeeping used here.

    The cyclic sequence K_0(I) -> K_0(A) -> K_0(Q) -> K_1(I) -> K_1(A)
    -> K_1(Q) -> K_0(I) is solved for the middle algebra A only under
    the shape both geometric sequences in this package share: the index
    map delta: K_1(Q) -> K_0(I) is an integer matrix between free
    groups, and K_1(I) = 0.  No general exact-sequence solver is
    attempted.
    """

    ideal_k0: FGAbelianGroup
    ideal_k1: FGAbelianGroup
    quotient_k0: FGAbelianGroup
    quotient_k1: FGAbelianGroup
    delta: IntMatrix

    def __post_init__(self):
        if self.delta.rows != self.ideal_k0.rank:
            raise ValueError(
                f"delta has {self.delta.rows} rows but K_0(ideal) has rank "
                f"{self.ideal_k0.rank}"
            )
        if self.delta.cols != self.quotient_k1.rank:
            raise ValueError(
                f"delta has {self.delta.cols} cols but K_1(quotient) has rank "
                f"{self.quotient_k1.rank}"
            )


def smith_normal_form(M):
    """Diagonalize M over the integers with unimodular transforms.

    Returns {"U", "S", "V", "invariant_factors"} with U @ M @ V == S,
    U and V unimodular, and S diagonal with nonnegative entries forming
    a divisibility chain d_1 | d_2 | ...; invariant_factors lists the
    nonzero diagonal entries.  All arithmetic is exact.
    """
    r, c = M.rows, M.cols
    a = [list(row) for row in M.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, k):
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, k):
        for row in a:
            row[i] += k * row[j]
        for row in v:
            row[i] += k * row[j]

    t = 0
    limit = min(r, c)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # Division leaves remainders strictly smaller than the pivot,
            # so swapping a nonzero remainder up shrinks the pivot and the
            # loop terminates.
            clean = True
            for i in range(t + 1, r):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(i, t)
                        clean = False
            for j in range(t + 1, c):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(j, t)
                        clean = False
            if clean:
                break
        offender = next(
            (
                i
                for i in range(t + 1, r)
                for j in range(t + 1, c)
                if a[i][j] % a[t][t]
            ),
            None,
        )
        if offender is not None:
            # Pivot must divide the trailing block for the divisibility
            # chain; folding the offending row in lets the next clearing
            # pass shrink the pivot.
            add_row(t, offender, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return {
        "U": IntMatrix(r, r, tuple(tuple(row) for row in u)),
        "S": IntMatrix(r, c, tuple(tuple(row) for row in a)),
        "V": IntMatrix(c, c, tuple(tuple(row) for row in v)),
        "invariant_factors": tuple(a[i][i] for i in range(t)),
    }


def phi_matrix(d):
    """Matrix of the endomorphism whose kernel and cokernel are lens K-groups.

    Phi acts on Z^{N(n+1)} with basis lambda_i^m, indexed i major and m
    minor (basis position i*N + m, i = 0..n, m = 0..N-1), by

        Phi(lambda_i^m) = sum_{j=0}^{i} lambda_j^{(m - m_j) mod N} - lambda_i^m.

    Column i*N + m of the returned matrix holds Phi(lambda_i^m).  The
    ordering is part of the serialized format, so emitted matrices are
    reproducible bit for bit.
    """
    N = d.N
    size = d.size
    a = [[0] * size for _ in range(size)]
    for i in range(d.n + 1):
        for m in range(N):
            col = i * N + m
            for j in range(i + 1):
                a[j * N + (m - d.weights[j]) % N][col] += 1
            a[i * N + m][col] -= 1
    return IntMatrix.from_rows(a)


def _kernel_cokernel(M):
    """ker M (free, so given by its rank) and coker M, from M's invariant factors."""
    factors = smith_normal_form(M)["invariant_factors"]
    rank = len(factors)
    return (
        FGAbelianGroup(M.cols - rank),
        FGAbelianGroup.from_parts(M.rows - rank, tuple(t for t in factors if t > 1)),
    )


def lens_k_groups(d):
    """K-groups of the lens algebra: K_1 = ker Phi and K_0 = coker Phi.

    Kernels of integer matrices are free, so K_1 is pure rank.  When the
    weights are pairwise coprime the rank has the closed form
    sum_i gcd(N, m_i) - n (gcd(N, 0) reads as N), and formula_check
    compares the Smith-rank answer against it.  Outside that hypothesis
    the computed answer stands alone and the violation is flagged.
    """
    k1, k0 = _kernel_cokernel(phi_matrix(d))
    if d.pairwise_coprime:
        expected = sum(math.gcd(d.N, m) for m in d.weights) - d.n
        check = {
            "hypothesis_satisfied": True,
            "expected_k1_rank": expected,
            "matches": k1.rank == expected,
        }
    else:
        check = {
            "hypothesis_satisfied": False,
            "expected_k1_rank": None,
            "matches": None,
        }
    return {"K1": k1, "K0": k0, "formula_check": check}


def gysin_matrix(n, m):
    """The n x n binomial matrix controlling lens K_0 torsion.

    Nonzero entries sit below the diagonal: a[i][j] is
    (-1)^(i-j+1) * C(2m, i-j) for 0 < i-j <= min(2m, n-1), zero
    elsewhere.  Its determinantal invariants r_i present
    K_0(lens(2m; 1,...,1)) as Z + Z_{r_1} + ... + Z_{r_{n-1}}.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    band = min(2 * m, n - 1)
    rows = [
        [
            (-1) ** (i - j + 1) * math.comb(2 * m, i - j) if 0 < i - j <= band else 0
            for j in range(n)
        ]
        for i in range(n)
    ]
    return IntMatrix.from_rows(rows)


def determinantal_invariants(A):
    """Determinantal divisors d_i and their ratios r_i for i < n.

    d_i is the gcd of all nonzero i x i minors of the square matrix A,
    computed as the product of the first i invariant factors of the
    Smith normal form (the two agree; zero minors are gcd-neutral).
    r_1 = d_1 and r_i = d_i / d_{i-1}.  If every minor of a needed size
    vanishes the chain is degenerate and a ValueError is raised.
    """
    if A.rows != A.cols:
        raise ValueError("determinantal invariants require a square matrix")
    n = A.rows
    factors = smith_normal_form(A)["invariant_factors"]
    if len(factors) < n - 1:
        raise ValueError(
            f"degenerate: every minor of size {len(factors) + 1} vanishes"
        )
    d = []
    acc = 1
    for i in range(n - 1):
        acc *= factors[i]
        d.append(acc)
    r = [d[0]] if d else []
    r.extend(d[i] // d[i - 1] for i in range(1, n - 1))
    return {"d": tuple(d), "r": tuple(r)}


def six_term_k_groups(inp):
    """Solve the six-term sequence for the middle algebra.

    With K_1(ideal) = 0 the sequence splits into K_1(A) = ker delta and
    an extension 0 -> coker delta -> K_0(A) -> K_0(quotient) -> 0.  A
    free quotient K_0 splits the extension, so the answer is unique.
    Otherwise the middle group is not determined: the supported case is
    coker delta with torsion exactly Z_2, where the candidates keep Z_2
    as a summand or absorb it into one even torsion factor r_k of the
    quotient, which becomes Z_{2 r_k}.  Candidates are deduplicated by
    canonical form, base candidate first.
    """
    if inp.ideal_k1 != FGAbelianGroup(0):
        raise ValueError("only sequences with K_1(ideal) = 0 are supported")
    if inp.ideal_k0.invariant_factors or inp.quotient_k1.invariant_factors:
        raise ValueError("K_0(ideal) and K_1(quotient) must be free")
    k1, coker = _kernel_cokernel(inp.delta)
    free_rank = coker.rank + inp.quotient_k0.rank
    q_tors = inp.quotient_k0.invariant_factors
    if not q_tors:
        candidates = (FGAbelianGroup.from_parts(free_rank, coker.invariant_factors),)
    elif coker.invariant_factors == (2,):
        candidates = [FGAbelianGroup.from_parts(free_rank, (2,) + q_tors)]
        for k, rk in enumerate(q_tors):
            if rk % 2 == 0:
                merged = FGAbelianGroup.from_parts(
                    free_rank, q_tors[:k] + (2 * rk,) + q_tors[k + 1 :]
                )
                if merged not in candidates:
                    candidates.append(merged)
        candidates = tuple(candidates)
    else:
        raise ValueError(
            "extension with torsion on both sides is supported only for "
            "coker delta torsion Z_2"
        )
    return {"K1": k1, "coker_delta": coker, "K0_candidates": candidates}


def teardrop_k_groups(n, m):
    """K-groups of the complex teardrop quotient: K_0 = Z^{m+n}, K_1 = 0.

    The defining sequence has a rank-m free ideal contribution (m copies
    of the compacts) and the rank-n free projective-space quotient, with
    both odd groups zero; the connecting map is forced to vanish and the
    free extension splits as Z^m + Z^n.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    inp = SixTermInput(
        ideal_k0=FGAbelianGroup(m),
        ideal_k1=FGAbelianGroup(0),
        quotient_k0=FGAbelianGroup(n),
        quotient_k1=FGAbelianGroup(0),
        delta=IntMatrix.zero(m, 0),
    )
    out = six_term_k_groups(inp)
    return {
        "K0": out["K0_candidates"][0],
        "K1": out["K1"],
        "decomposition": {"ideal": FGAbelianGroup(m), "quotient": FGAbelianGroup(n)},
    }


def real_teardrop_k(n, m):
    """K-group candidates for the real teardrop quotient.

    The quotient lens algebra contributes K_1 = Z and
    K_0 = Z + sum_i Z_{r_i} with the r_i read off the binomial matrix;
    the ideal contributes (Z^m, 0); the index map sends the K_1
    generator to (2,...,2), which is injective with cokernel
    Z^{m-1} + Z_2, so K_1 = 0.  The resulting extension does not pin
    down K_0; every candidate is returned and none is selected.  For
    n = 1 the quotient K_0 is free, the sequence splits, and the single
    candidate Z^m + Z_2 is exact.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    r = determinantal_invariants(gysin_matrix(n, m))["r"]
    inp = SixTermInput(
        ideal_k0=FGAbelianGroup(m),
        ideal_k1=FGAbelianGroup(0),
        quotient_k0=FGAbelianGroup.from_parts(1, r),
        quotient_k1=FGAbelianGroup(1),
        delta=IntMatrix.from_rows([[2]] * m),
    )
    out = six_term_k_groups(inp)
    return {"K1": out["K1"], "K0_candidates": out["K0_candidates"]}
