"""K-groups of lens and teardrop algebras by exact integer linear algebra.

Everything reduces to kernels and cokernels of integer matrices.  For a
lens descriptor (N; m_0,...,m_n) the groups are K_1 = ker Phi and
K_0 = coker Phi, where Phi is an explicit endomorphism of Z^{N(n+1)}
read off the crossed-product graph of the cyclic grading.  For the
teardrop quotients the groups come from a six-term exact sequence whose
connecting map is a small explicit matrix.

Every answer is read from invariant factors, which give ranks, torsion
and determinantal divisors.  _invariant_factors finds them in two exact
steps: a sparse pass over Z removes pivots of +-1, each of which is one
invariant factor 1, and the small block that is left is diagonalized
modulo one of its minors, which keeps its entries bounded.  Phi has +-1
entries everywhere and nearly all of its factors are 1, so the pass
does nearly all of the work.  smith_normal_form, which also returns the
unimodular transforms, is the reference the tests compare against.
Results are stored as FGAbelianGroup in canonical invariant-factor
form, so isomorphism testing is plain equality.

One deliberate non-answer: the real teardrop extension problem admits
several groups (Z_2 either stays a summand or doubles one even torsion
factor), and the data computed here cannot distinguish them.
real_teardrop_k returns the full candidate list and never picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Phi is a dense N(n+1)-square matrix, so lens_k_groups refuses larger
# sizes before building it.  At size 1000 two weights take under a
# second, while (2; 1,...,1) takes about 30 s.
MAX_LENS_SIZE = 1000

# The teardrop sequences build delta with m rows, and the real one also
# eliminates the n x n binomial matrix in about n^3 steps, so both refuse
# n^3 + m above this before building either.  At the budget every n, m
# took under half a second on 2 cores (Python 3.11.7), where real-teardrop
# 1 10^6 had taken 7.5 s and 595 MB.
MAX_TEARDROP_SIZE = 10**5


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
        """Determinant, exact: the signed minor of _rank_and_minor at full rank."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        rank, minor = _rank_and_minor(self.entries)
        return minor if rank == self.rows else 0

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
        takes the invariant factors of the diagonal relation matrix; with
        the 1s dropped it has no unit pivot, so the elimination modulo a
        minor does it.
        """
        coeffs = [int(c) for c in torsion if int(c) != 1]
        if any(c < 1 for c in coeffs):
            raise ValueError("torsion coefficients must be positive")
        if not coeffs:
            return FGAbelianGroup(rank)
        diag = IntMatrix.from_rows(
            [[c if i == j else 0 for j in range(len(coeffs))] for i, c in enumerate(coeffs)]
        )
        factors = _invariant_factors(diag)
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
    nonzero diagonal entries.  All arithmetic is exact.  Nothing bounds
    the entries, and on some small matrices they grow for minutes; for the
    factors alone, _invariant_factors is the bounded path.
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


def _invariant_factors(M):
    """Invariant factors of M, as smith_normal_form lists them.

    Rows are kept as {col: value} dicts, with the set of rows that hold
    each column.  While an entry +-1 is left, the one of least Markowitz
    cost (row nonzeros - 1) * (column nonzeros - 1) is the pivot: its row,
    times the entry, is subtracted from the other rows that hold its
    column, and then its row and column are dropped.  These are unimodular
    steps, so each pivot adds one invariant factor 1, and the block that
    is left has the remaining factors; _factors_modulo_minor finds them.
    """
    rows = {}
    cols = {}
    for i, row in enumerate(M.entries):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    units = 0
    while True:
        best = None
        for i, row in rows.items():
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = (len(row) - 1) * (len(cols[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, p, c = best
        prow = rows.pop(p)
        for j in prow:
            cols[j].discard(p)
        s = prow.pop(c)
        for i in cols.pop(c):
            row = rows[i]
            f = row.pop(c) * s
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    row[j] = y
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
        units += 1
    live = sorted(j for j, held in cols.items() if held)
    residual = [[rows[i].get(j, 0) for j in live] for i in sorted(rows)]
    return (1,) * units + _factors_modulo_minor(residual)


def _rank_and_minor(a):
    """Rank r of the rows a and the signed det of a nonsingular r x r submatrix.

    Fraction-free (Bareiss) elimination with full pivoting: after step k
    the pivot is the determinant of the leading (k+1)-square submatrix of
    the permuted matrix, and every division is exact.  The sign undoes the
    row and column swaps, so at full rank of a square matrix the minor is
    its determinant.
    """
    a = [list(row) for row in a]
    m, n = len(a), len(a[0]) if a else 0
    prev = sign = 1
    for k in range(min(m, n)):
        pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if a[i][j]), None)
        if pivot is None:
            return k, sign * prev
        i, j = pivot
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return min(m, n), sign * prev


def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a > 0 and b >= 0.

    When a divides b this is (a, 1, 0), so the step clears b and leaves
    the pivot's row or column as it is.
    """
    if b % a == 0:
        return a, 1, 0
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _factors_modulo_minor(a):
    """Invariant factors of the dense rows a, with every entry kept below d.

    Let r be the rank and d a nonzero r x r minor.  d is a multiple of
    every invariant factor, so the rows together with d*Z^n have the r
    factors of a followed by d; entries can thus be reduced modulo d
    throughout (Kannan and Bachem 1979; Domich, Kannan and Trotter 1987).
    The elimination is smith_normal_form's, with the 2 x 2 unimodular
    step [[s, u], [-x/g, p/g]] (g = s*p + u*x) in place of division, so
    each step either clears x or lowers the pivot p to g.
    """
    rank, d = _rank_and_minor(a)
    d = abs(d)
    a = [[x % d for x in row] for row in a]
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    for t in range(min(m, n)):
        pivot = min(
            ((a[i][j], i, j) for i in range(t, m) for j in range(t, n) if a[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    p, x = a[t][t], a[i][t]
                    g, s, u = _xgcd(p, x)
                    a[t], a[i] = (
                        [(s * y + u * z) % d for y, z in zip(a[t], a[i])],
                        [(p // g * z - x // g * y) % d for y, z in zip(a[t], a[i])],
                    )
            for j in range(t + 1, n):
                if a[t][j]:
                    p, x = a[t][t], a[t][j]
                    g, s, u = _xgcd(p, x)
                    for row in a:
                        y, z = row[t], row[j]
                        row[t], row[j] = (s * y + u * z) % d, (p // g * z - x // g * y) % d
            if any(a[i][t] for i in range(t + 1, m)):
                continue
            g = math.gcd(a[t][t], d)
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % g), None
            )
            if offender is None:
                break
            a[t] = [(y + z) % d for y, z in zip(a[t], a[offender])]
        factors.append(g)
    return tuple(factors + [d] * (n - len(factors)))[:rank]


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
    factors = _invariant_factors(M)
    rank = len(factors)
    return (
        FGAbelianGroup(M.cols - rank),
        FGAbelianGroup(M.rows - rank, tuple(t for t in factors if t > 1)),
    )


def lens_k_groups(d):
    """K-groups of the lens algebra: K_1 = ker Phi and K_0 = coker Phi.

    Kernels of integer matrices are free, so K_1 is pure rank.  When the
    weights are pairwise coprime the rank has the closed form
    sum_i gcd(N, m_i) - n (gcd(N, 0) reads as N), and formula_check
    compares the computed rank against it.  Outside that hypothesis the
    computed answer stands alone and the violation is flagged.  A
    descriptor whose size N(n+1) exceeds MAX_LENS_SIZE is refused with a
    ValueError before Phi is built.
    """
    if d.size > MAX_LENS_SIZE:
        raise ValueError(
            f"lens size N(n+1) = {d.size} exceeds the budget MAX_LENS_SIZE = {MAX_LENS_SIZE}"
        )
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
    computed as the product of the first i invariant factors (the two
    agree; zero minors are gcd-neutral).  _invariant_factors finds them:
    its unit-pivot pass removes the +-1 entries of the band, and what is
    left is diagonalized modulo one of its minors.  r_1 = d_1 and
    r_i = d_i / d_{i-1}.  If every minor of a needed size vanishes the
    chain is degenerate and a ValueError is raised.
    """
    if A.rows != A.cols:
        raise ValueError("determinantal invariants require a square matrix")
    n = A.rows
    factors = _invariant_factors(A)
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


def _check_teardrop_size(n, m):
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    if n**3 + m > MAX_TEARDROP_SIZE:
        raise ValueError(
            f"teardrop size n^3 + m = {n**3 + m} exceeds the budget "
            f"MAX_TEARDROP_SIZE = {MAX_TEARDROP_SIZE}"
        )


def teardrop_k_groups(n, m):
    """K-groups of the complex teardrop quotient: K_0 = Z^{m+n}, K_1 = 0.

    The defining sequence has a rank-m free ideal contribution (m copies
    of the compacts) and the rank-n free projective-space quotient, with
    both odd groups zero; the connecting map is forced to vanish and the
    free extension splits as Z^m + Z^n.  Sizes n^3 + m above
    MAX_TEARDROP_SIZE are refused with a ValueError before delta is built.
    """
    _check_teardrop_size(n, m)
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
    candidate Z^m + Z_2 is exact.  Sizes n^3 + m above MAX_TEARDROP_SIZE
    are refused with a ValueError before either matrix is built.
    """
    _check_teardrop_size(n, m)
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
