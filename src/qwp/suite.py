"""The verification battery behind `qwp suite`, one function per check.

Each check takes the run configuration, sweeps small cases of one claim
and returns a verdict: name, pass or fail, case count and at most 20
failures.  Exact claims (K-theory, certificates, normal forms, sector
support, distinctness) use zero tolerance; interior relation residuals
use the configured tolerance and the tail-bound series 1e-10.
SUITE_CHECKS lists the checks in report order.
"""

import math
import random
from fractions import Fraction
from itertools import product

from qwp.grading import GradingSpec, _base_resolutions, verify_resolution
from qwp.ktheory import (
    LensDescriptor,
    determinantal_invariants,
    gysin_matrix,
    lens_k_groups,
    real_teardrop_k,
    teardrop_k_groups,
)
from qwp.representations import (
    RepSpec,
    TruncatedSpace,
    eigenvalue_distinctness,
    fredholm_trace,
    relation_residual,
    sector_split_check,
)
from qwp.scalar import QScalar
from qwp.star_algebra import (
    AlgebraElement,
    AlgebraPresentation,
    Generator,
    defining_relations,
    make_named_element,
    normalize,
    z,
    z_star,
)

# random words in the rewriting-confluence check: how many, and their longest length
_CONFLUENCE_SAMPLES = 10000
_CONFLUENCE_MAX_LENGTH = 12


def _verdict(name, cases, failures, **extra):
    report = {
        "check": name,
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "failure_count": len(failures),
        "failures": failures[:20],
    }
    report.update(extra)
    return report


def check_kernel_rank_formula(config):
    """Lens K1 rank equals the gcd sum formula on an exhaustive small sweep."""
    cases = 0
    failures = []
    for n in (1, 2, 3):
        for N in range(1, 7):
            for m in product(range(N), repeat=n + 1):
                lens = LensDescriptor(N, m)
                if not lens.pairwise_coprime:
                    continue
                cases += 1
                out = lens_k_groups(lens)
                expected = sum(math.gcd(N, mi) for mi in m) - n
                if out["K1"].rank != expected or not out["formula_check"]["matches"]:
                    failures.append(
                        {"N": N, "weights": list(m), "rank": out["K1"].rank, "expected": expected}
                    )
    return _verdict("kernel-rank-formula", cases, failures)


def check_teardrop_k_groups(config):
    """Teardrop K0 is free of rank m + n and K1 vanishes."""
    cases = 0
    failures = []
    for n in range(1, 5):
        for m in range(1, 6):
            cases += 1
            out = teardrop_k_groups(n, m)
            ok = (
                out["K0"].rank == m + n
                and out["K0"].invariant_factors == ()
                and out["K1"].rank == 0
                and out["K1"].invariant_factors == ()
            )
            if not ok:
                failures.append(
                    {"n": n, "m": m, "K0": out["K0"].to_json(), "K1": out["K1"].to_json()}
                )
    return _verdict("teardrop-k-groups", cases, failures)


def check_gysin_invariants(config):
    """Invariant factors of the binomial step matrix match the closed forms."""
    cases = 0
    failures = []
    for n in range(2, 7):
        for m in range(1, 6):
            cases += 1
            inv = determinantal_invariants(gysin_matrix(n, m))
            d, r = inv["d"], inv["r"]
            bad = []
            if n == 2 and r[0] != 2 * m:
                bad.append("r1 != 2m")
            if n == 3 and (r[0] != m or r[1] != 4 * m):
                bad.append("(r1, r2) != (m, 4m)")
            if m == 1 and r[n - 2] != 2 ** (n - 1):
                bad.append("top ratio != 2^(n-1) at m=1")
            if d[n - 2] != 2 ** (n - 1) * m ** (n - 1):
                bad.append("top divisor != 2^(n-1) m^(n-1)")
            if math.prod(r) != d[n - 2]:
                bad.append("ratio product != top divisor")
            if not any(ri % 2 == 0 for ri in r):
                bad.append("no even ratio")
            if bad:
                failures.append({"n": n, "m": m, "d": list(d), "r": list(r), "why": bad})
    return _verdict("gysin-invariants", cases, failures)


def check_k0_alternatives(config):
    """Counts and values of the real K0 candidate lists by parity and size."""
    cases = 0
    failures = []
    for m in range(1, 6):
        cases += 3
        low = real_teardrop_k(1, m)["K0_candidates"]
        if len(low) != 1 or low[0].rank != m or low[0].invariant_factors != (2,):
            failures.append({"n": 1, "m": m, "candidates": [g.to_json() for g in low]})
        mid = real_teardrop_k(2, m)["K0_candidates"]
        if len(mid) != 2:
            failures.append({"n": 2, "m": m, "candidates": [g.to_json() for g in mid]})
        high = real_teardrop_k(3, m)["K0_candidates"]
        if len(high) != (3 if m % 2 == 0 else 2):
            failures.append({"n": 3, "m": m, "candidates": [g.to_json() for g in high]})
    return _verdict("k0-alternatives", cases, failures)


def check_grading_certificates(config):
    """The cyclic, weighted and tower certificates verify exactly on the small sweep."""
    gradings = []
    for n in (1, 2, 3):
        pres = AlgebraPresentation.sphere(n)
        for N in range(1, 6):
            g = GradingSpec(pres, (1,) * (n + 1), modulus=N)
            gradings.append(({"constructor": "cyclic", "N": N, "n": n}, g))
    for w in ((1, 2), (2, 3), (1, 2, 3), (1, 1, 2)):
        g = GradingSpec(AlgebraPresentation.sphere(len(w) - 1), w, scale=math.prod(w))
        gradings.append(({"constructor": "weighted", "weights": list(w)}, g))
    for kind in ("sphere", "sigma"):
        for m in range(1, 5):
            g = GradingSpec(AlgebraPresentation(kind, 1), (1, m))
            gradings.append(({"constructor": "tower", "kind": kind, "m": m}, g))
    cases = 0
    failures = []
    for label, g in gradings:
        base = _base_resolutions(g.pres, g)
        for target, cert in ((1, base["res_plus"]), (-1, base["res_minus"])):
            cases += 1
            if not verify_resolution(cert, g)["valid"]:
                failures.append({**label, "target": target})
    return _verdict("grading-certificates", cases, failures)


def check_power_products(config):
    """Both telescoping product identities for powers of the first generator."""
    q = QScalar.q()
    cases = 0
    failures = []
    for n in (1, 2, 3):
        pres = AlgebraPresentation.sphere(n)
        a = make_named_element("a", {}, pres)
        one = AlgebraElement.one(pres)
        for N in range(1, 6):
            for which, x, y, exps in (
                ("plain", z(0), z_star(0), [2 * s for s in range(N)]),
                ("starred", z_star(0), z(0), [-2 * s for s in range(1, N + 1)]),
            ):
                lhs = normalize([x] * N + [y] * N, pres)
                rhs = one
                for e in exps:
                    rhs = rhs * (one - (q**e) * a)
                cases += 1
                if lhs != rhs:
                    failures.append({"n": n, "N": N, "which": which})
    return _verdict("power-products", cases, failures)


def check_rewriting_confluence(config):
    """Relations rewrite to zero and random words are strategy-independent."""
    failures = []
    cases = 0
    presentations = [AlgebraPresentation(k, n) for k in ("sphere", "sigma") for n in (1, 2, 3)]
    for pres in presentations:
        for name, lhs, rhs in defining_relations(pres):
            cases += 1
            if not (normalize(lhs, pres) - normalize(rhs, pres)).is_zero():
                failures.append({"presentation": f"{pres.kind}({pres.n})", "relation": name})
    rng = random.Random(config.seed)
    for _ in range(_CONFLUENCE_SAMPLES):
        pres = rng.choice(presentations)
        letters = [Generator("z", i) for i in range(pres.n + 1)]
        letters += [g.star() for g in letters]
        if pres.kind == "sigma":
            w_gen = Generator("w", -1)
            letters += [w_gen, w_gen.star()]
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, _CONFLUENCE_MAX_LENGTH)))
        cases += 1
        first = normalize(word, pres, strategy="leftmost")
        second = normalize(word, pres, strategy="random", rng=random.Random(rng.getrandbits(32)))
        if first != second:
            failures.append(
                {
                    "presentation": f"{pres.kind}({pres.n})",
                    "word": [str(g) for g in word],
                }
            )
    return _verdict("rewriting-confluence", cases, failures, samples=_CONFLUENCE_SAMPLES)


def check_representation_residuals(config):
    """Interior relation residuals and exact sector splitting, all families."""
    tolerance = config.tolerance
    cases = 0
    failures = []
    worst = 0.0
    q0_values = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for n in (1, 2, 3):
        space = TruncatedSpace(n, 10)
        sphere_pres = AlgebraPresentation.sphere(n)
        sigma_pres = AlgebraPresentation.sigma(n)
        for q0 in q0_values:
            jobs = [
                ("sphere", sphere_pres, RepSpec("sphere_pi", q0, lam=(3, 7))),
                ("sigma", sigma_pres, RepSpec("sigma_pi", q0, lam=(2, 5), sign=-1)),
            ]
            jobs += [
                (f"bar k={k}", sphere_pres, RepSpec("bar_pi", q0, k=k)) for k in range(n + 1)
            ]
            for label, pres, spec in jobs:
                cases += 1
                out = relation_residual(pres, spec, space)
                worst = max(worst, out["max_residual"])
                if out["max_residual"] > tolerance or out["empty_interior"]:
                    failures.append(
                        {
                            "family": label,
                            "n": n,
                            "q0": str(q0),
                            "max_residual": out["max_residual"],
                        }
                    )
            for m in range(1, 5):
                for label, spec in (
                    ("sphere", RepSpec("sphere_pi", q0, lam=(1, 5))),
                    ("sigma", RepSpec("sigma_pi", q0, lam=(1, 5), sign=-1)),
                ):
                    cases += 1
                    split = sector_split_check(spec, m, space)
                    control_ok = m == 1 or not split["control_z0"]["invariant"]
                    if not split["all_invariant"] or not control_ok:
                        failures.append(
                            {
                                "family": label,
                                "n": n,
                                "m": m,
                                "q0": str(q0),
                                "all_invariant": split["all_invariant"],
                                "control_invariant": split["control_z0"]["invariant"],
                            }
                        )
    return _verdict(
        "representation-residuals", cases, failures, tolerance=tolerance, worst_residual=worst
    )


def check_spectral_distinctness(config):
    """Exact diagonal separation at q0 = 1/2, with the classical collapse."""
    cases = 0
    failures = []
    for n in (1, 2):
        for m in (1, 2, 3):
            for cutoff in (4, 8):
                cases += 1
                out = eigenvalue_distinctness(m, n, Fraction(1, 2), TruncatedSpace(n, cutoff))
                if not out["distinct"]:
                    failures.append(
                        {
                            "n": n,
                            "m": m,
                            "cutoff": cutoff,
                            "index_collisions": out["index_collisions"],
                            "value_collisions": out["value_collisions"],
                        }
                    )
    cases += 1
    control = eigenvalue_distinctness(2, 2, Fraction(1), TruncatedSpace(2, 6))
    if control["distinct"] or control["index_collisions"] == 0:
        failures.append({"control": "q0=1 collapse not detected"})
    return _verdict("spectral-distinctness", cases, failures)


def check_trace_convergence(config):
    """Partial traces are Cauchy within the tail bound; the bound series sums."""
    cases = 0
    failures = []
    half = Fraction(1, 2)
    for n in (1, 2, 3):
        pres = AlgebraPresentation.sphere(n)
        element = make_named_element("b", {"i": 0, "j": 0}, pres)
        previous = None
        for cutoff in (2, 4, 6, 8):
            out = fredholm_trace(element, n, 1, half, cutoff)
            if previous is not None:
                cases += 1
                gap = abs(out["partial_trace"] - previous["partial_trace"])
                if gap > previous["tail_bound"]:
                    failures.append(
                        {"n": n, "cutoffs": [cutoff - 2, cutoff], "gap": gap, "kind": "cauchy"}
                    )
            previous = out
        cases += 1
        big = fredholm_trace(element, n, 1, half, 60)
        closed = (1 - 0.5) ** (-n)
        if abs(big["series_partial"] - closed) > 1e-10 or big["series_closed_form"] != closed:
            failures.append(
                {"n": n, "series_partial": big["series_partial"], "kind": "series"}
            )
    return _verdict("trace-convergence", cases, failures)


SUITE_CHECKS = (
    ("kernel-rank-formula", check_kernel_rank_formula),
    ("teardrop-k-groups", check_teardrop_k_groups),
    ("gysin-invariants", check_gysin_invariants),
    ("k0-alternatives", check_k0_alternatives),
    ("grading-certificates", check_grading_certificates),
    ("power-products", check_power_products),
    ("rewriting-confluence", check_rewriting_confluence),
    ("representation-residuals", check_representation_residuals),
    ("spectral-distinctness", check_spectral_distinctness),
    ("trace-convergence", check_trace_convergence),
)
