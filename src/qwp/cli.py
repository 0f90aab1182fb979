"""Command-line front end: expression parsing, space descriptors, batch
checks and stable machine-readable reports.

Every subcommand prints a single JSON document to stdout (sorted keys,
two-space indent) so that identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 a computation failed or a verification
check did not pass (the report carries the diagnostic), 2 usage errors.

Numeric commands take the deformation value as an exact rational "p/r";
floating-point q0 is refused on the command line and in config files so
the boundary between exact and rounded arithmetic stays visible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files
from itertools import product

from qwp.grading import (
    GradingSpec,
    INHOMOGENEOUS,
    _base_resolutions,
    check_strong_grading,
    degree,
    homogeneous_components,
    verify_resolution,
)
from qwp.ktheory import (
    LensDescriptor,
    determinantal_invariants,
    gysin_matrix,
    lens_k_groups,
    real_teardrop_k,
    teardrop_k_groups,
)
from qwp.parsing import ParseError, parse_expression
from qwp.representations import (
    RepSpec,
    TruncatedSpace,
    apply_element,
    eigenvalue_distinctness,
    fredholm_trace,
    relation_residual,
    sector_split_check,
)
from qwp.star_algebra import (
    MAX_PRESENTATION_N,
    AlgebraElement,
    AlgebraPresentation,
    Generator,
    defining_relations,
    make_named_element,
    normalize,
    z,
    z_star,
)
from qwp.scalar import QScalar


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad flags or config values; maps to exit code 2.

    argparse prints the text of an ArgumentTypeError raised by a ``type=``
    converter, where a plain ValueError becomes "invalid <name> value".
    """


SPACE_KINDS = ("sphere", "sigma", "lens", "sigma_lens", "wp", "rp")
_LENS_KINDS = ("lens", "sigma_lens")
_SIGMA_KINDS = ("sigma", "sigma_lens", "rp")

DEFAULT_CUTOFF = 10
DEFAULT_TOLERANCE = 1e-12

# random words in the rewriting-confluence check: how many, and their longest length
_CONFLUENCE_SAMPLES = 10000
_CONFLUENCE_MAX_LENGTH = 12


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which algebra a command speaks about, plus optional numeric q0."""

    kind: str
    n: int
    weights: tuple
    modulus: int = None
    q0: Fraction = None

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise UsageError(f"unknown space kind {self.kind!r}")
        if self.n < 1:
            raise UsageError("n must be at least 1")
        if len(self.weights) != self.n + 1:
            raise UsageError(f"need {self.n + 1} weights for n = {self.n}")
        if any(not isinstance(w, int) or w < 1 for w in self.weights):
            raise UsageError("weights must be positive integers")
        if self.kind in _LENS_KINDS:
            if self.modulus is None or self.modulus < 1:
                raise UsageError("lens kinds need a modulus N >= 1")
        elif self.modulus is not None:
            raise UsageError(f"kind {self.kind!r} does not take a modulus")
        if self.q0 is not None and not (0 < self.q0 < 1):
            raise UsageError("q0 must lie strictly between 0 and 1")

    @property
    def presentation(self):
        kind = "sigma" if self.kind in _SIGMA_KINDS else "sphere"
        return AlgebraPresentation(kind, self.n)

    def grading(self):
        """The grading whose strength or degrees the space kind asks about."""
        pres = self.presentation
        if self.kind in _LENS_KINDS:
            return GradingSpec(pres, self.weights, modulus=self.modulus)
        if self.kind in ("wp", "rp"):
            return GradingSpec(pres, self.weights, scale=math.prod(self.weights))
        return GradingSpec(pres, self.weights)

    def to_json(self):
        return {
            "kind": self.kind,
            "n": self.n,
            "weights": list(self.weights),
            "N": self.modulus,
            "q0": None if self.q0 is None else str(self.q0),
        }


@dataclass(frozen=True)
class RunConfig:
    """Numeric knobs shared by the commands; flags override config files."""

    cutoff: int = DEFAULT_CUTOFF
    tolerance: float = DEFAULT_TOLERANCE
    output: str = None
    seed: int = 0

    def __post_init__(self):
        if self.cutoff < 1:
            raise UsageError("cutoff must be at least 1")
        if not self.tolerance > 0:
            raise UsageError("tolerance must be positive")


# -- option parsing -----------------------------------------------------------


def parse_rational(text):
    """Exact rational from "p/r" or an integer literal; floats are refused."""
    text = text.strip()
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        raise UsageError(f"{text!r} is not an exact rational; write it as p/r")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad rational {text!r}: {err}") from None


def _parse_int_list(text, what):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad {what} {text!r}; expected comma-separated integers") from None


def _parse_weights(text):
    return _parse_int_list(text, "weights")


def parse_config_file(path):
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    known = {"cutoff", "tolerance", "output", "seed", "q0"}
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as err:
        raise UsageError(f"cannot read config {path!r}: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _resolve_config(args):
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag, key, convert, default):
        if flag is not None:
            return flag
        if key in file_values:
            try:
                return convert(file_values[key])
            except ValueError as err:
                raise UsageError(f"bad config value for {key}: {err}") from None
        return default

    config = RunConfig(
        cutoff=pick(getattr(args, "cutoff", None), "cutoff", int, DEFAULT_CUTOFF),
        tolerance=pick(
            getattr(args, "tolerance", None), "tolerance", float, DEFAULT_TOLERANCE
        ),
        output=pick(getattr(args, "output", None), "output", str, None),
        seed=pick(getattr(args, "seed", None), "seed", int, 0),
    )
    q0 = getattr(args, "q0", None)
    if q0 is None and "q0" in file_values:
        q0 = parse_rational(file_values["q0"])
    return config, q0


def _resolve_space(args, q0):
    weights = getattr(args, "weights", None)
    n = getattr(args, "n", None)
    if weights is None:
        if n is None:
            raise UsageError("give --n or --weights to fix the space size")
        if n > MAX_PRESENTATION_N:
            AlgebraPresentation.sphere(n)  # the budget refuses n before (1,) * (n + 1) is built
        weights = (1,) * (n + 1)
    if n is None:
        n = len(weights) - 1
    return SpaceDescriptor(
        kind=getattr(args, "space", "sphere"),
        n=n,
        weights=weights,
        modulus=getattr(args, "N", None),
        q0=q0,
    )


def _require_q0(q0):
    if q0 is None:
        raise UsageError("this command needs --q0 p/r")
    return q0


def _rep_spec(args, q0):
    family = args.family + "_pi"
    kwargs = {}
    if args.lam is not None:
        lam = parse_rational(args.lam)
        kwargs["lam"] = (lam.numerator, lam.denominator)
    if args.family == "bar":
        if args.k is None:
            raise UsageError("the bar family needs --k")
        kwargs["k"] = args.k
    elif args.k is not None:
        raise UsageError("--k only applies to the bar family")
    if args.family == "sigma":
        kwargs["sign"] = args.sign
    elif args.sign != 1:
        raise UsageError("--sign only applies to the sigma family")
    try:
        return RepSpec(family, _require_q0(q0), **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


# -- report plumbing ----------------------------------------------------------


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report, config, stdout):
    text = render_report(report)
    stdout.write(text)
    if config is not None and config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def report_schema(command):
    """The shipped JSON schema a command's report must validate against."""
    name = command.replace(" ", "_").replace("-", "_") + ".schema.json"
    return json.loads(files("qwp").joinpath("schemas", name).read_text(encoding="utf-8"))


def _residual_checks(prefix, values, tolerance):
    """One check row per named value, sorted by name; a value within tolerance passes."""
    return [
        {
            "check": f"{prefix} {name}",
            "status": "pass" if values[name] <= tolerance else "fail",
            "max_residual": values[name],
            "tolerance": tolerance,
        }
        for name in sorted(values)
    ]


# -- subcommand handlers ------------------------------------------------------


def _cmd_normalize(args, config, q0):
    space = _resolve_space(args, q0)
    element = parse_expression(args.expression, space.presentation)
    report = {
        "command": "normalize",
        "status": "ok",
        "space": space.to_json(),
        "input": args.expression,
        "printed": str(element),
        "term_count": len(element.terms),
        "element": element.to_json(),
    }
    return report, 0


def _cmd_grading_degree(args, config, q0):
    space = _resolve_space(args, q0)
    g = space.grading()
    element = parse_expression(args.expression, space.presentation)
    d = degree(element, g)
    components = homogeneous_components(element, g)
    report = {
        "command": "grading degree",
        "status": "ok",
        "space": space.to_json(),
        "grading": {"weights": list(g.weights), "modulus": g.modulus, "scale": g.scale},
        "input": args.expression,
        "printed": str(element),
        "homogeneous": d is not INHOMOGENEOUS,
        "degree": None if d is INHOMOGENEOUS else d,
        "components": {str(k): str(v) for k, v in components.items()},
    }
    return report, 0


def _cmd_grading_certify(args, config, q0):
    space = _resolve_space(args, q0)
    g = space.grading()
    degrees = _parse_int_list(args.degrees, "degree list") if args.degrees else (1, -1)
    result = check_strong_grading(space.presentation, g, degrees)
    entries = []
    for d, entry in result["degrees"].items():
        res = entry["resolution"]
        verdict = entry["verification"]
        entries.append(
            {
                "degree": d,
                "certified": entry["certified"],
                "note": entry["note"],
                "pairs": None if res is None else [[str(a), str(b)] for a, b in res.pairs],
                "verification": None
                if verdict is None
                else {
                    "valid": verdict["valid"],
                    "failures": verdict["failures"],
                    "defect": None if verdict["defect"] is None else str(verdict["defect"]),
                },
            }
        )
    verified = result["all_certified"]
    report = {
        "command": "grading certify",
        "status": "ok" if verified else "fail",
        "space": space.to_json(),
        "grading": {"weights": list(g.weights), "modulus": g.modulus, "scale": g.scale},
        "method": "triangular",  # the only constructor; the field keeps report bytes stable
        "verified": verified,
        "degrees": entries,
    }
    return report, 0 if verified else 1


def _cmd_ktheory_lens(args, config, q0):
    out = lens_k_groups(LensDescriptor(args.N, args.weights))
    report = {
        "command": "ktheory lens",
        "status": "ok",
        "N": args.N,
        "weights": list(args.weights),
        "K0": out["K0"].to_json(),
        "K1": out["K1"].to_json(),
        "formula_check": out["formula_check"],
    }
    return report, 0


def _cmd_ktheory_teardrop(args, config, q0):
    out = teardrop_k_groups(args.n, args.m)
    report = {
        "command": "ktheory teardrop",
        "status": "ok",
        "n": args.n,
        "m": args.m,
        "K0": out["K0"].to_json(),
        "K1": out["K1"].to_json(),
        "decomposition": {
            "ideal": out["decomposition"]["ideal"].to_json(),
            "quotient": out["decomposition"]["quotient"].to_json(),
        },
    }
    return report, 0


def _cmd_ktheory_real_teardrop(args, config, q0):
    out = real_teardrop_k(args.n, args.m)
    report = {
        "command": "ktheory real-teardrop",
        "status": "ok",
        "n": args.n,
        "m": args.m,
        "K1": out["K1"].to_json(),
        "K0_candidates": [g.to_json() for g in out["K0_candidates"]],
    }
    return report, 0


def _rep_echo(args, spec, config):
    """The representation a rep report speaks about: its flags, exact q0 and cutoff."""
    echo = {key: getattr(args, key) for key in ("family", "n", "lam", "k", "sign")}
    return {**echo, "q0": str(spec.q0), "cutoff": config.cutoff}


def _cmd_rep_assemble(args, config, q0):
    spec = _rep_spec(args, q0)
    pres = AlgebraPresentation(spec.pres_kind, args.n)
    space = TruncatedSpace(args.n, config.cutoff)
    element = parse_expression(args.expression, pres)
    op = apply_element(element, spec, space)
    blob = op.to_json()
    report = {
        "command": "rep assemble",
        "status": "ok",
        **_rep_echo(args, spec, config),
        "input": args.expression,
        "dim": blob["dim"],
        "shift": blob["shift"],
        "entries": blob["entries"],
    }
    return report, 0


def _cmd_rep_verify(args, config, q0):
    spec = _rep_spec(args, q0)
    pres = AlgebraPresentation(spec.pres_kind, args.n)
    space = TruncatedSpace(args.n, config.cutoff)
    out = relation_residual(pres, spec, space)
    checks = _residual_checks("relation", out["per_relation"], config.tolerance)
    passed = out["max_residual"] <= config.tolerance and not out["empty_interior"]
    report = {
        "command": "rep verify",
        "status": "ok" if passed else "fail",
        **_rep_echo(args, spec, config),
        "tolerance": config.tolerance,
        "max_residual": out["max_residual"],
        "empty_interior": out["empty_interior"],
        "checks": checks,
    }
    return report, 0 if passed else 1


def _cmd_rep_sectors(args, config, q0):
    spec = _rep_spec(args, q0)
    space = TruncatedSpace(args.n, config.cutoff)
    out = sector_split_check(spec, args.m, space)
    # an off-sector entry is never zero, so a generator is invariant exactly when its max is 0
    maxima = {label: info["max_off_sector"] for label, info in out["generators"].items()}
    checks = _residual_checks("sector", maxima, 0.0)
    report = {
        "command": "rep sectors",
        "status": "ok" if out["all_invariant"] else "fail",
        "family": args.family,
        "n": args.n,
        "m": args.m,
        "q0": str(spec.q0),
        "cutoff": config.cutoff,
        "all_invariant": out["all_invariant"],
        "checks": checks,
        "control_z0": out["control_z0"],
    }
    return report, 0 if out["all_invariant"] else 1


def _cmd_rep_fredholm(args, config, q0):
    pres = AlgebraPresentation.sphere(args.n)
    element = parse_expression(args.expression, pres)
    out = fredholm_trace(element, args.n, args.m, _require_q0(q0), config.cutoff)
    report = {
        "command": "rep fredholm",
        "status": "ok",
        "n": args.n,
        "m": args.m,
        "q0": str(q0),
        "cutoff": config.cutoff,
        "input": args.expression,
        "partial_trace": out["partial_trace"],
        "tail_bound": out["tail_bound"],
        "series_partial": out["series_partial"],
        "series_closed_form": out["series_closed_form"],
        "series_gap": out["series_gap"],
    }
    return report, 0


# -- the verification battery -------------------------------------------------


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


def _cmd_suite(args, config, q0):
    names = [name for name, _ in SUITE_CHECKS]
    if args.select:
        selected = []
        for part in args.select.split(","):
            part = part.strip()
            if part not in names:
                raise UsageError(f"unknown check {part!r}; choose from {', '.join(names)}")
            selected.append(part)
    else:
        selected = names
    table = dict(SUITE_CHECKS)
    checks = [table[name](config) for name in selected]
    all_passed = all(c["status"] == "pass" for c in checks)
    report = {
        "command": "suite",
        "status": "ok" if all_passed else "fail",
        "seed": config.seed,
        "tolerance": config.tolerance,
        "all_passed": all_passed,
        "checks": checks,
    }
    return report, 0 if all_passed else 1


# -- argv wiring --------------------------------------------------------------


def _add_space_options(parser, kinds=SPACE_KINDS):
    parser.add_argument("--space", choices=kinds, default="sphere")
    parser.add_argument("--n", type=int)
    parser.add_argument("--weights", type=_parse_weights)
    parser.add_argument("--N", type=int)


def _add_config_options(parser):
    parser.add_argument("--q0", type=parse_rational)
    parser.add_argument("--cutoff", type=int)
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output")
    parser.add_argument("--config")


def _add_rep_options(parser):
    parser.add_argument("--family", choices=("sphere", "bar", "sigma"), default="sphere")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--lam")
    parser.add_argument("--k", type=int)
    parser.add_argument("--sign", type=int, choices=(1, -1), default=1)


@functools.cache
def build_parser():
    """The qwp argument parser, built on the first call and shared after it.

    It keeps no state between parses: ``run_command`` points argparse's
    help and error output at its own streams for the length of one parse.
    """
    parser = argparse.ArgumentParser(
        prog="qwp",
        description="Exact and numerical checks for quantum weighted projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="parse an expression and print its normal form")
    p.add_argument("expression")
    _add_space_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_normalize)

    grading = sub.add_parser("grading", help="degrees and strong-grading certificates")
    gsub = grading.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("degree", help="weighted degree of an expression")
    p.add_argument("expression")
    _add_space_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_grading_degree)
    p = gsub.add_parser("certify", help="construct and verify resolutions of identity")
    p.add_argument(
        "--degrees",
        help="comma-separated degree list, default 1,-1; write a list that starts "
        "with a negative degree as --degrees=-1,2",
    )
    _add_space_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_grading_certify)

    ktheory = sub.add_parser("ktheory", help="K-groups via integer matrix normal forms")
    ksub = ktheory.add_subparsers(dest="subcommand", required=True)
    p = ksub.add_parser("lens", help="lens space K-groups from the endomorphism matrix")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--weights", type=_parse_weights, required=True)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_lens)
    p = ksub.add_parser("teardrop", help="K-groups of the one-weight projective quotient")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_teardrop)
    p = ksub.add_parser("real-teardrop", help="K0 candidate list for the real quotient")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_real_teardrop)

    rep = sub.add_parser("rep", help="truncated representation models")
    rsub = rep.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("assemble", help="sparse matrix of an element")
    p.add_argument("expression")
    _add_rep_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_rep_assemble)
    p = rsub.add_parser("verify", help="interior residuals of the defining relations")
    _add_rep_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_rep_verify)
    p = rsub.add_parser("sectors", help="block-diagonality across congruence sectors")
    p.add_argument("--m", type=int, required=True)
    _add_rep_options(p)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_rep_sectors)
    p = rsub.add_parser("fredholm", help="partial traces of the representation difference")
    p.add_argument("expression")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_rep_fredholm)

    p = sub.add_parser("suite", help="run the full verification battery")
    p.add_argument("--select", help="comma-separated subset of checks to run")
    _add_config_options(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


def run_command(argv, stdout=None, stderr=None):
    """Dispatch argv, print one JSON report, and return the exit code."""
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    config = None
    try:
        config, q0 = _resolve_config(args)
        report, code = args.handler(args, config, q0)
    except UsageError as err:
        stderr.write(f"usage error: {err}\n")
        return 2
    except Exception as err:  # noqa: BLE001 - every failure becomes a diagnostic
        # name the command as its ok report does: "ktheory lens", not "ktheory"
        command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        diagnostic = {
            "command": command,
            "status": "error",
            "error": {"type": type(err).__name__, "message": str(err)},
        }
        _emit(diagnostic, config, stdout)
        return 1
    _emit(report, config, stdout)
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
