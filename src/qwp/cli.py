"""Command-line front end: expression parsing, space descriptors, the
suite command over the battery of qwp.suite, and stable machine-readable
reports.

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
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files

from qwp.grading import (
    GradingSpec,
    INHOMOGENEOUS,
    check_strong_grading,
    degree,
    homogeneous_components,
)
from qwp.ktheory import (
    FGAbelianGroup,
    LensDescriptor,
    lens_k_groups,
    real_teardrop_k,
    teardrop_k_groups,
)
from qwp.parsing import parse_expression
from qwp.representations import (
    RepSpec,
    TruncatedSpace,
    apply_element,
    fredholm_trace,
    relation_residual,
    sector_split_check,
)
from qwp.star_algebra import MAX_PRESENTATION_N, AlgebraPresentation, unresolved_overlaps
from qwp.suite import SUITE_CHECKS


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad flags or config values; maps to exit code 2.

    argparse prints the text of an ArgumentTypeError raised by a ``type=``
    converter, where a plain ValueError becomes "invalid <name> value".
    """


SPACE_KINDS = ("sphere", "sigma", "lens", "sigma_lens", "wp", "rp")
_LENS_KINDS = ("lens", "sigma_lens")
_SIGMA_KINDS = ("sigma", "sigma_lens", "rp")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which algebra an exact command speaks about: kind, n, weights and modulus."""

    kind: str
    n: int
    weights: tuple
    modulus: int = None

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
            "q0": None,  # no exact command reads q0; the field keeps report bytes stable
        }


@dataclass(frozen=True)
class RunConfig:
    """Knobs a command declares, q0 among them, flag over config file; the rest keep defaults."""

    cutoff: int = 10
    tolerance: float = 1e-12
    output: str = None
    seed: int = 0
    q0: Fraction = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise UsageError("cutoff must be at least 1")
        if not 0 < self.tolerance < math.inf:
            raise UsageError("tolerance must be positive and finite")
        if self.q0 is not None and not 0 < self.q0 < 1:
            raise UsageError("q0 must lie strictly between 0 and 1")


# -- option parsing -----------------------------------------------------------


def _ascii(text):
    """text itself, once it is ASCII without '_': int, float and Fraction read more."""
    if not text.isascii() or "_" in text:
        raise UsageError(f"{text!r} is not written in ASCII digits")
    return text


# int and float behind _ascii, under their own names so argparse still says "invalid int value"
_int = functools.wraps(int)(lambda text: int(_ascii(text)))
_float = functools.wraps(float)(lambda text: float(_ascii(text)))


def parse_rational(text):
    """Exact rational from "p/r" or an integer literal; floats are refused."""
    text = _ascii(text.strip())
    if any(ch in text for ch in ".eE"):
        raise UsageError(f"{text!r} is not an exact rational; write it as p/r")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad rational {text!r}: {err}") from None


def _rational_text(text):
    """text itself, once parse_rational reads it, so a report echoes --lam as typed."""
    parse_rational(text)
    return text


def _parse_int_list(text, what="weights"):
    try:
        return tuple(int(part) for part in _ascii(text).split(","))
    except ValueError:
        raise UsageError(f"bad {what} {text!r}; expected comma-separated integers") from None


# each config knob with the converter of its flag and file value; RunConfig holds the defaults
_KNOBS = {"cutoff": _int, "tolerance": _float, "output": str, "seed": _int, "q0": parse_rational}


def parse_config_file(path):
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config {path!r}: {err}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOBS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _resolve_config(args):
    """Each knob the command declares: its flag, else its config-file value, else the default."""
    file_values = parse_config_file(args.config) if args.config else {}
    values = {}
    for key, convert in _KNOBS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        elif key in file_values and hasattr(args, key):
            try:
                values[key] = convert(file_values[key])
            except ValueError as err:
                raise UsageError(f"bad config value for {key}: {err}") from None
    return RunConfig(**values)


def _resolve_space(args):
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
    )


def _require_q0(config):
    """The call's q0, once it is given; RunConfig already holds it inside (0, 1)."""
    if config.q0 is None:
        raise UsageError("this command needs --q0 p/r")
    return config.q0


def _rep_spec(args, config):
    """The representation the rep flags name; RepSpec alone checks --k and --sign."""
    lam = 1 if args.lam is None else parse_rational(args.lam).as_integer_ratio()
    try:
        return RepSpec(args.family + "_pi", _require_q0(config), lam, args.k, args.sign)
    except ValueError as err:
        raise UsageError(str(err)) from None


# -- report plumbing ----------------------------------------------------------


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text, config, stdout):
    """Write the rendered report to --output, then to stdout, so a bad path leaves stdout empty."""
    if config is not None and config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as err:
            raise UsageError(f"cannot write output {config.output!r}: {err}") from None
    stdout.write(text)


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


def _to_report(result):
    """A library result as report JSON: groups by to_json, tuples as lists, dicts key by key."""
    if isinstance(result, FGAbelianGroup):
        return result.to_json()
    if isinstance(result, dict):
        return {key: _to_report(value) for key, value in result.items()}
    if isinstance(result, tuple):
        return [_to_report(value) for value in result]
    return result


# -- subcommand handlers ------------------------------------------------------


def _cmd_normalize(args, config):
    space = _resolve_space(args)
    element = parse_expression(args.expression, space.presentation)
    return {
        "space": space.to_json(),
        "input": args.expression,
        "printed": str(element),
        "term_count": len(element.terms),
        "element": element.to_json(),
    }, True


def _cmd_grading_degree(args, config):
    space = _resolve_space(args)
    g = space.grading()
    element = parse_expression(args.expression, space.presentation)
    d = degree(element, g)
    components = homogeneous_components(element, g)
    return {
        "space": space.to_json(),
        "grading": {"weights": list(g.weights), "modulus": g.modulus, "scale": g.scale},
        "input": args.expression,
        "printed": str(element),
        "homogeneous": d is not INHOMOGENEOUS,
        "degree": None if d is INHOMOGENEOUS else d,
        "components": {str(k): str(v) for k, v in components.items()},
    }, True


def _cmd_grading_certify(args, config):
    space = _resolve_space(args)
    g = space.grading()
    degrees = _parse_int_list(args.degrees, "degree list") if args.degrees else (1, -1)
    result = check_strong_grading(space.presentation, g, degrees)
    entries = []
    for d, entry in result["degrees"].items():
        res = entry["resolution"]
        verdict = entry["verification"]
        if verdict is not None:
            defect = verdict["defect"]
            verdict = {**verdict, "defect": None if defect is None else str(defect)}
        entries.append(
            {
                "degree": d,
                "certified": entry["certified"],
                "note": entry["note"],
                "pairs": None if res is None else [[str(a), str(b)] for a, b in res.pairs],
                "verification": verdict,
            }
        )
    verified = result["all_certified"]
    return {
        "space": space.to_json(),
        "grading": {"weights": list(g.weights), "modulus": g.modulus, "scale": g.scale},
        "method": "triangular",  # the only constructor; the field keeps report bytes stable
        "verified": verified,
        "degrees": entries,
    }, verified


def _cmd_ktheory_lens(args, config):
    out = lens_k_groups(LensDescriptor(args.N, args.weights))
    return {"N": args.N, "weights": list(args.weights), **_to_report(out)}, True


def _cmd_ktheory_teardrop(args, config):
    """Both teardrop commands: the complex quotient's K-groups, the real one's candidates."""
    build = teardrop_k_groups if args.subcommand == "teardrop" else real_teardrop_k
    return {"n": args.n, "m": args.m, **_to_report(build(args.n, args.m))}, True


def _rep_echo(args, spec, config):
    """The representation a rep report speaks about: its flags, exact q0 and cutoff."""
    echo = {key: getattr(args, key) for key in ("family", "n", "lam", "k", "sign")}
    return {**echo, "q0": str(spec.q0), "cutoff": config.cutoff}


def _cmd_rep_assemble(args, config):
    spec = _rep_spec(args, config)
    pres = AlgebraPresentation(spec.pres_kind, args.n)
    space = TruncatedSpace(args.n, config.cutoff)
    element = parse_expression(args.expression, pres)
    op = apply_element(element, spec, space)
    return {**_rep_echo(args, spec, config), "input": args.expression, **op.to_json()}, True


def _cmd_rep_verify(args, config):
    spec = _rep_spec(args, config)
    pres = AlgebraPresentation(spec.pres_kind, args.n)
    space = TruncatedSpace(args.n, config.cutoff)
    out = relation_residual(pres, spec, space)
    checks = _residual_checks("relation", out["per_relation"], config.tolerance)
    passed = out["max_residual"] <= config.tolerance and not out["empty_interior"]
    return {
        **_rep_echo(args, spec, config),
        "tolerance": config.tolerance,
        "max_residual": out["max_residual"],
        "empty_interior": out["empty_interior"],
        "checks": checks,
    }, passed


def _cmd_rep_sectors(args, config):
    spec = _rep_spec(args, config)
    space = TruncatedSpace(args.n, config.cutoff)
    out = sector_split_check(spec, args.m, space)
    # an off-sector entry is never zero, so a generator is invariant exactly when its max is 0
    maxima = {label: info["max_off_sector"] for label, info in out["generators"].items()}
    checks = _residual_checks("sector", maxima, 0.0)
    return {
        "family": args.family,
        "n": args.n,
        "m": args.m,
        "q0": str(spec.q0),
        "cutoff": config.cutoff,
        "all_invariant": out["all_invariant"],
        "checks": checks,
        "control_z0": out["control_z0"],
    }, out["all_invariant"]


def _cmd_rep_fredholm(args, config):
    q0 = _require_q0(config)
    pres = AlgebraPresentation.sphere(args.n)
    element = parse_expression(args.expression, pres)
    out = fredholm_trace(element, args.n, args.m, q0, config.cutoff)
    return {
        "n": args.n,
        "m": args.m,
        "q0": str(q0),
        "input": args.expression,
        **_to_report(out),
    }, True


def _cmd_overlaps(args, config):
    checked, unresolved = unresolved_overlaps(AlgebraPresentation(args.space, args.n))
    return {
        "space": args.space,
        "n": args.n,
        "checked": checked,
        "unresolved": [[str(g) for g in triple] for triple in unresolved],
    }, not unresolved


def _cmd_suite(args, config):
    table = dict(SUITE_CHECKS)
    selected = [part.strip() for part in args.select.split(",")] if args.select else list(table)
    for name in selected:
        if name not in table:
            raise UsageError(f"unknown check {name!r}; choose from {', '.join(table)}")
    checks = [table[name](config) for name in selected]
    all_passed = all(c["status"] == "pass" for c in checks)
    return {
        "seed": config.seed,
        "tolerance": config.tolerance,
        "all_passed": all_passed,
        "checks": checks,
    }, all_passed


# -- argv wiring --------------------------------------------------------------


def _add_space_options(parser):
    parser.add_argument("--space", choices=SPACE_KINDS, default="sphere")
    parser.add_argument("--n", type=_int)
    parser.add_argument("--weights", type=_parse_int_list)
    parser.add_argument("--N", type=_int)


def _add_config_options(parser, *names):
    """--output, --config and the named knobs of _KNOBS: --q0, --cutoff, --tolerance, --seed."""
    for name in (*names, "output"):
        parser.add_argument(f"--{name}", type=_KNOBS[name])
    parser.add_argument("--config")


def _add_rep_options(parser):
    parser.add_argument("--family", choices=("sphere", "bar", "sigma"), default="sphere")
    parser.add_argument("--n", type=_int, required=True)
    parser.add_argument("--lam", type=_rational_text)
    parser.add_argument("--k", type=_int)
    parser.add_argument("--sign", type=_int, choices=(1, -1), default=1)


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
    p.add_argument("--N", type=_int, required=True)
    p.add_argument("--weights", type=_parse_int_list, required=True)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_lens)
    p = ksub.add_parser("teardrop", help="K-groups of the one-weight projective quotient")
    p.add_argument("n", type=_int)
    p.add_argument("m", type=_int)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_teardrop)
    p = ksub.add_parser("real-teardrop", help="K0 candidate list for the real quotient")
    p.add_argument("n", type=_int)
    p.add_argument("m", type=_int)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_ktheory_teardrop)

    rep = sub.add_parser("rep", help="truncated representation models")
    rsub = rep.add_subparsers(dest="subcommand", required=True)
    p = rsub.add_parser("assemble", help="sparse matrix of an element")
    p.add_argument("expression")
    _add_rep_options(p)
    _add_config_options(p, "q0", "cutoff")
    p.set_defaults(handler=_cmd_rep_assemble)
    p = rsub.add_parser("verify", help="interior residuals of the defining relations")
    _add_rep_options(p)
    _add_config_options(p, "q0", "cutoff", "tolerance")
    p.set_defaults(handler=_cmd_rep_verify)
    p = rsub.add_parser("sectors", help="block-diagonality across congruence sectors")
    p.add_argument("--m", type=_int, required=True)
    _add_rep_options(p)
    _add_config_options(p, "q0", "cutoff")
    p.set_defaults(handler=_cmd_rep_sectors)
    p = rsub.add_parser("fredholm", help="partial traces of the representation difference")
    p.add_argument("expression")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--m", type=_int, required=True)
    _add_config_options(p, "q0", "cutoff")
    p.set_defaults(handler=_cmd_rep_fredholm)

    p = sub.add_parser(
        "overlaps", help="check that every overlap of the rewriting rules resolves"
    )
    p.add_argument("--space", choices=("sphere", "sigma"), default="sphere")
    p.add_argument("--n", type=_int, required=True)
    _add_config_options(p)
    p.set_defaults(handler=_cmd_overlaps)

    p = sub.add_parser("suite", help="run the full verification battery")
    p.add_argument("--select", help="comma-separated subset of checks to run")
    _add_config_options(p, "seed", "tolerance")
    p.set_defaults(handler=_cmd_suite)

    return parser


def run_command(argv, stdout=None, stderr=None):
    """Dispatch argv, print one JSON report, and return the exit code.

    A handler takes ``(args, config)``, the parsed flags and the RunConfig
    of the knobs its command declares, and returns ``(fields, passed)``:
    the report's fields, without ``command`` or ``status``, and its verdict.
    run_command adds the full command name ("ktheory lens", not "ktheory")
    and status "ok" or "fail", and exits 0 or 1 to match; a UsageError
    exits 2 and any other exception prints an exit-1 "error" report under
    the same command name.
    """
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    config = None
    try:
        try:
            config = _resolve_config(args)
            fields, passed = args.handler(args, config)
            report = {**fields, "status": "ok" if passed else "fail", "command": command}
            text = render_report(report)  # a non-finite float is an error, not a report
        except UsageError:
            raise
        except Exception as err:  # noqa: BLE001 - every failure becomes a diagnostic
            error = {"type": type(err).__name__, "message": str(err)}
            report = {"status": "error", "error": error, "command": command}
            text = render_report(report)
        _emit(text, config, stdout)
    except UsageError as err:
        stderr.write(f"usage error: {err}\n")
        return 2
    return 0 if report["status"] == "ok" else 1


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
