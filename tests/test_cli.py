"""Command-line layer: grammar, descriptors, reports, schemas, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import (
    replay_certify_reports,
    replay_error_reports,
    replay_rep_reports,
    run_streams,
)
from qwp import cli, grading, ktheory, star_algebra
from qwp.cli import (
    RunConfig,
    SpaceDescriptor,
    UsageError,
    build_parser,
    parse_config_file,
    parse_rational,
    report_schema,
)
from qwp.grading import ResolutionOfIdentity, verify_resolution
from qwp.parsing import (
    MAX_POWER_WORD_LENGTH,
    MAX_SCALAR_EXPONENT,
    MAX_SCALAR_POWER_BITS,
    _power_bits,
    _product_bits,
    ParseError,
    _tokenize,
    parse_expression,
    parse_scalar,
)
from qwp.scalar import QScalar, _coeff_str, _digits
from qwp.star_algebra import (
    W,
    AlgebraElement,
    AlgebraPresentation,
    InvalidGeneratorError,
    normalize,
    z,
    z_star,
)

q = QScalar.q()
S1 = AlgebraPresentation.sphere(1)
S2 = AlgebraPresentation.sphere(2)
SIG1 = AlgebraPresentation.sigma(1)


def run(argv):
    """Exit code, decoded report (or None) and the raw bytes of stdout."""
    code, text, _ = run_streams(argv)
    return code, json.loads(text) if text else None, text


# -- expression grammar --------------------------------------------------------


def test_adjacent_star_is_adjoint():
    x = parse_expression("z0*z0", S1)
    expected = AlgebraElement.one(S1) - normalize((z(1), z_star(1)), S1).scale(q ** -2)
    assert x == expected


def test_spaced_star_multiplies():
    x = parse_expression("q^2 * z1 * z0", S2)
    assert x == normalize([(q, (z(0), z(1)))], S2)


def test_unknown_index_rejected():
    with pytest.raises(InvalidGeneratorError):
        parse_expression("z9", S1)


def test_w_needs_sigma_context():
    with pytest.raises(InvalidGeneratorError):
        parse_expression("w z0", S1)
    assert not parse_expression("w z0", SIG1).is_zero()


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_expression("z0 + * z1", S1)
    assert err.value.position == 5
    assert "generator" in err.value.expected


def test_scalar_division_forms():
    assert parse_scalar("(1 - q^2)/(q^2)") == (QScalar.one() - q ** 2) / q ** 2
    assert parse_scalar("3/2") == QScalar(Fraction(3, 2))
    with pytest.raises(ParseError):
        parse_scalar("z0")


def test_parenthesised_sums_scale():
    x = parse_expression("q * (z0 + 2 z1)", S1)
    assert x == normalize([(q, (z(0),)), (2 * q, (z(1),))], S1)


def test_one_character_tokens():
    assert _tokenize("w q + - / ^ ( )") == [
        ("gen", W, 0, 1),
        ("q", None, 2, 3),
        ("op", "+", 4, 5),
        ("op", "-", 6, 7),
        ("op", "/", 8, 9),
        ("op", "^", 10, 11),
        ("lparen", None, 12, 13),
        ("rparen", None, 14, 15),
        ("end", None, 15, 15),
    ]
    # a star glued to a generator is its adjoint; a spaced star multiplies
    assert _tokenize("z0* w* z1 *") == [
        ("gen", z_star(0), 0, 3),
        ("gen", W.star(), 4, 6),
        ("gen", z(1), 7, 9),
        ("op", "*", 10, 11),
        ("end", None, 11, 11),
    ]


@pytest.mark.parametrize(
    "text, position",
    [
        ("z0 + 2\u00b2", 6),  # superscript two after an integer
        ("q^\u00b2", 2),
        ("\u0663 z0", 0),  # Arabic-Indic three
        ("z\u00b2", 0),  # a z without ASCII digits is refused at the z
    ],
)
def test_only_ascii_digits_are_read(text, position):
    with pytest.raises(ParseError) as err:
        parse_expression(text, S1)
    assert err.value.position == position


_STEP = st.tuples(st.integers(min_value=0, max_value=2), st.booleans())


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, max_size=6), st.integers(min_value=-3, max_value=3))
def test_print_parse_round_trip(steps, power):
    word = tuple(z_star(i) if starred else z(i) for i, starred in steps)
    x = normalize(word, S2).scale(q ** power) - AlgebraElement.one(S2)
    assert parse_expression(str(x), S2) == x


# -- descriptors and configuration ----------------------------------------------


def test_space_descriptor_validation():
    SpaceDescriptor("lens", 1, (1, 1), modulus=2)
    with pytest.raises(UsageError):
        SpaceDescriptor("lens", 1, (1, 1))
    with pytest.raises(UsageError):
        SpaceDescriptor("sphere", 1, (1, 1), modulus=2)
    with pytest.raises(UsageError):
        SpaceDescriptor("sphere", 1, (1,))
    with pytest.raises(UsageError):
        SpaceDescriptor("sphere", 1, (1, 0))
    with pytest.raises(UsageError):
        SpaceDescriptor("orbifold", 1, (1, 1))


def test_space_descriptor_gradings():
    cyclic = SpaceDescriptor("lens", 1, (1, 1), modulus=2).grading()
    assert cyclic.modulus == 2 and cyclic.scale == 1
    scaled = SpaceDescriptor("wp", 1, (1, 3)).grading()
    assert scaled.scale == 3 and scaled.modulus == 0
    real = SpaceDescriptor("rp", 1, (1, 2)).grading()
    assert real.pres.kind == "sigma" and real.scale == 2
    plain = SpaceDescriptor("sigma", 2, (1, 1, 2)).grading()
    assert plain.scale == 1 and plain.modulus == 0


def test_rational_flag_parsing():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("3") == Fraction(3)
    for bad in ("0.5", "1e-3", "1/0", "q"):
        with pytest.raises(UsageError):
            parse_rational(bad)


def test_run_config_validation():
    with pytest.raises(UsageError):
        RunConfig(cutoff=0)
    for tolerance in (0.0, float("inf"), float("nan")):
        with pytest.raises(UsageError):
            RunConfig(tolerance=tolerance)
    with pytest.raises(UsageError):
        RunConfig(q0=Fraction(3, 2))


def test_config_file_round(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = 4  # small space\n\ntolerance = 1e-10\nq0 = 1/3\n")
    assert parse_config_file(cfg) == {"cutoff": "4", "tolerance": "1e-10", "q0": "1/3"}
    code, report, _ = run(
        ["rep", "verify", "--family", "sphere", "--n", "1", "--config", str(cfg)]
    )
    assert code == 0
    assert report["cutoff"] == 4 and report["q0"] == "1/3" and report["tolerance"] == 1e-10


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = 4\nq0 = 1/3\n")
    code, report, _ = run(
        ["rep", "verify", "--family", "sphere", "--n", "1", "--cutoff", "6", "--config", str(cfg)]
    )
    assert code == 0 and report["cutoff"] == 6 and report["q0"] == "1/3"


def test_config_refuses_float_q0(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q0 = 0.5\n")
    code, _, text = run(["rep", "verify", "--family", "sphere", "--n", "1", "--config", str(cfg)])
    assert code == 2 and text == ""


def test_numeric_flags_read_ascii_digits_only(tmp_path):
    # int(), float() and Fraction read any Unicode decimal digit and "_" separators
    for argv in (
        ["rep", "verify", "--n", "\u0663", "--q0", "\u0661/\u0662", "--cutoff", "1_0"],
        ["rep", "verify", "--n", "\u0663", "--q0", "1/2"],
        ["rep", "verify", "--n", "1", "--q0", "\u0661/\u0662"],
        ["rep", "verify", "--n", "1", "--q0", "1/2", "--cutoff", "1_0"],
        ["rep", "verify", "--n", "1", "--q0", "1/2", "--tolerance", "1e-1_2"],
        ["rep", "verify", "--n", "1", "--q0", "1/2", "--lam", "\u0661/\u0664"],
        ["ktheory", "lens", "--N", "\u0663", "--weights", "\u0661,1,2"],
        ["ktheory", "teardrop", "\u0662", "3"],
        ["grading", "certify", "--space", "wp", "--weights", "1,2", "--degrees=\u0661"],
        ["suite", "--select", "power-products", "--seed", "\u0665"],
    ):
        code, out, _ = run_streams(argv)
        assert code == 2 and out == "", argv
    cfg = tmp_path / "digits.cfg"
    cfg.write_text("cutoff = \u0661\u0660\n", encoding="utf-8")
    code, out, err = run_streams(["rep", "verify", "--n", "1", "--q0", "1/2", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert "bad config value for cutoff" in err


def test_tolerance_must_be_finite(tmp_path):
    # an infinite tolerance passes every residual check and has no JSON spelling
    for text in ("inf", "Infinity", "-inf", "nan", "1e400"):
        code, out, err = run_streams(
            ["rep", "verify", "--n", "1", "--q0", "1/2", "--cutoff", "3", f"--tolerance={text}"]
        )
        assert code == 2 and out == "" and "tolerance must be positive and finite" in err, text
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("tolerance = inf\nq0 = 1/2\n")
    code, out, _ = run_streams(["rep", "verify", "--n", "1", "--config", str(cfg)])
    assert code == 2 and out == ""


def test_non_finite_report_values_are_errors(monkeypatch):
    with pytest.raises(ValueError):
        cli.render_report({"max_residual": float("nan")})
    nan_residual = {"per_relation": {"r": float("nan")}, "max_residual": float("nan"),
                    "empty_interior": False}
    monkeypatch.setattr(cli, "relation_residual", lambda pres, spec, space: nan_residual)
    code, report, text = run(["rep", "verify", "--n", "1", "--q0", "1/2", "--cutoff", "3"])
    assert code == 1 and report["status"] == "error" and report["command"] == "rep verify"
    assert report["error"]["type"] == "ValueError" and "NaN" not in text
    jsonschema.validate(report, report_schema("error"))


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = blue\n")
    assert run(["suite", "--select", "power-products", "--config", str(cfg)])[0] == 2


# the config options each command declares: the ones its handler reads
DECLARED_OPTIONS = {
    "normalize": ((), ["normalize", "z0", "--n", "1"]),
    "grading degree": ((), ["grading", "degree", "z0", "--n", "1"]),
    "grading certify": ((), ["grading", "certify", "--space", "wp", "--weights", "1,2"]),
    "ktheory lens": ((), ["ktheory", "lens", "--N", "3", "--weights", "1,1,2"]),
    "ktheory teardrop": ((), ["ktheory", "teardrop", "1", "1"]),
    "ktheory real-teardrop": ((), ["ktheory", "real-teardrop", "1", "1"]),
    "rep assemble": (("q0", "cutoff"), ["rep", "assemble", "z0", "--n", "1"]),
    "rep verify": (("q0", "cutoff", "tolerance"), ["rep", "verify", "--n", "1"]),
    "rep sectors": (("q0", "cutoff"), ["rep", "sectors", "--n", "1", "--m", "2"]),
    "rep fredholm": (("q0", "cutoff"), ["rep", "fredholm", "z0", "--n", "1", "--m", "1"]),
    "overlaps": ((), ["overlaps", "--n", "1"]),
    "suite": (("seed", "tolerance"), ["suite", "--select", "power-products"]),
}


def _leaf_parsers(parser, prefix=()):
    """(command name, parser) for every subcommand that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def test_each_command_declares_only_the_options_it_reads(tmp_path):
    knobs = ("q0", "cutoff", "tolerance", "seed")
    values = {"q0": "1/2", "cutoff": "4", "tolerance": "1e-3", "seed": "5"}
    declared = {}
    for name, parser in _leaf_parsers(build_parser()):
        options = {opt[2:] for action in parser._actions for opt in action.option_strings}
        declared[name] = options & {*knobs, "output", "config"}
    assert declared == {name: {*names, "output", "config"}
                        for name, (names, _) in DECLARED_OPTIONS.items()}
    for name, (names, argv) in DECLARED_OPTIONS.items():
        for knob in set(knobs) - set(names):
            code, out, err = run_streams(argv + [f"--{knob}", values[knob]])
            assert code == 2 and out == "", (name, knob)
            assert f"unrecognized arguments: --{knob}" in err, (name, knob)
    # a shared config file feeds each command only the keys it declares
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("cutoff = 0\nq0 = 3/2\n")
    lens = ["ktheory", "lens", "--N", "3", "--weights", "1,1,2"]
    assert run_streams(lens + ["--config", str(cfg)]) == run_streams(lens)
    code, out, _ = run_streams(["rep", "verify", "--family", "sphere", "--n", "1",
                                "--config", str(cfg)])
    assert code == 2 and out == ""


# -- worked command examples -----------------------------------------------------


def test_teardrop_command():
    code, report, _ = run(["ktheory", "teardrop", "2", "3"])
    assert code == 0
    assert report["K0"] == {"rank": 5, "torsion": []}
    assert report["K1"] == {"rank": 0, "torsion": []}


def test_real_teardrop_command():
    code, report, _ = run(["ktheory", "real-teardrop", "2", "1"])
    assert code == 0
    assert report["K0_candidates"] == [
        {"rank": 1, "torsion": [2, 2]},
        {"rank": 1, "torsion": [4]},
    ]


def test_lens_command():
    code, report, _ = run(["ktheory", "lens", "--N", "3", "--weights", "1,1,2"])
    assert code == 0
    assert report["K1"] == {"rank": 1, "torsion": []}
    assert report["K0"] == {"rank": 1, "torsion": [3, 3]}
    assert report["formula_check"]["matches"] is True


def test_lens_size_budget_exits_one(monkeypatch):
    class PhiBuilt(Exception):
        pass

    def no_phi(d):
        # the budget must be checked before the dense N(n+1)-square Phi is built
        raise PhiBuilt(f"built Phi of size {d.size}")

    monkeypatch.setattr(ktheory, "phi_matrix", no_phi)
    for N, weights in ((100000, "1,3"), (ktheory.MAX_LENS_SIZE + 1, "1"), (501, "1,2")):
        code, report, _ = run(["ktheory", "lens", "--N", str(N), "--weights", weights])
        assert code == 1 and report["status"] == "error", N
        assert report["error"]["type"] == "ValueError", N
        assert "MAX_LENS_SIZE" in report["error"]["message"], N
        jsonschema.validate(report, report_schema("error"))
    # a descriptor at the budget gets as far as building Phi
    code, report, _ = run(["ktheory", "lens", "--N", "500", "--weights", "1,3"])
    assert code == 1 and report["error"]["type"] == "PhiBuilt"


def test_teardrop_size_budget_exits_one():
    for kind in ("teardrop", "real-teardrop"):
        argv = ["ktheory", kind, "1", "1000000"]
        start = time.perf_counter()
        code, report, _ = run(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 1 and report["status"] == "error", argv
        assert report["error"]["type"] == "ValueError", argv
        assert "MAX_TEARDROP_SIZE" in report["error"]["message"], argv
        jsonschema.validate(report, report_schema("error"))


def test_cube_budget_exits_one():
    for argv in (
        ["rep", "verify", "--family", "sphere", "--n", "3", "--q0", "1/2", "--cutoff", "1000"],
        ["rep", "fredholm", "z0 z0*", "--n", "3", "--m", "1", "--q0", "1/2", "--cutoff", "1000"],
    ):
        start = time.perf_counter()
        code, report, _ = run(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 1 and report["status"] == "error", argv
        assert report["error"]["type"] == "ValueError", argv
        assert "MAX_CUBE_POINTS" in report["error"]["message"], argv
        jsonschema.validate(report, report_schema("error"))


def test_presentation_budget_exits_one():
    # the default weights (1,) * (n + 1) must not be built for this n
    start = time.perf_counter()
    code, report, _ = run(["normalize", "z0", "--n", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and report["status"] == "error"
    assert report["error"]["type"] == "ValueError"
    assert "MAX_PRESENTATION_N" in report["error"]["message"]
    jsonschema.validate(report, report_schema("error"))


def test_certify_lens_pairs_reverify():
    code, report, _ = run(["grading", "certify", "--space", "lens", "--N", "2", "--weights", "1,1"])
    assert code == 0 and report["verified"] is True
    g = SpaceDescriptor("lens", 1, (1, 1), modulus=2).grading()
    for entry in report["degrees"]:
        assert entry["certified"]
        pairs = tuple(
            (parse_expression(a, S1), parse_expression(b, S1)) for a, b in entry["pairs"]
        )
        res = ResolutionOfIdentity(entry["degree"], pairs)
        assert verify_resolution(res, g)["valid"]


def test_certify_reports_failure_without_raising():
    # weights with no unit first entry leave the Z-grading route unconstructed
    code, report, _ = run(["grading", "certify", "--space", "sphere", "--weights", "2,3"])
    assert code == 1
    assert report["status"] == "fail" and report["verified"] is False
    assert all(not entry["certified"] for entry in report["degrees"])
    jsonschema.validate(report, report_schema("grading certify"))


def test_normalize_command_round_trips():
    code, first, _ = run(["normalize", "z0*z0", "--n", "1"])
    assert code == 0 and first["term_count"] == 2
    code, second, _ = run(["normalize", first["printed"], "--n", "1"])
    assert code == 0 and second["printed"] == first["printed"]
    assert second["element"] == first["element"]


def test_degree_command_inhomogeneous():
    code, report, _ = run(["grading", "degree", "z0 + z0 z1*", "--n", "1", "--weights", "1,2"])
    assert code == 0
    assert report["homogeneous"] is False and report["degree"] is None
    assert set(report["components"]) == {"1", "-1"}


def test_assemble_command_entries():
    code, report, _ = run(
        ["rep", "assemble", "z1", "--family", "sphere", "--n", "1", "--q0", "1/2", "--cutoff", "2"]
    )
    assert code == 0 and report["dim"] == 3 and report["shift"] == 0
    assert report["entries"] == [[0, 0, 0.5, 0.0], [1, 1, 0.25, 0.0], [2, 2, 0.125, 0.0]]


def test_fredholm_command_values():
    code, report, _ = run(
        ["rep", "fredholm", "z0 z0*", "--n", "2", "--m", "1", "--q0", "1/2", "--cutoff", "8"]
    )
    assert code == 0
    assert report["series_closed_form"] == 4.0
    assert 0 <= report["series_gap"] <= report["tail_bound"]


# -- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_two():
    assert run(["nonsense"])[0] == 2
    assert run(["rep", "verify", "--family", "sphere", "--n", "1"])[0] == 2
    assert run(["rep", "verify", "--family", "bar", "--n", "1", "--q0", "1/2"])[0] == 2
    assert run(["rep", "verify", "--family", "sphere", "--n", "1", "--q0", "1/2", "--k", "1"])[0] == 2
    assert run(["rep", "verify", "--family", "sphere", "--n", "1", "--q0", "1/2",
                "--sign", "-1"])[0] == 2
    assert run(["rep", "verify", "--family", "bar", "--n", "1", "--q0", "1/2", "--k", "1",
                "--sign", "-1"])[0] == 2
    assert run(["rep", "verify", "--family", "sphere", "--n", "1", "--q0", "0.5"])[0] == 2
    assert run(["normalize", "z0", "--n", "1", "--q0", "3/2"])[0] == 2
    # rep fredholm refuses a q0 outside (0, 1) as the other q0 commands do
    assert run(["rep", "fredholm", "z0*", "--n", "1", "--m", "1", "--q0", "3/2"])[0] == 2
    assert run(["rep", "fredholm", "z0*", "--n", "1", "--m", "1", "--q0", "1"])[0] == 2
    # and asks for q0 before it parses the expression
    assert run(["rep", "fredholm", "z9", "--n", "1", "--m", "1"])[0] == 2
    assert run(["suite", "--select", "bogus"])[0] == 2
    assert run(["grading", "certify", "--weights", "1,2", "--method", "triangular"])[0] == 2
    assert run(["grading", "certify", "--weights", "1,2", "--degree-cap", "3"])[0] == 2
    # ktheory lens takes --N and --weights only, and needs both
    assert run(["ktheory", "lens", "--N", "3", "--weights", "1,1,2", "--space", "sigma"])[0] == 2
    assert run(["ktheory", "lens", "--N", "3"])[0] == 2


def test_computation_errors_exit_one():
    code, report, _ = run(["normalize", "z9", "--n", "1"])
    assert code == 1 and report["status"] == "error"
    assert report["error"]["type"] == "InvalidGeneratorError"
    jsonschema.validate(report, report_schema("error"))
    code, report, _ = run(["normalize", "z0 +", "--n", "1"])
    assert code == 1 and report["error"]["type"] == "ParseError"
    code, report, _ = run(["normalize", "0^-1 z0", "--n", "1"])
    assert code == 1 and report["error"]["type"] == "ParseError"
    assert report["error"]["message"] == "division by zero at position 1"


def test_scalar_exponent_budget_exits_one(monkeypatch):
    power = QScalar.__pow__

    def bounded_power(self, k):
        # the budget must be checked before any large power is built
        assert abs(k) <= MAX_SCALAR_EXPONENT, f"built a power with exponent {k}"
        return power(self, k)

    monkeypatch.setattr(QScalar, "__pow__", bounded_power)
    over = MAX_SCALAR_EXPONENT + 1
    for text in ("q^100000000 z0", f"q^-{over} z0", f"{over // 2}^{over}", "(q^2)^60000 z0"):
        code, report, _ = run(["normalize", text, "--n", "1"])
        assert code == 1 and report["status"] == "error", text
        assert report["error"]["type"] == "ParseError", text
        jsonschema.validate(report, report_schema("error"))
    code, report, _ = run(["normalize", "q^-200 z0", "--n", "1"])
    assert code == 0 and report["printed"] == "(1/(q^200)) z0"


def test_scalar_coefficient_budget_exits_one(monkeypatch):
    power, mul = QScalar.__pow__, QScalar.__mul__

    def bounded_power(self, k):
        # the budget must be checked before a power with huge coefficients is built
        assert _power_bits(self, k) <= MAX_SCALAR_POWER_BITS, f"built ({self})^{k}"
        return power(self, k)

    def bounded_mul(self, other):
        # and before a product with huge coefficients is built
        if isinstance(other, QScalar):
            assert _product_bits(self, other, False) <= MAX_SCALAR_POWER_BITS, "built a product"
        return mul(self, other)

    monkeypatch.setattr(QScalar, "__pow__", bounded_power)
    monkeypatch.setattr(QScalar, "__mul__", bounded_mul)
    for text in ("(1+q)^4000 z0", "(1+q)^-4000 z0", "((1+q)^700)^2 z0", "((1+q)/3)^1000 z0",
                 "(q/(1 + 2q))^2000 z0", "(1+q)^1000 (1+q)^1000 z0", "(1+q)^1000 * (1+q)^1000 z0",
                 "(1+q)^1000 z0 (1+q)^1000", "(1+q)^1000 z0 / (1+q)^-1000"):
        code, report, _ = run(["normalize", text, "--n", "1"])
        assert code == 1 and report["status"] == "error", text
        assert report["error"]["type"] == "ParseError", text
        assert f"coefficient budget of {MAX_SCALAR_POWER_BITS} bits" in report["error"]["message"]
        jsonschema.validate(report, report_schema("error"))
    # one term stays one term, so monomial bases pass however large their power
    code, report, _ = run(["normalize", "(2 q^3)^2000 z0", "--n", "1"])
    assert code == 0 and report["term_count"] == 1
    code, report, _ = run(["normalize", "(1 - q^2)^3 z0", "--n", "1"])
    assert code == 0 and report["printed"] == "(1 - 3*q^2 + 3*q^4 - q^6) z0"
    # a base whose coefficient norm is past the float range is estimated in ints
    code, report, _ = run(["normalize", "(2^1100 + q)^2 z0", "--n", "1"])
    assert code == 0 and report["term_count"] == 1
    # a product counts as the power it equals: what (1+q)^1000 passes passes here
    code, report, _ = run(["normalize", "(1+q)^500 (1+q)^500 z0", "--n", "1"])
    assert code == 0
    assert report["element"] == run(["normalize", "(1+q)^1000 z0", "--n", "1"])[1]["element"]


def test_coefficients_past_the_digit_limit_print_and_parse():
    # 2^20000 has 6021 digits, more than int <-> str converts by default
    code, report, _ = run(["normalize", "(2 q^3)^20000 z0", "--n", "1"])
    assert code == 0
    x = AlgebraElement.from_json(report["element"])
    assert x == parse_expression("(2 q^3)^20000 z0", S1)
    digits, _, power = report["element"]["terms"][0]["coeff"].partition("*")
    assert power == "q^60000" and len(digits) == 6021
    assert digits[:20] == str(2**20000 // 10**6001) and digits[-20:] == str(2**20000 % 10**20)
    c = QScalar(Fraction(3**10000, 2**20000 + 1))
    assert parse_scalar(str(c)) == c
    # an integral Fraction coefficient prints as its numerator, as str() does
    assert _coeff_str(Fraction(-(3**10000))) == _coeff_str(-(3**10000))
    assert len(_coeff_str(3**10000)) == 4772
    # past the limit _digits converts through decimal; compare with str() unlimited
    numbers = [3**12619, -(7**6000), 2**100000 - 1, -(10**30103 + 12345), 5**172268 + 1]
    assert all(abs(n) >= 10**4300 for n in numbers)  # str() refuses each of them
    printed = [_digits(n) for n in numbers]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert printed == [str(n) for n in numbers]
    finally:
        sys.set_int_max_str_digits(limit)


def test_element_power_budget_exits_one(monkeypatch):
    power = AlgebraElement.__pow__

    def bounded_power(self, k):
        # the budget must be checked before any long power is multiplied out
        assert k <= MAX_POWER_WORD_LENGTH, f"built a power with exponent {k}"
        return power(self, k)

    monkeypatch.setattr(AlgebraElement, "__pow__", bounded_power)
    over = MAX_POWER_WORD_LENGTH + 1
    for text in (f"z0^{over}", "z0^100000", f"(z0 z1*)^{over // 2 + 1}", f"(z0 - z0 + 1)^{over}",
                 f"(z0^2)^{over // 2 + 1}"):
        code, report, _ = run(["normalize", text, "--n", "1"])
        assert code == 1 and report["status"] == "error", text
        assert report["error"]["type"] == "ParseError", text
        jsonschema.validate(report, report_schema("error"))
    code, report, _ = run(["normalize", f"(z0 z1*)^{MAX_POWER_WORD_LENGTH // 2}", "--n", "1"])
    assert code == 0 and report["term_count"] == 1


# the relation residuals of sphere(1) at cutoff 4 are nonzero, so this call fails
TIGHT_VERIFY = [
    "rep", "verify", "--family", "sphere", "--n", "1",
    "--q0", "1/2", "--cutoff", "4", "--tolerance", "1e-30",
]


def test_failed_checks_exit_one():
    code, report, _ = run(TIGHT_VERIFY)
    assert code == 1 and report["status"] == "fail"
    assert any(c["status"] == "fail" for c in report["checks"])


def test_help_and_usage_errors_go_to_the_call_streams(capsys):
    code, out, err = run_streams(["ktheory", "teardrop", "--help"])
    assert code == 0 and err == ""
    assert out.startswith("usage: qwp ktheory teardrop")
    code, out, err = run_streams(["ktheory", "teardrop", "x", "1"])
    assert code == 2 and out == ""
    assert err.startswith("usage: qwp ktheory teardrop")
    assert "argument n: invalid int value: 'x'" in err
    assert capsys.readouterr() == ("", "")


def test_rejected_flag_value_names_the_reason():
    for argv, reason in (
        (["rep", "verify", "--family", "sphere", "--n", "1", "--q0", "0.5"],
         "argument --q0: '0.5' is not an exact rational; write it as p/r"),
        (["rep", "verify", "--family", "sphere", "--q0", "1/0", "--n", "1"],
         "argument --q0: bad rational '1/0'"),
        (["rep", "verify", "--n", "1", "--q0", "1/2", "--lam", "0.5"],
         "argument --lam: '0.5' is not an exact rational"),
        (["normalize", "z0", "--weights", "1,x"],
         "argument --weights: bad weights '1,x'; expected comma-separated integers"),
    ):
        code, out, err = run_streams(argv)
        assert code == 2 and out == "", argv
        assert reason in err and "invalid" not in err, err


# Every subcommand, with exit-0, exit-1 and exit-2 calls, help, --config
# and --output; the flags of one call must not reach the next.
def reuse_argvs(tmp):
    cfg = tmp / "run.cfg"
    cfg.write_text("cutoff = 4\nq0 = 1/3\n")
    return [
        ["normalize", "z0*z0", "--n", "1"],
        ["normalize", "z0 w*", "--space", "sigma", "--n", "1", "--output", str(tmp / "out.json")],
        ["normalize", "z9", "--n", "1"],
        ["grading", "degree", "z0 + z0 z1*", "--n", "1", "--weights", "1,2"],
        ["grading", "degree", "z0 z0 + z0 z1", "--space", "wp", "--weights", "1,2"],
        ["grading", "certify", "--space", "lens", "--N", "2", "--weights", "1,1"],
        ["grading", "certify", "--space", "sphere", "--weights", "2,3"],
        ["grading", "certify", "--space", "wp", "--weights", "1,2"],
        ["grading", "certify", "--weights", "1,2", "--degrees", "1,x"],
        ["ktheory", "lens", "--N", "3", "--weights", "1,1,2"],
        ["ktheory", "teardrop", "2", "3"],
        ["ktheory", "teardrop", "x", "1"],
        ["ktheory", "teardrop", "--help"],
        ["ktheory", "real-teardrop", "2", "1"],
        ["rep", "assemble", "z1", "--family", "sphere", "--n", "1", "--q0", "1/2", "--cutoff", "2"],
        ["rep", "verify", "--family", "sphere", "--n", "1", "--config", str(cfg)],
        ["rep", "verify", "--family", "sphere", "--n", "1"],
        ["rep", "verify", "--family", "sphere", "--n", "1", "--q0", "0.5"],
        ["rep", "verify", "--family", "bar", "--n", "1", "--k", "1", "--q0", "1/2",
         "--cutoff", "4", "--tolerance", "1e-30"],
        ["rep", "sectors", "--family", "sigma", "--n", "1", "--m", "2", "--q0", "1/2",
         "--cutoff", "5", "--lam", "1/4", "--sign", "-1"],
        ["rep", "fredholm", "z0 z0*", "--n", "1", "--m", "1", "--q0", "1/2", "--cutoff", "4"],
        ["overlaps", "--space", "sigma", "--n", "2"],
        ["overlaps", "--n", "0"],
        ["suite", "--select", "teardrop-k-groups,k0-alternatives", "--seed", "7"],
        ["suite", "--select", "bogus"],
        ["grading"],
        ["nonsense"],
    ]


def test_parser_reuse_leaks_nothing_between_calls(tmp_path):
    argvs = reuse_argvs(tmp_path)
    forwards = [run_streams(argv) for argv in argvs]
    backwards = [run_streams(argv) for argv in reversed(argvs)][::-1]
    assert forwards == backwards
    assert {code for code, _, _ in forwards} == {0, 1, 2}
    assert (tmp_path / "out.json").read_text() == forwards[1][1]
    assert build_parser() is build_parser()


# -- report stability -------------------------------------------------------------


def test_reports_are_byte_identical():
    for argv in (
        ["ktheory", "teardrop", "3", "2"],
        ["rep", "verify", "--family", "sigma", "--n", "1", "--q0", "1/3",
         "--cutoff", "4", "--lam", "1/4", "--sign", "-1"],
        ["suite", "--select", "power-products", "--seed", "7"],
    ):
        assert run(argv)[2] == run(argv)[2]


def test_recorded_certify_reports():
    assert replay_certify_reports() == 75


def test_recorded_rep_reports():
    assert replay_rep_reports() == 5


def test_error_reports_name_the_full_command():
    reports = replay_error_reports()
    assert len(reports) == 11
    for report in reports:
        jsonschema.validate(report, report_schema("error"))


def test_certificate_pair_budget_exits_one(monkeypatch):
    class Composed(Exception):
        pass

    def no_compose(r1, r2, g):
        # the budget must be checked before any pair is composed
        raise Composed(f"composed {len(r1.pairs)} x {len(r2.pairs)} pairs")

    monkeypatch.setattr(grading, "compose_resolutions", no_compose)
    base = ["grading", "certify", "--space", "sphere", "--weights", "1,3"]
    for degrees in ("--degrees=10", "--degrees=-6", "--degrees=1000000000000"):
        start = time.perf_counter()
        code, report, _ = run(base + [degrees])
        assert time.perf_counter() - start < 5, degrees
        assert code == 1 and report["command"] == "grading certify", degrees
        assert report["error"]["type"] == "ValueError", degrees
        assert "MAX_CERTIFICATE_PAIRS" in report["error"]["message"], degrees
        jsonschema.validate(report, report_schema("error"))
    # 3^5 = 243 pairs are within the budget and get as far as composing
    assert 3 ** 5 <= grading.MAX_CERTIFICATE_PAIRS
    code, report, _ = run(base + ["--degrees=5"])
    assert code == 1 and report["error"]["type"] == "Composed"


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    _, _, text = run(["ktheory", "teardrop", "1", "1", "--output", str(target)])
    assert target.read_text() == text


def test_unwritable_output_is_a_usage_error(tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    # an ok, a fail and an error report alike
    for argv in (["ktheory", "teardrop", "1", "1"], TIGHT_VERIFY, ["normalize", "z9", "--n", "1"]):
        code, out, err = run_streams(argv + ["--output", target])
        assert code == 2 and out == "", argv
        assert err.startswith("usage error: cannot write output") and target in err, argv


def test_config_output_that_cannot_be_written_is_a_usage_error(tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output = {target}\n")
    code, out, err = run_streams(["ktheory", "teardrop", "1", "1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot write output") and target in err


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("output = r\u00e9sum\u00e9.json\n".encode("latin-1"))
    code, out, err = run_streams(["ktheory", "teardrop", "1", "1", "--config", str(cfg)])
    assert code == 2 and out == ""
    assert err.startswith("usage error: cannot read config") and str(cfg) in err


@pytest.mark.parametrize(
    "argv,command",
    [
        (["normalize", "z0 z1*", "--n", "1"], "normalize"),
        (["grading", "degree", "z0", "--n", "1", "--weights", "1,2"], "grading degree"),
        (["grading", "certify", "--space", "lens", "--N", "2", "--weights", "1,1"],
         "grading certify"),
        (["grading", "certify", "--space", "wp", "--weights", "1,2"], "grading certify"),
        (["ktheory", "lens", "--N", "2", "--weights", "1,1"], "ktheory lens"),
        (["ktheory", "teardrop", "1", "2"], "ktheory teardrop"),
        (["ktheory", "real-teardrop", "2", "2"], "ktheory real-teardrop"),
        (["rep", "assemble", "z0 z0*", "--family", "sphere", "--n", "1",
          "--q0", "1/2", "--cutoff", "3"], "rep assemble"),
        (["rep", "verify", "--family", "bar", "--n", "1", "--k", "1",
          "--q0", "1/2", "--cutoff", "4"], "rep verify"),
        (["rep", "sectors", "--family", "sphere", "--n", "1", "--m", "2",
          "--q0", "1/2", "--cutoff", "4"], "rep sectors"),
        (["rep", "fredholm", "z0 z0*", "--n", "1", "--m", "1",
          "--q0", "1/2", "--cutoff", "4"], "rep fredholm"),
        (["suite", "--select", "teardrop-k-groups,k0-alternatives"], "suite"),
        (["grading", "degree", "z0 z0 + z0 z1", "--space", "wp", "--weights", "1,2"],
         "grading degree"),
        (["overlaps", "--space", "sigma", "--n", "3"], "overlaps"),
        (TIGHT_VERIFY, "rep verify"),
    ],
)
def test_reports_validate_against_schemas(argv, command):
    passed = argv is not TIGHT_VERIFY
    code, report, _ = run(argv)
    assert code == (0 if passed else 1), report
    assert report["command"] == command
    assert report["status"] == ("ok" if passed else "fail")
    jsonschema.validate(report, report_schema(command))


def test_sectors_command_control():
    code, report, _ = run(
        ["rep", "sectors", "--family", "sigma", "--n", "1", "--m", "2",
         "--q0", "1/2", "--cutoff", "5", "--lam", "1/4", "--sign", "-1"]
    )
    assert code == 0 and report["all_invariant"] is True
    assert report["control_z0"]["invariant"] is False
    assert all(c["max_residual"] == 0.0 for c in report["checks"])


def test_overlaps_command_proves_confluence():
    for space in ("sphere", "sigma"):
        code, report, _ = run(["overlaps", "--space", space, "--n", "3"])
        assert code == 0 and report["status"] == "ok", space
        assert report["unresolved"] == []
        checked, _ = star_algebra.unresolved_overlaps(AlgebraPresentation(space, 3))
        assert report["checked"] == checked > 0


def test_overlaps_command_exits_one_on_an_unresolved_overlap(monkeypatch):
    # drop the last correction term of z_1* z_1 in sphere(3): a wrong right-hand side
    rules = star_algebra._rules(AlgebraPresentation.sphere(3))
    broken = {**rules, (z_star(1), z(1)): rules[z_star(1), z(1)][:-1]}
    monkeypatch.setattr(star_algebra, "_rules", lambda pres: broken)
    star_algebra._compiled.cache_clear()
    try:
        code, report, _ = run(["overlaps", "--n", "3"])
    finally:
        star_algebra._compiled.cache_clear()
    assert code == 1 and report["status"] == "fail"
    assert report["unresolved"] and all(len(triple) == 3 for triple in report["unresolved"])
    assert all(isinstance(letter, str) for triple in report["unresolved"] for letter in triple)
    jsonschema.validate(report, report_schema("overlaps"))


# -- module entry point -----------------------------------------------------------


def test_python_m_qwp_matches_run_command():
    argv = ["normalize", "z0*z0", "--n", "1"]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "qwp", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    code, _, text = run(argv)
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == text
