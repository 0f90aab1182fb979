"""Replay the recorded corpora in tests/data/ against qwp.

One function per corpus file reads it, recomputes every entry and asserts
that the result is the recorded one.  Each returns the number of entries it
checked, except two that return what a caller checks further: the error
replay returns the decoded reports, and the suite replay its report text.
The tests call these functions, so each comparison is written once.

The module imports only qwp and the standard library, so it also runs
against an install without the test extras, on any supported Python:

    PYTHONPATH=src python tests/corpora.py

Run that way it replays all nine corpora, then fails if anything outside
the standard library and qwp was imported.  The comparisons are asserts,
so it refuses to run under python -O.
"""

import sys

STARTUP_MODULES = set(sys.modules)  # before qwp, for the import audit in main()

import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from qwp.cli import run_command
from qwp.grading import (
    GradingSpec,
    TowerSpec,
    bezout_lens_resolution,
    compose_tower_resolutions,
    weighted_resolution,
)
from qwp.ktheory import LensDescriptor, _invariant_factors, gysin_matrix, phi_matrix
from qwp.parsing import parse_expression
from qwp.representations import (
    RepSpec,
    TruncatedSpace,
    apply_element,
    fredholm_trace,
    relation_residual,
    rep_generator,
    sector_split_check,
)
from qwp.scalar import _canon
from qwp.star_algebra import AlgebraPresentation, Generator, normalize

DATA = Path(__file__).parent / "data"


def _load(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))


def run_streams(argv):
    """Exit code and everything written to the stdout and stderr given to the call."""
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# -- rewriting ---------------------------------------------------------------


def _letter(token):
    if token in ("w", "w*"):
        return Generator(token, -1)
    return Generator("z*" if token.endswith("*") else "z", int(token[1:].rstrip("*")))


def replay_normal_forms():
    """Every word under both strategies, and the random walk's next draw."""
    entries = _load("normal_forms.json")["entries"]
    for trial, entry in enumerate(entries):
        pres = AlgebraPresentation(*entry["presentation"])
        word = [_letter(t) for t in entry["word"].split()]
        for strategy in ("leftmost", "random"):
            rng = random.Random(trial)
            nf = normalize(word, pres, strategy=strategy, rng=rng)
            assert str(nf) == entry["normal_form"], f"{strategy} differs on {entry['word']}"
        # the random walk's rng calls, pinned by the next draw after them
        assert rng.random() == entry["draw"], f"random walk draws differ on {entry['word']}"
    return len(entries)


# -- scalars -----------------------------------------------------------------


def _decoded(poly):
    # corpus coefficients: a JSON int is an int, a string is a Fraction
    return tuple(c if type(c) is int else Fraction(c) for c in poly)


def replay_scalars():
    entries = _load("scalars.json")["entries"]
    for entry in entries:
        out = _canon(_decoded(entry["num"]), _decoded(entry["den"]))
        assert repr(out) == entry["canon"], entry["source"]
    return len(entries)


# -- certificates ------------------------------------------------------------


def _certificate_text(r):
    return "\n".join([f"target {r.target}"] + [f"{a} ; {b}" for a, b in r.pairs])


def _build_recorded(spec):
    if spec[0] == "bezout":
        _, n, N, t = spec
        return [bezout_lens_resolution(N, n, (1,) * (n + 1), target=t)]
    if spec[0] == "weighted":
        w = tuple(spec[1:])
        out = weighted_resolution(w, pres=AlgebraPresentation.sphere(len(w) - 1))
        return [out["res_plus"], out["res_minus"]]
    _, kind, m = spec
    pres = AlgebraPresentation(kind, 1)
    w = (1, m)
    cyclic = {
        "res_plus": bezout_lens_resolution(m, 1, w, target=1, pres=pres),
        "res_minus": bezout_lens_resolution(m, 1, w, target=-1, pres=pres),
    }
    out = compose_tower_resolutions(
        TowerSpec(m), weighted_resolution(w, pres=pres), cyclic, GradingSpec(pres, w)
    )
    return [out["res_plus"], out["res_minus"]]


def replay_certificates():
    entries = _load("certificates.json")["entries"]
    for entry in entries:
        printed = [_certificate_text(r) for r in _build_recorded(entry["spec"])]
        assert printed == entry["certificates"], f"certificate differs for {entry['spec']}"
    return len(entries)


# -- K-theory ----------------------------------------------------------------


def replay_invariant_factors():
    """Factors of Phi and of the binomial matrices, as smith_normal_form gave them."""
    corpus = _load("invariant_factors.json")
    for entry in corpus["lens"]:
        M = phi_matrix(LensDescriptor(entry["N"], entry["weights"]))
        assert _invariant_factors(M) == tuple(entry["factors"]), entry
    for entry in corpus["gysin"]:
        A = gysin_matrix(entry["n"], entry["m"])
        assert _invariant_factors(A) == tuple(entry["factors"]), entry
    return len(corpus["lens"]) + len(corpus["gysin"])


# -- representations ---------------------------------------------------------


def _recorded_spec(entry):
    lam = entry["lam"]
    lam = tuple(lam) if isinstance(lam, list) else complex(lam)
    q0 = Fraction(entry["q0"])
    return RepSpec(entry["family"], q0, lam=lam, k=entry["k"], sign=entry["sign"])


def _recorded_pres(entry):
    kind = "sigma" if entry["family"] == "sigma_pi" else "sphere"
    return AlgebraPresentation(kind, entry["n"])


def _coo_digest(op):
    return hashlib.sha256(json.dumps(op.to_coo()).encode()).hexdigest()


def _sector_summary(info):
    return {"off_sector_entries": info["off_sector_entries"], "max_off_sector": repr(info["max_off_sector"])}


def replay_representations():
    """Residuals, traces, operators, generators and sector splits; returns their total."""
    corpus = _load("representations.json")
    for e in corpus["residuals"]:
        space = TruncatedSpace(e["n"], e["cutoff"])
        out = relation_residual(_recorded_pres(e), _recorded_spec(e), space)
        per = {name: repr(v) for name, v in out["per_relation"].items()}
        assert per == e["per_relation"], f"residuals differ for {e}"
    for e in corpus["traces"]:
        x = parse_expression(e["element"], AlgebraPresentation.sphere(e["n"]))
        out = fredholm_trace(x, e["n"], e["m"], Fraction(e["q0"]), e["cutoff"])
        assert repr(out["partial_trace"]) == e["partial_trace"], f"trace differs for {e}"
    for e in corpus["operators"]:
        sector = None if e["sector"] is None else tuple(e["sector"])
        space = TruncatedSpace(e["n"], e["cutoff"], sector)
        x = parse_expression(e["element"], _recorded_pres(e))
        op = apply_element(x, _recorded_spec(e), space)
        got = (len(op.entries), _coo_digest(op))
        assert got == (e["nonzeros"], e["sha256"]), f"operator differs for {e}"
    for e in corpus["generators"]:
        space = TruncatedSpace(e["n"], e["cutoff"])
        op = rep_generator(_recorded_spec(e), Generator(*e["letter"]), space)
        got = (op.shift, len(op.entries), _coo_digest(op))
        assert got == (e["shift"], e["nonzeros"], e["sha256"]), f"generator differs for {e}"
    for e in corpus["sectors"]:
        out = sector_split_check(_recorded_spec(e), e["m"], TruncatedSpace(e["n"], e["cutoff"]))
        summary = {label: _sector_summary(info) for label, info in out["generators"].items()}
        assert summary == e["generators"], f"sector summaries differ for {e}"
        assert _sector_summary(out["control_z0"]) == e["control_z0"], f"control differs for {e}"
    sections = ("residuals", "traces", "operators", "generators", "sectors")
    return sum(len(corpus[section]) for section in sections)


# -- command-line reports ----------------------------------------------------


def _replay_reports(name):
    entries = _load(name)["entries"]
    for entry in entries:
        recorded = (entry["code"], entry["stdout"], entry["stderr"])
        assert run_streams(entry["argv"]) == recorded, entry["argv"]
    return len(entries)


def replay_certify_reports():
    return _replay_reports("certify_reports.json")


def replay_rep_reports():
    # the floats in these reports pin the representation arithmetic bit for bit
    return _replay_reports("rep_reports.json")


def replay_error_reports():
    """The exit-1 reports, each naming its full command; returns them decoded.

    Recorded when a diagnostic named only the group ("ktheory" for ktheory
    lens); now it names the command as the ok report does, and no other byte
    moves.
    """
    reports = []
    for entry in _load("error_reports.json")["entries"]:
        argv = entry["argv"]
        command = " ".join(argv[:2]) if argv[0] in ("grading", "ktheory", "rep") else argv[0]
        stdout = entry["stdout"].replace(f'"command": "{argv[0]}"', f'"command": "{command}"', 1)
        assert run_streams(argv) == (entry["code"], stdout, entry["stderr"]), argv
        report = json.loads(stdout)
        assert report["command"] == command
        reports.append(report)
    return reports


def replay_suite_report():
    """One default `qwp suite` run, byte for byte; returns its report text."""
    code, text, err = run_streams(["suite"])
    assert (code, err) == (0, ""), (code, err)
    assert text == (DATA / "suite_report.json").read_text(encoding="utf-8"), "suite report differs"
    return text


def main():
    if not __debug__:
        sys.exit("tests/corpora.py compares with assert, so it cannot run under python -O")
    print(f"{replay_normal_forms()} normal forms match under both strategies")
    print(f"{replay_scalars()} canonical scalars match")
    print(f"{replay_certificates()} certificate specs match")
    print(f"{replay_invariant_factors()} invariant factor lists match")
    print(f"{replay_representations()} representation outputs match")
    print(f"{replay_certify_reports()} certify reports match")
    print(f"{replay_rep_reports()} rep reports match")
    print(f"{len(replay_error_reports())} error reports match")
    checks = json.loads(replay_suite_report())["checks"]
    print(f"the suite report of {len(checks)} checks matches")
    imported = {name.partition(".")[0] for name in set(sys.modules) - STARTUP_MODULES}
    outside = sorted(imported - set(sys.stdlib_module_names) - {"qwp"})
    assert not outside, f"imports outside the standard library: {outside}"
    print(f"{len(imported)} top-level modules imported, all standard library or qwp")


if __name__ == "__main__":
    main()
