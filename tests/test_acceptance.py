"""Full verification battery, asserted check by check.

One default `qwp suite` run (the battery of qwp.suite) is compared byte
for byte with its recorded report (corpora.replay_suite_report), and each
test then asserts its own check's entry of that report plus spot checks.  Exact claims
(K-theory, certificates, normal forms, sector support, distinctness) use
zero tolerance; floating-point claims state theirs inline: interior
relation residuals at 1e-12 and the tail-bound series at 1e-10.
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from corpora import replay_suite_report
from qwp.ktheory import LensDescriptor, lens_k_groups, real_teardrop_k, teardrop_k_groups
from qwp.representations import RepSpec, TruncatedSpace, fredholm_trace, relation_residual
from qwp.star_algebra import AlgebraPresentation, make_named_element
from qwp.suite import SUITE_CHECKS


@pytest.fixture(scope="module")
def suite_run():
    """Stdout of one default `qwp suite` run, checked against its recorded bytes."""
    return replay_suite_report()


@pytest.fixture(scope="module")
def checks(suite_run):
    """The run's check entries by name."""
    return {entry["check"]: entry for entry in json.loads(suite_run)["checks"]}


def test_suite_report_is_recorded_bytes(checks):
    # the bytes are compared when the suite_run fixture replays the suite
    assert list(checks) == [name for name, _ in SUITE_CHECKS]


def _assert_clean(report, minimum_cases):
    assert report["status"] == "pass", report["failures"]
    assert report["failure_count"] == 0
    assert report["cases"] >= minimum_cases


def test_kernel_rank_formula_sweep(checks):
    # every modulus up to 6, every pairwise-coprime weight tuple, exact ranks
    report = checks["kernel-rank-formula"]
    _assert_clean(report, 370)
    spot = lens_k_groups(LensDescriptor(6, (1, 2, 3)))
    assert spot["K1"].rank == gcd(6, 1) + gcd(6, 2) + gcd(6, 3) - 2


def test_teardrop_k_groups_table(checks):
    report = checks["teardrop-k-groups"]
    _assert_clean(report, 20)
    out = teardrop_k_groups(4, 5)
    assert out["K0"].rank == 9 and out["K0"].invariant_factors == ()
    assert out["K1"].rank == 0 and out["K1"].invariant_factors == ()


def test_gysin_invariant_factors(checks):
    report = checks["gysin-invariants"]
    _assert_clean(report, 25)


def test_real_k0_candidate_lists(checks):
    report = checks["k0-alternatives"]
    _assert_clean(report, 15)
    low = real_teardrop_k(1, 3)["K0_candidates"]
    assert len(low) == 1 and low[0].rank == 3 and low[0].invariant_factors == (2,)


def test_grading_certificates_verify_exactly(checks):
    report = checks["grading-certificates"]
    _assert_clean(report, 54)


def test_power_product_identities(checks):
    report = checks["power-products"]
    _assert_clean(report, 30)


def test_rewriting_soundness_and_confluence(checks):
    report = checks["rewriting-confluence"]
    _assert_clean(report, 10000)
    assert report["samples"] == 10000


def test_representation_residuals_and_sectors(checks):
    report = checks["representation-residuals"]
    _assert_clean(report, 117)
    assert report["worst_residual"] <= 1e-12
    spot = relation_residual(
        AlgebraPresentation.sphere(2),
        RepSpec("sphere_pi", Fraction(3, 4), lam=(3, 7)),
        TruncatedSpace(2, 10),
    )
    assert spot["max_residual"] <= 1e-12 and not spot["empty_interior"]


def test_spectral_distinctness_with_classical_control(checks):
    report = checks["spectral-distinctness"]
    _assert_clean(report, 13)


def test_trace_convergence_and_bound_series(checks):
    report = checks["trace-convergence"]
    _assert_clean(report, 12)
    element = make_named_element("b", {"i": 0, "j": 0}, AlgebraPresentation.sphere(2))
    spot = fredholm_trace(element, 2, 1, Fraction(1, 2), 60)
    assert abs(spot["series_partial"] - 4.0) <= 1e-10
