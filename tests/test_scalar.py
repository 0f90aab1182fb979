"""Exact Q(q) arithmetic: canonical form, field axioms, evaluation."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import replay_scalars
from qwp.scalar import PoleError, QScalar, _pgcd, _pmul, _trim

q = QScalar.q()

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
polys = st.lists(rationals, min_size=0, max_size=5)


@st.composite
def scalars(draw):
    num = draw(polys)
    den = draw(polys.filter(lambda p: any(p)))
    return QScalar(num, den)


nonzero_scalars = scalars().filter(bool)


def test_monomial_product():
    assert q * q == q ** 2


def test_field_inverse_of_one_minus_q2():
    inv = QScalar.one() / (1 - q ** 2)
    assert inv * (1 - q ** 2) == QScalar.one()


def test_qinv2_minus_one_times_reciprocal():
    # (q^-2 - 1) written as (1 - q^2)/q^2, multiplied by q^2/(1 - q^2).
    lhs = QScalar([1, 0, -1], [0, 0, 1])
    rhs = q ** 2 / (1 - q ** 2)
    assert lhs * rhs == QScalar.one()
    assert lhs == q ** -2 - 1


def test_negative_powers_absorbed_into_denominator():
    s = QScalar.q(-3)
    assert s.num == (Fraction(1),)
    assert s.den == (0, 0, 0, Fraction(1))
    assert s * q ** 3 == QScalar.one()


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        q / QScalar.zero()
    with pytest.raises(ZeroDivisionError):
        QScalar(1, 0)


def test_eval_simple():
    assert (1 / (1 - q ** 2)).evaluate(Fraction(1, 2)) == Fraction(4, 3)
    assert (q ** 2).evaluate(Fraction(1, 2)) == Fraction(1, 4)


def test_eval_pole_names_point():
    with pytest.raises(PoleError) as err:
        (1 / (1 - q ** 2)).evaluate(Fraction(1))
    assert "1" in str(err.value)


def test_zero_is_canonical():
    z = q - q
    assert z.num == ()
    assert z.den == (Fraction(1),)
    assert z == QScalar.zero()
    assert not z


@given(scalars())
def test_canonicalization_idempotent(a):
    again = QScalar(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@given(scalars())
def test_denominator_monic_and_reduced(a):
    assert a.den[-1] == 1
    if a.num:
        assert len(_pgcd(a.num, a.den)) == 1
    else:
        assert a.den == (Fraction(1),)


@st.composite
def gcd_inputs(draw):
    """Two polynomials with a planted common factor; b may be a constant or a itself."""
    common = _trim(tuple(draw(polys.filter(any))))
    a = _pmul(_trim(tuple(draw(polys))), common)
    shape = draw(st.sampled_from(("planted", "constant", "equal")))
    if shape == "equal":
        return a, a
    if shape == "constant":
        return a, _trim(tuple(draw(st.lists(rationals, max_size=1))))
    return a, _pmul(_trim(tuple(draw(polys))), common)


def _sympy_poly(coeffs, x):
    return sympy.Poly([sympy.Rational(Fraction(c)) for c in reversed(coeffs)] or [0], x, domain="QQ")


@given(gcd_inputs())
def test_pgcd_matches_sympy_gcd(pair):
    a, b = pair
    x = sympy.Symbol("x")
    g = _pgcd(a, b)
    monic = tuple(Fraction(c, g[-1]) for c in g)
    ref = sympy.gcd(_sympy_poly(a, x), _sympy_poly(b, x))
    assert monic == _trim(tuple(Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())))


@settings(max_examples=60)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QScalar.zero() == a
    assert a * QScalar.one() == a
    assert a - a == QScalar.zero()


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (1 / a) == QScalar.one()


@settings(max_examples=60)
@given(scalars(), scalars(), rationals)
def test_eval_is_ring_homomorphism(a, b, q0):
    try:
        ea, eb = a.evaluate(q0), b.evaluate(q0)
        eab = (a * b).evaluate(q0)
        es = (a + b).evaluate(q0)
    except PoleError:
        return
    assert eab == ea * eb
    assert es == ea + eb


@given(scalars(), st.integers(min_value=-4, max_value=4))
def test_integer_powers(a, k):
    if not a and k < 0:
        with pytest.raises(ZeroDivisionError):
            a ** k
        return
    expected = QScalar.one()
    base = a if k >= 0 else 1 / a
    for _ in range(abs(k)):
        expected = expected * base
    assert a ** k == expected


def test_str_forms():
    assert str(QScalar.zero()) == "0"
    assert str(QScalar.one()) == "1"
    assert str(q ** 2) == "q^2"
    assert str(1 - q ** 2) == "1 - q^2"
    assert str((1 - q ** 2) / q ** 2) == "(1 - q^2)/(q^2)"
    assert str(Fraction(3, 2) * q) == "3/2*q"


def test_recorded_scalar_corpus():
    assert replay_scalars() == 1435
