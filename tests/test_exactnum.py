"""Exact scalar arithmetic, cross-checked against an independent oracle
built on fractions.Fraction pairs."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.exactnum import (DivisionByZero, FIELD_Q, FIELD_QI, I, ONE,
                                ParseError, Scalar, ZERO, arith, invert,
                                parse_scalar, render_scalar)


# independent model: a complex number as a pair of Fractions
def model(s: Scalar) -> tuple[Fraction, Fraction]:
    return (s.re, s.im)


def model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def model_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def model_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


OMEGA_PLUS = Scalar.gaussian(Fraction(1, 2), Fraction(1, 2))
OMEGA_MINUS = Scalar.gaussian(Fraction(1, 2), Fraction(-1, 2))


def test_omega_times_conjugate_is_one_half():
    # oracle: direct complex multiplication on Fraction pairs
    expected = model_mul(model(OMEGA_PLUS), model(OMEGA_MINUS))
    assert expected == (Fraction(1, 2), Fraction(0))
    assert arith("mul", OMEGA_PLUS, OMEGA_MINUS) == Scalar.rational(1, 2)


def test_add_halves():
    assert arith("add", Scalar.rational(1, 2), Scalar.rational(1, 2)) == ONE


def test_i_squared():
    assert arith("mul", I, I) == Scalar.of(-1)


def test_field_tag_join():
    a = Scalar.rational(1, 2)
    assert a.field_tag == FIELD_Q
    prod = arith("mul", OMEGA_PLUS, OMEGA_MINUS)
    assert prod == Scalar.rational(1, 2)
    assert prod.field_tag == FIELD_QI  # the join of two Gaussian operands
    assert prod == a                   # but equality sees only the value


def test_invert_examples():
    assert invert(Scalar.of(2)) == Scalar.rational(1, 2)
    assert invert(I) == -I
    # conjugate-over-norm oracle: |omega|^2 = 1/2, so 1/omega = conj/norm
    for omega in (OMEGA_PLUS, OMEGA_MINUS):
        norm = omega.re ** 2 + omega.im ** 2
        assert norm == Fraction(1, 2)
        expected = Scalar.gaussian(omega.re / norm, -omega.im / norm)
        assert invert(omega) == expected
        assert invert(omega) * omega == ONE
    assert invert(OMEGA_PLUS) == Scalar.gaussian(1, -1)


def test_invert_zero_raises():
    with pytest.raises(DivisionByZero):
        invert(ZERO)


def test_parse_render_examples():
    assert parse_scalar("1/2+1/2*i") == OMEGA_PLUS
    assert parse_scalar("0") == ZERO
    assert parse_scalar("-3/4") == Scalar.rational(-3, 4)
    assert parse_scalar("2/4") == Scalar.rational(1, 2)
    assert render_scalar(OMEGA_PLUS) == "1/2+1/2*i"
    assert render_scalar(OMEGA_MINUS) == "1/2-1/2*i"
    assert render_scalar(-I) == "0-1*i"


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("x", 0),
    ("1/", 2),
    ("1/0", 2),
    ("1+2", 3),
    ("1+2*j", 3),
    ("1*i", 1),
    ("1+1*i9", 5),
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset


def _random_scalar(rng: random.Random) -> Scalar:
    num = rng.randint(-40, 40)
    den = rng.randint(1, 12)
    if rng.random() < 0.5:
        return Scalar.rational(num, den)
    return Scalar.gaussian(Fraction(num, den),
                           Fraction(rng.randint(-40, 40), rng.randint(1, 12)))


def test_field_axioms_randomized():
    """Associativity, commutativity, distributivity and inverses on ten
    thousand random triples, against the Fraction-pair oracle."""
    rng = random.Random(20260808)
    for _ in range(10_000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert model(a * b) == model_mul(model(a), model(b))
        assert model(a + b) == model_add(model(a), model(b))
        assert model(a - b) == model_sub(model(a), model(b))
        if not a.is_zero():
            assert a * invert(a) == ONE


scalar_strategy = st.builds(
    Scalar.gaussian,
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 99)),
    st.builds(Fraction, st.integers(-999, 999), st.integers(1, 99)))


@given(scalar_strategy, scalar_strategy, scalar_strategy)
@settings(max_examples=300)
def test_field_axioms_hypothesis(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO
    if not b.is_zero():
        assert (a / b) * b == a


@given(scalar_strategy)
@settings(max_examples=300)
def test_render_parse_roundtrip(a):
    assert parse_scalar(render_scalar(a)) == a


def test_canonical_rendering_uniqueness():
    rng = random.Random(7)
    for _ in range(2_000):
        a, b = _random_scalar(rng), _random_scalar(rng)
        assert (a == b) == (render_scalar(a) == render_scalar(b))


def test_arith_rejects_unknown_op():
    with pytest.raises(ValueError):
        arith("pow", ONE, ONE)


# -- parse_scalar against the Fraction-based parser it replaced --------------


def _ref_digit_limit(digits: int, offset: int) -> None:
    """A run of more digits than the interpreter converts is a parse error
    at the run."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ParseError("too many digits", offset)


def _ref_rational(text: str, pos: int) -> tuple[Fraction, int]:
    start = pos
    if pos < len(text) and text[pos] in "+-":
        pos += 1
    digits_start = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == digits_start:
        raise ParseError("expected digits", pos)
    _ref_digit_limit(pos - digits_start, digits_start)
    num = int(text[start:pos])
    den = 1
    if pos < len(text) and text[pos] == "/":
        pos += 1
        den_start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == den_start:
            raise ParseError("expected denominator digits", pos)
        _ref_digit_limit(pos - den_start, den_start)
        den = int(text[den_start:pos])
        if den == 0:
            raise ParseError("zero denominator", den_start)
    return Fraction(num, den), pos


def ref_parse_scalar(text: str) -> Scalar:
    """The reference: both parts read as Fractions."""
    re, pos = _ref_rational(text, 0)
    im = Fraction(0)
    qi = False
    if pos < len(text):
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-' before imaginary part", pos)
        sign = -1 if text[pos] == "-" else 1
        im, pos = _ref_rational(text, pos + 1)
        im *= sign
        if not text.startswith("*i", pos):
            raise ParseError("expected '*i' after imaginary part", pos)
        pos += 2
        qi = True
        if pos != len(text):
            raise ParseError("trailing characters", pos)
    return Scalar.gaussian(re, im) if qi else Scalar.of(re)


def _outcome(parse, text: str):
    """The stored (a, b, d, field) of the result, or the error raised with
    its message."""
    try:
        s = parse(text)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return s._a, s._b, s._d, s.field_tag


PARSE_TABLE = [
    # valid
    "0", "-0", "+3", "007", "2/4", "-6/8", "3/1", "12345678901234567890/6",
    "1/2+1/2*i", "1/2-1/2*i", "0+1*i", "0-1*i", "1+0*i", "1-0*i", "0+0*i",
    "3/6-4/8*i", "-2/4+6/9*i", "1--2*i", "1+-2*i", "-1/3++2/5*i",
    # invalid
    "٣/٤", "", "x", "+", "-", "1/", "1/0", "1/00", "1/-2", "1/2/3", " 1", "1 ", "1+", "1+*i",
    "1+2", "1+2*j", "1+2*", "1*i", "1+1*i9", "1+2/0*i", "1+2/*i", "1e3", "0x10",
    "1_0", "1.5", "²", "1/²", "1+²*i",
    # a digit run beyond the interpreter's int-string limit
    pytest.param("1" * 5000, id="5000_digit_numerator"),
    pytest.param("1/" + "1" * 5000, id="5000_digit_denominator"),
]


@pytest.mark.parametrize("text", PARSE_TABLE)
def test_parse_scalar_matches_fraction_reference(text):
    """Values, field tags, stored forms, errors and their offsets agree."""
    assert _outcome(parse_scalar, text) == _outcome(ref_parse_scalar, text)


@pytest.mark.parametrize("text,offset", [("²", 0), ("1/²", 2), ("1+²*i", 2), ("-¹", 1)])
def test_non_decimal_digit_is_a_parse_error(text, offset):
    """A character that ``str.isdigit`` accepts but ``int`` does not, such as
    a superscript, is where the digits end, not a bare ValueError."""
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert err.value.offset == offset


def test_parse_scalar_matches_reference_on_rendered_scalars():
    rng = random.Random(11)
    for _ in range(2_000):
        a = _random_scalar(rng)
        den = rng.randint(1, 9)
        for text in (render_scalar(a), f"{a.re.numerator * den}/{a.re.denominator * den}"
                     f"+{abs(a.im.numerator) * den}/{a.im.denominator * den}*i"):
            assert _outcome(parse_scalar, text) == _outcome(ref_parse_scalar, text), text
