"""Exact scalar arithmetic in Q and in the Gaussian field Q(i).

Values are stored as (a + b*i)/d with integer a, b and positive integer d,
kept in lowest terms (gcd(a, b, d) = 1).  Every operation is exact; there
is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

FIELD_Q = "Q"
FIELD_QI = "QI"


class DivisionByZero(ArithmeticError):
    """Raised when inverting the zero scalar."""


class ParseError(ValueError):
    """Malformed scalar text; ``offset`` is the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Scalar:
    """An exact element of Q or Q(i).

    Equality and hashing depend only on the value; the ``field_tag`` records
    the ambient field (the join of the operands' fields) and is carried along
    but never influences comparisons.
    """

    __slots__ = ("_a", "_b", "_d", "_qi")

    def __init__(self, a: int, b: int, d: int, qi: bool = False, _reduced: bool = False):
        if d == 0:
            raise DivisionByZero("scalar with zero denominator")
        if not _reduced:
            if d < 0:
                a, b, d = -a, -b, -d
            g = gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        self._a = a
        self._b = b
        self._d = d
        self._qi = qi or b != 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, value: int | Fraction) -> "Scalar":
        f = Fraction(value)
        return cls(f.numerator, 0, f.denominator, False, _reduced=True)

    @classmethod
    def rational(cls, num: int, den: int = 1) -> "Scalar":
        return cls(num, 0, den)

    @classmethod
    def gaussian(cls, re: int | Fraction, im: int | Fraction) -> "Scalar":
        fr, fi = Fraction(re), Fraction(im)
        d = fr.denominator * fi.denominator // gcd(fr.denominator, fi.denominator)
        return cls(fr.numerator * (d // fr.denominator), fi.numerator * (d // fi.denominator), d, True)

    # -- inspection --------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def field_tag(self) -> str:
        return FIELD_QI if self._qi else FIELD_Q

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            na, nb, d = self._a + other._a, self._b + other._b, d1
        else:
            na = self._a * d2 + other._a * d1
            nb = self._b * d2 + other._b * d1
            d = d1 * d2
        if d != 1:
            g = gcd(na, nb, d)
            if g > 1:
                na //= g
                nb //= g
                d //= g
        out = object.__new__(Scalar)
        out._a, out._b, out._d = na, nb, d
        out._qi = self._qi or other._qi
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        out._qi = self._qi
        return out

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        b1, b2 = self._b, other._b
        if b1 == 0 and b2 == 0:
            na, nb = self._a * other._a, 0
        else:
            a1, a2 = self._a, other._a
            na = a1 * a2 - b1 * b2
            nb = a1 * b2 + b1 * a2
        d = self._d * other._d
        if d != 1:
            g = gcd(na, nb, d)
            if g > 1:
                na //= g
                nb //= g
                d //= g
        out = object.__new__(Scalar)
        out._a, out._b, out._d = na, nb, d
        out._qi = self._qi or other._qi
        return out

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        n = self._a * self._a + self._b * self._b
        return Scalar(self._a * self._d, -self._b * self._d, n, self._qi)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def conjugate(self) -> "Scalar":
        return Scalar(self._a, -self._b, self._d, self._qi, _reduced=True)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"Scalar({render_scalar(self)!r})"

    def __str__(self) -> str:
        return render_scalar(self)


ZERO = Scalar(0, 0, 1, _reduced=True)
ONE = Scalar(1, 0, 1, _reduced=True)
MINUS_ONE = Scalar(-1, 0, 1, _reduced=True)
I = Scalar(0, 1, 1, True, _reduced=True)
HALF = Scalar(1, 0, 2, _reduced=True)


def arith(op: str, a: Scalar, b: Scalar) -> Scalar:
    """Dispatch ``add``/``sub``/``mul`` by name (the wire-level entry point)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown scalar operation {op!r}")


def invert(a: Scalar) -> Scalar:
    return a.inverse()


# -- numerator form ------------------------------------------------------------
#
# Many scalars over one shared denominator den > 0: each becomes an integer
# numerator, a plain int over Q or an (re, im) pair of ints over Q(i).  The
# sparse kernels of ``multilinear`` and the fraction-free elimination work
# on this form and turn back into Scalars only at their boundary.


def common_denominator(values: Iterable[Scalar]) -> tuple[int, bool]:
    """The least common denominator of ``values``, and whether any of them
    has a nonzero imaginary part."""
    den, qi = 1, False
    for s in values:
        d = s._d
        if den % d:
            den = den // gcd(den, d) * d
        if s._b:
            qi = True
    return den, qi


def numerator(s: Scalar, den: int, qi: bool) -> int | tuple[int, int]:
    """The numerator of ``s`` over ``den`` (a multiple of its denominator):
    an (re, im) pair when ``qi``, else an int (the imaginary part must be 0)."""
    m = den // s._d
    return (s._a * m, s._b * m) if qi else s._a * m


def from_numerator(num: int | tuple[int, int], den: int, qi: bool) -> Scalar:
    """The Scalar ``num / den`` in lowest terms (``den`` > 0)."""
    a, b = num if qi else (num, 0)
    if den != 1:
        g = gcd(a, b, den)
        if g > 1:
            a //= g
            b //= g
            den //= g
    out = object.__new__(Scalar)
    out._a, out._b, out._d = a, b, den
    out._qi = qi or b != 0
    return out


# -- text form ---------------------------------------------------------------
#
# scalar   := rational ( ("+" | "-") rational "*i" )?
# rational := ("+" | "-")? digits ( "/" digits )?
#
# The canonical rendering writes the real part always, and the imaginary part
# only when nonzero, as "a+b*i" or "a-b*i" with b rendered positive.


def _render_rational(num: int, den: int) -> str:
    return str(num) if den == 1 else f"{num}/{den}"


def render_scalar(s: Scalar) -> str:
    re, im = s.re, s.im
    text = _render_rational(re.numerator, re.denominator)
    if im != 0:
        sign = "+" if im > 0 else "-"
        text += sign + _render_rational(abs(im.numerator), im.denominator) + "*i"
    return text


def _digits(text: str, start: int, pos: int, missing: str) -> tuple[int, int]:
    """``text[start:]`` up to the end of the ASCII digit run at ``pos``, as
    an int, and that end.  No run, or a run longer than the interpreter
    converts (``sys.get_int_max_str_digits``), is a parse error at ``pos``."""
    run = pos
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == run:
        raise ParseError(missing, pos)
    try:
        return int(text[start:pos]), pos
    except ValueError:
        raise ParseError("too many digits", run) from None


def _parse_rational(text: str, pos: int) -> tuple[int, int, int]:
    """The numerator, the positive denominator (not reduced) and the end
    offset of the rational at ``pos``.  A digit is an ASCII digit, as in the
    pattern of the document schema."""
    sign = 1 if pos < len(text) and text[pos] in "+-" else 0
    num, pos = _digits(text, pos, pos + sign, "expected digits")
    if pos == len(text) or text[pos] != "/":
        return num, 1, pos
    den, end = _digits(text, pos + 1, pos + 1, "expected denominator digits")
    if den == 0:
        raise ParseError("zero denominator", pos + 1)
    return num, den, end


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical text form; raises :class:`ParseError` with offset.
    A written imaginary part, "+0*i" included, tags the scalar Q(i)."""
    re, d, pos = _parse_rational(text, 0)
    if pos == len(text):
        return Scalar(re, 0, d)
    if text[pos] not in "+-":
        raise ParseError("expected '+' or '-' before imaginary part", pos)
    sign = -1 if text[pos] == "-" else 1
    im, e, pos = _parse_rational(text, pos + 1)
    if not text.startswith("*i", pos):
        raise ParseError("expected '*i' after imaginary part", pos)
    pos += 2
    if pos != len(text):
        raise ParseError("trailing characters", pos)
    return Scalar(re * e, sign * im * d, d * e, True)
