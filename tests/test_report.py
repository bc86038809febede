"""The for-all quantifier shared by every report row: the first differing
pair is the witness, and residuals are never summed."""

from __future__ import annotations

from quasihopf.exactnum import ONE, Scalar, ZERO
from quasihopf.multilinear import TensorElement
from quasihopf.report import VerificationReport, first_difference


def test_check_all_records_first_differing_instance():
    two = Scalar.of(2)
    table = {0: [(ONE, ONE)], 1: [(ONE, ONE), (two, ONE)], 2: [(ZERO, ONE)]}
    visited = []

    def sides(i):
        visited.append(i)
        return table[i]

    report = VerificationReport("probe")
    row = report.check_all("row", range(3), sides)
    assert not row.passed
    assert row.witness == two - ONE        # instance 1, second pair
    assert visited == [0, 1]               # nothing after the first difference


def test_check_all_visits_every_instance_of_a_passing_row():
    visited = []

    def sides(i):
        visited.append(i)
        return [(Scalar.of(i), Scalar.of(i))]

    row = VerificationReport("probe").check_all("row", [3, 1, 2], sides)
    assert row.passed and row.witness is None
    assert visited == [3, 1, 2]


def test_check_all_never_sums_residuals():
    """Two pairs whose residuals are x and -x: a summed witness would be
    zero and pass; the quantifier reports the first one."""
    x = TensorElement.basis(4, 2)
    one = TensorElement.basis(4, 0)
    pairs = [(one + x, one), (one - x, one)]
    row = VerificationReport("probe").check_all("row", [None], lambda _: pairs)
    assert not row.passed
    assert row.witness == x
    # the same holds when the two residuals come from two instances
    assert first_difference([0, 1], lambda i: [pairs[i]]) == x


def test_first_difference_of_agreeing_pairs_is_none():
    assert first_difference([], lambda i: [(ONE, ZERO)]) is None
    assert first_difference(range(4), lambda i: [(ONE, ONE)] * i) is None
