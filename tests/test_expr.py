"""The contraction planner of ``Expression.evaluate`` against the reference
evaluation order (pull on first use, in slot order), and the largest
intermediate support it reaches."""

from __future__ import annotations

import pytest

import quasihopf.expr as expr
from quasihopf.canonical import REGISTRY
from quasihopf.context import AlgebraContext, get_context
from quasihopf.double import build_double, double_integral
from quasihopf.expr import Expression, Fn, Hole, VarIdx
from quasihopf.intcoint import cointegral_space
from quasihopf.workbench import catalog_build
from ref_evaluate import ref_evaluate

KERNELS = ("_join", "_merge", "_map_leg", "_outer")


def _context(name: str, d2):
    return get_context(d2.presentation if name == "D(H2)" else catalog_build(name))


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_planned_evaluation_matches_reference_on_registry(name, d2):
    """Both sides of every registered identity, variables unbound, give the
    same tensor under the planner as under the reference order."""
    ctx = _context(name, d2)
    fns = ctx.lazy_functionals()
    compared = 0
    for ident_name in sorted(REGISTRY):
        ident = REGISTRY[ident_name]
        if ident.custom:
            continue
        for side in ident.build(ctx):
            planned = side.evaluate(ctx.ops, fns)
            assert planned == ref_evaluate(side, ctx.ops, None, fns), ident_name
            compared += 1
    assert compared == 2 * sum(not ident.custom for ident in REGISTRY.values())


@pytest.fixture
def against_reference(monkeypatch):
    """Every ``Expression.evaluate`` call also runs the reference order and
    must agree with it; the evaluated expressions are recorded."""
    seen: list[Expression] = []
    planned = Expression.evaluate

    def checked(self, ops, functionals=None):
        result = planned(self, ops, functionals)
        assert result == ref_evaluate(self, ops, None, functionals)
        seen.append(self)
        return result

    monkeypatch.setattr(Expression, "evaluate", checked)
    return seen


def test_planned_evaluation_matches_reference_in_constructions(h2, h8p, against_reference):
    """The Hole, VarIdx and Fn expressions that build the double's tables,
    its integral and the cointegral systems agree with the reference, on
    fresh contexts so that every canonical element is evaluated again."""
    d2 = build_double(h2)
    double_integral(d2)
    for pres in (h8p, d2.presentation):
        ctx = AlgebraContext(pres)
        for side in ("left", "right"):
            assert len(cointegral_space(ctx, side)) == 1
    outputs = [type(out) for e in against_reference for out in e.outputs]
    assert {Hole, VarIdx, Fn} <= set(outputs)


@pytest.fixture
def peak_support(monkeypatch):
    """The largest support any kernel call of ``expr`` returns; reset by
    assigning 0."""
    peak = [0]

    def recording(kernel):
        def run(*args):
            out = kernel(*args)
            peak[0] = max(peak[0], len(out[0]))
            return out
        return run

    for name in KERNELS:
        monkeypatch.setattr(expr, name, recording(getattr(expr, name)))
    return peak


@pytest.mark.parametrize("name", ["normdefmodelem", "fvfformunim", "app2"])
def test_peak_support_on_double(d2, name, peak_support):
    """On D(H2) each side of the three largest identities stays within 65,536
    entries; pulling every source on first use peaked at 2,097,152
    (normdefmodelem), 1,048,576 (fvfformunim) and 131,072 (app2)."""
    ctx = get_context(d2.presentation)
    fns = ctx.lazy_functionals()
    lhs, rhs = REGISTRY[name].build(ctx)
    results = []
    for side in (lhs, rhs):
        side.evaluate(ctx.ops, fns)       # builds the lazy operands once
        peak_support[0] = 0
        results.append(side.evaluate(ctx.ops, fns))
        assert 0 < peak_support[0] <= 65_536
    assert results[0] == results[1]
