"""Quantifying over h with an index leg against the per-binding loops it
replaced: the hole systems, the cointegral residual and the tables of the
double give the same answers, rows and witnesses as evaluating once per
basis element h = e_i, in basis order."""

from __future__ import annotations

import pytest

from quasihopf.canonical import _bind
from quasihopf.context import get_context
from quasihopf.double import FORMS, _didx, _scatter, build_omega
from quasihopf.expr import Expression
from quasihopf.intcoint import (_condition_systems, _left_coint_system, _nullspace,
                                _right_coint_direct_system, _solve_hole_system,
                                coinvariants_via_rho, cointegral_residual,
                                cointegral_space, dual_coactions, solve_condition)
from quasihopf.multilinear import (Functional, TensorElement, columns_of, contract,
                                   multiplication_operator)
from quasihopf.qha import make_mult
from quasihopf.workbench import catalog_build
from ref_evaluate import ref_evaluate

# the characterizations of the form "for every h"; the others have no variable
FOR_EVERY_H = ("left-iv", "right-iii")


def _context(name: str, d2):
    return get_context(d2.presentation if name == "D(H2)" else catalog_build(name))


def _bindings(ctx) -> list[dict[str, TensorElement]]:
    return [{"h": ctx.pres.basis_element(i)} for i in range(ctx.pres.dim)]


def _ref_solve(ctx, lhs: Expression, rhs: Expression, bindings) -> list[Functional]:
    """The reference loop: both sides evaluated once per binding."""
    return [Functional(vec) for vec in _nullspace(ctx.pres.dim, (
        ref_evaluate(lhs, ctx.ops, b) - ref_evaluate(rhs, ctx.ops, b)
        for b in bindings))]


def _ref_coinvariants(ctx) -> list[Functional]:
    _, rho = dual_coactions(ctx)
    _, rhs = _left_coint_system(ctx)
    return [Functional(vec) for vec in _nullspace(ctx.pres.dim, (
        table - ref_evaluate(rhs, ctx.ops, b)
        for table, b in zip(columns_of(rho), _bindings(ctx))))]


def _system(ctx, side: str) -> tuple[Expression, Expression]:
    return _left_coint_system(ctx) if side == "left" else _right_coint_direct_system(ctx)


def _ref_residual(ctx, functional: Functional, side: str):
    """The first binding whose two sides differ, and their difference."""
    lhs, rhs = _system(ctx, side)
    for i, b in enumerate(_bindings(ctx)):
        left, right = (contract(functional, ref_evaluate(e, ctx.ops, b), 0)
                       for e in (lhs, rhs))
        if left != right:
            return i, left - right
    return None, TensorElement.zero(1, ctx.pres.dim)


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_hole_systems_match_per_binding_loops(name, d2):
    """The solution lists of the cointegral systems, of every single-condition
    system and of the coinvariants of rho are those of the loops."""
    ctx = _context(name, d2)
    cop = ctx.variant_ctx("cop")
    assert cointegral_space(ctx, "left") == _ref_solve(
        ctx, *_left_coint_system(ctx), _bindings(ctx))
    assert cointegral_space(ctx, "right") == _ref_solve(
        cop, *_left_coint_system(cop), _bindings(cop))
    direct = _right_coint_direct_system(ctx)
    assert _solve_hole_system(ctx, *direct) == _ref_solve(ctx, *direct, _bindings(ctx))
    for cond, (lhs, rhs) in _condition_systems(ctx).items():
        bindings = _bindings(ctx) if cond in FOR_EVERY_H else [{}]
        assert solve_condition(ctx, cond) == _ref_solve(ctx, lhs, rhs, bindings), cond
    assert coinvariants_via_rho(ctx) == _ref_coinvariants(ctx)


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_cointegral_residual_witness_matches_per_binding_loop(name, d2):
    """For the dual-basis functionals and the solutions of the relation at
    h = e_0 alone, the witness is the loop's: the residual at the first
    basis element that differs.  On H8+- some of those solutions first fail
    beyond e_0; on H2 and D(H2) the relation at e_0 already fixes the line."""
    ctx = _context(name, d2)
    n = ctx.pres.dim
    first = set()
    for side in ("left", "right"):
        at_e0 = _ref_solve(ctx, *_system(ctx, side), _bindings(ctx)[:1])
        for wrong in [Functional.dual_basis(n, k) for k in range(n)] + at_e0:
            index, expected = _ref_residual(ctx, wrong, side)
            assert cointegral_residual(ctx, wrong, side) == expected, (side, wrong)
            first.add(index)
    assert first - {None, 0} or name in ("H2", "D(H2)")


def test_double_tables_match_per_binding_loops(h2, d2):
    """D(H2)'s multiplication and coproduct, each from one evaluation with
    h on an index leg, equal those assembled from one evaluation per
    central basis element h = e_j."""
    ctx = get_context(h2)
    n, nd = h2.dim, h2.dim * h2.dim
    (mult_form,), (cop_form,) = FORMS["mult"], FORMS["coproduct"]

    def per_j(expr: Expression) -> list[TensorElement]:
        # h bound: no index leg of its own, the others first
        return [ref_evaluate(expr, ctx.ops, b) for b in _bindings(ctx)]

    mult_entries = []
    for j, table in enumerate(per_j(_bind(ctx, mult_form, Om=build_omega(ctx)))):
        for (m, o, a, b), s in table.entries.items():
            for l in range(n):
                for k, c in h2.mult.get((o, l), ()):
                    mult_entries.append((_didx(n, a, j), _didx(n, b, l), _didx(n, m, k), s * c))
    assert make_mult(nd, mult_entries) == d2.presentation.mult

    left = [multiplication_operator(d2.presentation.mult, emb, "left").columns
            for emb in d2.embedding]
    coproduct = _scatter(nd, ((_didx(n, a, j), s, left[u][_didx(n, w, c)], (_didx(n, z, e),))
                              for j, table in enumerate(per_j(_bind(ctx, cop_form)))
                              for (w, z, u, c, e, a), s in table.entries.items()), 2)
    assert coproduct == d2.presentation.coproduct
