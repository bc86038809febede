"""Integrals, cointegrals, modular data, Frobenius systems, antipode
powers and the dual coactions, pinned to the known values of the two
built-in families and a classical baseline."""

from __future__ import annotations

import sys

import pytest

import quasihopf.expr as expr
import quasihopf.multilinear as multilinear

from quasihopf.canonical import evaluate_identity
from quasihopf.context import AlgebraContext
from quasihopf.exactnum import HALF, ONE, Scalar, ZERO
from quasihopf.intcoint import (DimensionNotOne, characterization_suite,
                                coaction_report, cointegral_residual,
                                cointegral_space, comparison_elements,
                                frobenius_system, integral_report,
                                integral_space, is_unimodular,
                                nakayama_report, s4_display_readings,
                                s4_suite, s_mu_operator, solve_condition,
                                verify_frobenius, xi_report, antipode_on_integrals)
from quasihopf.multilinear import Functional, LinearOperator, TensorElement, \
    contract, mult_pointwise


def omega_scalar(sign: int) -> Scalar:
    return Scalar.gaussian(HALF.re, HALF.re * sign)


# -- integral spaces ---------------------------------------------------------------


def test_h2_integrals(h2, ctx_h2):
    left = integral_space(h2, "left")
    right = integral_space(h2, "right")
    expected = TensorElement(1, 2, {(0,): ONE, (1,): ONE})
    assert left == [expected] and right == [expected]
    assert ctx_h2.mu == h2.counit
    assert is_unimodular(ctx_h2)


def test_h8_integrals(h8p, ctx_h8p):
    assert ctx_h8p.t == TensorElement(1, 8, {(6,): ONE, (7,): ONE})
    assert ctx_h8p.r == TensorElement(1, 8, {(6,): ONE, (7,): -ONE})
    assert ctx_h8p.mu(h8p.basis_element(0)) == ONE
    assert ctx_h8p.mu(h8p.basis_element(1)) == -ONE
    assert ctx_h8p.mu(h8p.basis_element(2)).is_zero()
    assert not is_unimodular(ctx_h8p)


def test_integral_oracle_dense(h2, h8p, h8m, baseline):
    """Independent dense-matrix nullspace oracle for the integral space of
    every built-in algebra, both sides."""
    from test_multilinear import dense_nullspace_oracle
    for pres in (h2, h8p, h8m, baseline):
        n = pres.dim
        for side in ("left", "right"):
            rows = []
            for d in range(n):
                e_d = pres.basis_element(d)
                eps_d = pres.counit(e_d)
                for m in range(n):
                    row = []
                    for j in range(n):
                        e_j = pres.basis_element(j)
                        prod = (pres.multiply(e_d, e_j) if side == "left"
                                else pres.multiply(e_j, e_d))
                        row.append(prod.coeff(m) - (eps_d if m == j else ZERO))
                    rows.append(row)
            oracle = dense_nullspace_oracle(rows, n)
            assert [TensorElement.vector(v) for v in oracle] == \
                integral_space(pres, side)


def test_dimension_not_one_on_broken_input(h2):
    from conftest import mutate_presentation
    broken = mutate_presentation(h2, "mult", (1, 1, 1))
    ctx = AlgebraContext(broken)
    with pytest.raises((DimensionNotOne, ArithmeticError)):
        ctx.integral_data


# -- cointegral spaces --------------------------------------------------------------


def test_h2_cointegrals(ctx_h2):
    left = cointegral_space(ctx_h2, "left")
    right = cointegral_space(ctx_h2, "right")
    p_g = Functional.dual_basis(2, 1)
    assert left == [p_g]
    assert right == [p_g]


def test_h8_cointegrals(ctx_h8p, ctx_h8m):
    for ctx, sign in ((ctx_h8p, 1), (ctx_h8m, -1)):
        left = cointegral_space(ctx, "left")
        assert left == [Functional.dual_basis(8, 6)]  # P_{x^3}
        omega = omega_scalar(sign)
        omega_bar = omega.conjugate()
        # the right space is the line through omega P_{x^3} + conj(omega) P_{g x^3}
        expected = [ZERO] * 8
        expected[6] = omega
        expected[7] = omega_bar
        rep = right_rep = cointegral_space(ctx, "right")[0]
        ratio = omega / rep.coords[6]
        assert [c * ratio for c in rep.coords] == expected
        # the normalized right cointegral is exactly the omega-weighted one
        assert list(ctx.big_lam.coords) == expected


def test_baseline_cointegral_brute_force(ctx_baseline):
    """Classical baseline: solve the coinvariance condition by brute force
    (plain loops, no evaluator) and compare with the solver."""
    pres = ctx_baseline.pres
    n = pres.dim
    rows = []
    # for a Hopf algebra the relation collapses to lam(h_2) h_1 = lam(h) 1
    for i in range(n):
        d = pres.coproduct.apply(pres.basis_element(i))
        for m in range(n):
            row = []
            for a in range(n):
                coeff = ZERO
                for (x, y), v in d.entries.items():
                    if y == a and x == m:
                        coeff = coeff + v
                if m == 0:
                    coeff = coeff - (ONE if a == i else ZERO)
                row.append(coeff)
            rows.append(row)
    from test_multilinear import dense_nullspace_oracle
    oracle = dense_nullspace_oracle(rows, n)
    assert len(oracle) == 1
    assert Functional(oracle[0]) == Functional.dual_basis(2, 0)  # P_1
    assert cointegral_space(ctx_baseline, "left") == [Functional.dual_basis(2, 0)]


def test_normalize_pair(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        lam, t, big = ctx.lam, ctx.t, ctx.big_lam
        assert lam(ctx.s_inv.apply(t)) == ONE
        assert big(ctx.pres.antipode.apply(t)) == ONE
        assert ctx.mu(ctx.pres.beta) * lam(t) == ONE
    assert ctx_h2.lam == Functional.dual_basis(2, 1)
    assert ctx_h8p.lam == Functional.dual_basis(8, 6)
    assert ctx_baseline.lam == Functional.dual_basis(2, 0)


def test_delta_t_pr_table(ctx_h8p):
    """The expansion of Delta(t) p_R, frozen coefficient by
    coefficient."""
    h8 = ctx_h8p.pres
    w = omega_scalar(1)
    wb = w.conjugate()
    i_s = Scalar.gaussian(0, 1)
    table = mult_pointwise(h8.mult, h8.coproduct.apply(ctx_h8p.t), ctx_h8p.p_r)
    idx = {lab: k for k, lab in enumerate(h8.basis)}

    def pair(lab1, lab2):
        return (idx[lab1], idx[lab2])

    # the expected sum: (wb + w g)x^3 x 1 + (w + wb g)x^3 x g + i x^2 x x
    #   + (wb g - w)x x x^2 + 1 x x^3 + i gx^2 x gx - (w g - wb)x x gx^2
    #   + g x gx^3
    expected = {
        pair("x^3", "1"): wb, pair("gx^3", "1"): w,
        pair("x^3", "g"): w, pair("gx^3", "g"): wb,
        pair("x^2", "x"): i_s,
        pair("x", "x^2"): -w, pair("gx", "x^2"): wb,
        pair("1", "x^3"): ONE,
        pair("gx^2", "gx"): i_s,
        pair("x", "gx^2"): wb, pair("gx", "gx^2"): -w,
        pair("g", "gx^3"): ONE,
    }
    assert dict(table.entries) == expected


def test_characterizations_and_condition_lines(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        report = characterization_suite(ctx)
        assert report.passed(), report.render_text()


def test_single_condition_solutions_span_the_lines(ctx_h8p):
    from quasihopf.intcoint import _proportional_fn
    for name in ("left-ii", "left-iii", "left-iv"):
        sols = solve_condition(ctx_h8p, name)
        assert len(sols) == 1
        assert _proportional_fn(sols[0], ctx_h8p.lam)
    for name in ("right-i", "right-ii", "right-iii"):
        sols = solve_condition(ctx_h8p, name)
        assert len(sols) == 1
        assert _proportional_fn(sols[0], ctx_h8p.big_lam)


def test_characterization_systems_are_bound_once(ctx_h8p, monkeypatch):
    """The suite solves the six condition systems it has bound, and one
    condition solved alone binds its own system only."""
    from quasihopf import intcoint
    ctx_h8p.lam, ctx_h8p.big_lam          # the cointegrals bind systems of their own
    original = intcoint._bind_all
    calls = []
    monkeypatch.setattr(intcoint, "_bind_all",
                        lambda *args, **tensors: calls.append(args) or original(*args, **tensors))
    assert not is_unimodular(ctx_h8p)
    assert characterization_suite(ctx_h8p).passed()
    assert len(calls) == len(intcoint.CONDITIONS)
    calls.clear()
    solve_condition(ctx_h8p, "left-iv")
    assert len(calls) == 1


# -- modular data --------------------------------------------------------------------


def test_modular_element_values(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    assert ctx_h2.g_mod == ctx_h2.pres.unit
    assert ctx_baseline.g_mod == ctx_baseline.pres.unit
    for ctx, sign in ((ctx_h8p, 1), (ctx_h8m, -1)):
        w = omega_scalar(sign)
        wb = w.conjugate()
        g, g_inv = ctx.g_mod, ctx.g_mod_inv
        assert g == TensorElement(1, 8, {(0,): w, (1,): wb})
        assert g_inv == TensorElement(1, 8, {(0,): wb, (1,): w})


def test_comparison_elements(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_baseline):
        comp = comparison_elements(ctx)
        assert comp.u == ctx.pres.unit
        assert comp.v == ctx.pres.unit
    comp8 = comparison_elements(ctx_h8p)
    assert comp8.u == ctx_h8p.pres.unit  # even though the algebra is not unimodular
    assert evaluate_identity(ctx_h8p, "qtr-fn").is_zero()
    assert evaluate_identity(ctx_h8p, "lamS-v").is_zero()
    # d is invertible and exposed
    assert not comp8.d.is_zero()


def test_modular_vs_u_when_lines_coincide(ctx_h2):
    from quasihopf.intcoint import _proportional_fn
    assert _proportional_fn(ctx_h2.lam, ctx_h2.big_lam)
    scalar = ctx_h2.mu(ctx_h2.pres.beta) * ctx_h2.mu_inv(ctx_h2.pres.beta).inverse()
    assert ctx_h2.g_mod == ctx_h2.u_el.scale(scalar)


# -- Frobenius systems ------------------------------------------------------------------


def test_frobenius_left_system_centralizes(ctx_h2):
    system = frobenius_system(ctx_h2, "left")
    report = verify_frobenius(ctx_h2, system, "left")
    assert report.passed(), report.render_text()


def test_frobenius_all_variants(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        for which in ("left", "cop", "op"):
            system = frobenius_system(ctx, which)
            assert verify_frobenius(ctx, system, which).passed(), (ctx.pres.name, which)


def test_nakayama_closed_forms(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        assert nakayama_report(ctx).passed()


def test_nakayama_h8_matches_mu_s2(ctx_h8p):
    system = frobenius_system(ctx_h8p, "left")
    pres = ctx_h8p.pres
    s2 = ctx_h8p.s_squared
    for i in range(pres.dim):
        h = pres.basis_element(i)
        d = pres.coproduct.apply(h)
        acc = TensorElement.zero(1, pres.dim)
        for (a, b), v in d.entries.items():
            acc = acc + s2.apply(pres.basis_element(b)).scale(
                v * ctx_h8p.mu(pres.basis_element(a)))
        assert system.nakayama.apply(h) == acc


def test_nakayama_baseline_identity(ctx_baseline):
    system = frobenius_system(ctx_baseline, "left")
    assert system.nakayama == LinearOperator.identity(2)


# -- antipode images ---------------------------------------------------------------------


def test_antipode_images(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        report, images = antipode_on_integrals(ctx)
        assert report.passed(), report.render_text()


def test_h2_antipode_fixes_integral(ctx_h2):
    _, images = antipode_on_integrals(ctx_h2)
    assert images["S(t)"] == ctx_h2.t


def test_h8_s_of_t_proportional_to_r(ctx_h8p):
    s_t = ctx_h8p.pres.antipode.apply(ctx_h8p.t)
    # S((1+g)x^3) lands on the right integral line spanned by (1-g)x^3
    ratio = None
    for key, value in s_t.entries.items():
        expected = ctx_h8p.r.coeff(*key)
        assert not expected.is_zero()
        current = value / expected
        assert ratio is None or current == ratio
        ratio = current
    assert ratio is not None


def test_s_squared_scalar_h8(ctx_h8p):
    scalar = (ctx_h8p.mu_inv(ctx_h8p.g_mod) * ctx_h8p.mu(ctx_h8p.pres.beta)).inverse()
    s2 = ctx_h8p.s_squared
    assert s2.apply(ctx_h8p.t) == ctx_h8p.t.scale(scalar)
    # mui(g) = omega - conj(omega) up to the sign convention, a unit scalar
    assert not scalar.is_zero()


# -- fourth power of the antipode ----------------------------------------------------------


def test_s4_suites(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        assert s4_suite(ctx).passed()


def test_s4_identity_on_h2(ctx_h2):
    s2 = ctx_h2.s_squared
    assert s2.compose(s2) == LinearOperator.identity(2)


def test_s4_display_readings_reported(ctx_h2, ctx_h8p):
    for ctx in (ctx_h2, ctx_h8p):
        readings = s4_display_readings(ctx)
        assert set(readings) == {"reading-a", "reading-b"}
        assert readings["reading-a"] in (True, False, None)


def test_s4_display_readings_propagates_internal_faults(h2, monkeypatch):
    """Only a singular element makes reading a "undefined"; any other
    fault while inverting it propagates."""
    from quasihopf import intcoint

    def broken(op):
        raise RuntimeError("injected")

    monkeypatch.setattr(intcoint, "invert_operator", broken)
    with pytest.raises(RuntimeError, match="injected"):
        s4_display_readings(AlgebraContext(h2))


# -- coactions and the Frobenius isomorphism -------------------------------------------------


def test_coaction_reports(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        assert coaction_report(ctx).passed()


def test_rho_coinvariants_h2(ctx_h2):
    from quasihopf.intcoint import coinvariants_via_rho
    assert coinvariants_via_rho(ctx_h2) == [Functional.dual_basis(2, 1)]


def test_rho_coinvariants_baseline(ctx_baseline):
    from quasihopf.intcoint import coinvariants_via_rho
    assert coinvariants_via_rho(ctx_baseline) == [Functional.dual_basis(2, 0)]


def test_xi_reports(ctx_h2, ctx_h8p, ctx_baseline):
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        assert xi_report(ctx).passed()


def test_s_mu_helper(ctx_h8p):
    """S_mu(h) = mu(S(h)_1) S(h)_2 matches a direct computation."""
    pres = ctx_h8p.pres
    op = s_mu_operator(ctx_h8p)
    for i in range(pres.dim):
        s_h = pres.antipode.apply(pres.basis_element(i))
        assert op.apply(pres.basis_element(i)) == contract(
            ctx_h8p.mu, pres.coproduct.apply(s_h), 0)


def test_cointegral_residual_detects_non_cointegral(ctx_h8p):
    fake = Functional.dual_basis(8, 0)
    assert not cointegral_residual(ctx_h8p, fake, "left").is_zero()
    assert cointegral_residual(ctx_h8p, ctx_h8p.lam, "left").is_zero()
    assert cointegral_residual(ctx_h8p, ctx_h8p.big_lam, "right").is_zero()


def test_umbrella_report(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        report = integral_report(ctx)
        assert report.passed(), report.render_text()


@pytest.mark.parametrize("name", ["H8+", "H2"])
def test_integral_report_multiplies_by_no_basis_element(request, monkeypatch, name):
    """Every integral and Frobenius row over a free h is one evaluation of
    each side, not one multiplication operator per basis element: on a
    fresh context of an algebra validated when it was built,
    integral_report makes at most 3 (one reads mu off t; the inner
    automorphism that S^4 is compared with on a unimodular algebra makes
    two).  Every module of the package that binds the function is
    counted."""
    pres = request.getfixturevalue({"H8+": "h8p", "H2": "h2"}[name])
    original = multilinear.multiplication_operator
    calls = []

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "quasihopf"
                and getattr(module, "multiplication_operator", None) is original):
            monkeypatch.setattr(module, "multiplication_operator", counting)
    report = integral_report(AlgebraContext(pres))
    assert report.passed()
    assert len(calls) <= 3, calls


@pytest.mark.parametrize("name", ["H8+", "H2"])
def test_integral_report_builds_at_most_four_algebra_ops(request, monkeypatch, name):
    """A Frobenius functional is bound to the letter lam as a tensor is
    bound to its letter, so no row needs an AlgebraOps of its own: on a
    fresh context of an algebra validated when it was built,
    integral_report builds at most 4 (the context's, one per integral
    space and that of H^cop, which the right cointegrals are solved on)."""
    pres = request.getfixturevalue({"H8+": "h8p", "H2": "h2"}[name])
    built = []
    init = expr.AlgebraOps.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(expr.AlgebraOps, "__init__", counting)
    report = integral_report(AlgebraContext(pres))
    assert report.passed()
    assert len(built) <= 4, built
