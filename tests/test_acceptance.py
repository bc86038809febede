"""Acceptance gate: every criterion evaluated exactly (the tolerance is
identically zero everywhere) with its stated runtime bound, printing one
pass/fail line per criterion."""

from __future__ import annotations

import random
import time

from conftest import TIMINGS, all_mutations, swap_alpha_beta
from quasihopf.canonical import REGISTRY, evaluate_identity, identity_suite
from quasihopf.context import AlgebraContext, get_context
from quasihopf.double import (build_double, double_antipode_inverse,
                              double_integral, double_left_cointegral,
                              double_modular, double_right_cointegral,
                              is_double_semisimple)
from quasihopf.exactnum import HALF, ONE, Scalar, ZERO
from quasihopf.intcoint import (antipode_on_integrals, characterization_suite,
                                cointegral_residual, cointegral_space,
                                frobenius_system, integral_space, nakayama_report,
                                s4_suite, solve_condition, verify_frobenius,
                                _proportional_fn)
from quasihopf.multilinear import (Functional, LinearOperator, TensorElement,
                                   invert_operator)
from quasihopf.qha import verify_axioms


def report_line(number: int, passed: bool, label: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d}: {status} - {label}")
    assert passed, f"criterion {number} failed: {label}"


def omega(sign: int) -> Scalar:
    return Scalar.gaussian(HALF.re, HALF.re * sign)


def test_criterion_1_integral_spaces(h2, h8p, h8m):
    start = time.time()
    ok = True
    span_t = TensorElement(1, 2, {(0,): ONE, (1,): ONE})
    ok &= integral_space(h2, "left") == [span_t]
    ok &= integral_space(h2, "right") == [span_t]
    left8 = TensorElement(1, 8, {(6,): ONE, (7,): ONE})
    right8 = TensorElement(1, 8, {(6,): ONE, (7,): -ONE})
    for pres in (h8p, h8m):
        ok &= integral_space(pres, "left") == [left8]
        ok &= integral_space(pres, "right") == [right8]
        ctx = AlgebraContext(pres)     # fresh: the timing bound covers the solve
        ok &= ctx.mu(pres.basis_element(1)) == -ONE
        ok &= ctx.mu(pres.basis_element(2)) == ZERO
    ok &= AlgebraContext(h2).mu == h2.counit
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report_line(1, ok, f"integral spaces and modular functionals ({elapsed:.3f}s)")


def test_criterion_2_cointegral_spaces(ctx_h2, h8p, h8m):
    start = time.time()
    p_g = Functional.dual_basis(2, 1)
    ok = cointegral_space(ctx_h2, "left") == [p_g]
    ok &= cointegral_space(ctx_h2, "right") == [p_g]
    for pres, sign in ((h8p, 1), (h8m, -1)):
        ctx = get_context(pres)
        ok &= cointegral_space(ctx, "left") == [Functional.dual_basis(8, 6)]
        w = omega(sign)
        expected = [ZERO] * 8
        expected[6] = w
        expected[7] = w.conjugate()
        rep = cointegral_space(ctx, "right")[0]
        ratio = w / rep.coords[6]
        ok &= [c * ratio for c in rep.coords] == expected
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    report_line(2, ok, f"cointegral spaces ({elapsed:.3f}s)")


def test_criterion_3_modular_data(ctx_h2, ctx_h8p, ctx_h8m):
    ok = ctx_h2.g_mod == ctx_h2.pres.unit
    for ctx, sign in ((ctx_h8p, 1), (ctx_h8m, -1)):
        w = omega(sign)
        ok &= ctx.g_mod == TensorElement(1, 8, {(0,): w, (1,): w.conjugate()})
        ok &= ctx.g_mod_inv == TensorElement(1, 8, {(0,): w.conjugate(), (1,): w})
    ok &= ctx_h8p.u_el == ctx_h8p.pres.unit
    for ctx in (ctx_h2, ctx_h8p, ctx_h8m):
        ok &= evaluate_identity(ctx, "qtr-fn").is_zero()   # lam o Si = Lam <- u
        ok &= evaluate_identity(ctx, "lamS-v").is_zero()   # lam o S  = Lam <- v
    report_line(3, ok, "modular elements g, u, v and the antipode transfers")


def test_criterion_4_equivalent_characterizations(ctx_h2, ctx_h8p, ctx_baseline):
    ok = True
    for ctx in (ctx_h2, ctx_h8p, ctx_baseline):
        ok &= characterization_suite(ctx).passed()
        for name in ("left-ii", "left-iii", "left-iv"):
            sols = solve_condition(ctx, name)
            ok &= len(sols) == 1 and _proportional_fn(sols[0], ctx.lam)
        for name in ("right-i", "right-ii", "right-iii"):
            sols = solve_condition(ctx, name)
            ok &= len(sols) == 1 and _proportional_fn(sols[0], ctx.big_lam)
    report_line(4, ok, "cointegral characterizations and the solver/condition "
                       "line equalities")


def test_criterion_5_frobenius(h2, h8p, baseline):
    ok = True
    times = []
    for pres in (h2, h8p, baseline):
        ctx = AlgebraContext(pres)    # fresh context: bound covers computation
        start = time.time()
        system = frobenius_system(ctx, "left")
        ok &= verify_frobenius(ctx, system, "left").passed()
        ok &= nakayama_report(ctx).passed()
        elapsed = time.time() - start
        times.append(elapsed)
        ok &= elapsed < 5.0
    report_line(5, ok, "Frobenius systems and Nakayama closed forms "
                       f"(max {max(times):.3f}s per example)")


def test_criterion_6_s_power_laws(ctx_h2, ctx_h8p, ctx_h8m):
    ok = True
    for ctx in (ctx_h2, ctx_h8p, ctx_h8m):
        report, _ = antipode_on_integrals(ctx)
        ok &= report.passed()
        ok &= evaluate_identity(ctx, "s4equivversion").is_zero()
        ok &= s4_suite(ctx).passed()
    s2 = ctx_h2.s_squared
    ok &= s2.compose(s2) == LinearOperator.identity(2)
    report_line(6, ok, "antipode power laws incl. the fourth-power relation")


def test_criterion_7_identity_suite(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline, h8p):
    ok = len(REGISTRY) >= 35
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        report = identity_suite(ctx)
        ok &= len(report.rows) >= 35 and report.passed()
    # single-structure-constant mutations must be detected
    swapped = AlgebraContext(swap_alpha_beta(h8p))
    detected = False
    try:
        detected = not verify_axioms(swapped.pres).passed()
        if not detected:
            detected = not identity_suite(swapped).passed()
    except Exception:
        detected = True
    ok &= detected
    rng = random.Random(2026)
    pool = list(all_mutations(h8p))
    for mutated in rng.sample(pool, 8):
        caught = False
        try:
            caught = not verify_axioms(mutated).passed()
            if not caught:
                caught = not identity_suite(AlgebraContext(mutated)).passed()
        except Exception:
            caught = True
        ok &= caught
    report_line(7, ok, f"{len(REGISTRY)} named identities, exact zero residuals, "
                       "mutations detected")


def test_criterion_8_quantum_double(h2, d8, d8_report):
    start = time.time()
    d2 = build_double(h2)
    d2_elapsed = time.time() - start
    ok = d2.presentation.dim == 4 and verify_axioms(d2.presentation).passed()
    ok &= d2_elapsed < 5.0
    ok &= d8.presentation.dim == 64
    ok &= d8_report.passed()   # includes the axiom rows for the large double
    # the explicit integral and cointegrals against the double's own solvers
    for dbl in (d2, d8):
        pres = dbl.presentation
        ctx_d = get_context(pres)
        big_t = double_integral(dbl)
        eps_d = pres.counit
        two_sided = all(
            pres.multiply(pres.basis_element(k), big_t) == big_t.scale(eps_d(pres.basis_element(k)))
            and pres.multiply(big_t, pres.basis_element(k)) == big_t.scale(eps_d(pres.basis_element(k)))
            for k in range(pres.dim))
        ok &= two_sided
        ok &= ctx_d.mu == eps_d
        gamma = double_left_cointegral(dbl)
        right = double_right_cointegral(dbl)
        ok &= cointegral_residual(ctx_d, gamma, "left").is_zero()
        ok &= _proportional_fn(gamma, ctx_d.lam)
        ok &= _proportional_fn(right, ctx_d.big_lam)
        first, second = double_modular(dbl)
        ok &= first == second == ctx_d.g_mod
        ok &= double_antipode_inverse(dbl) == invert_operator(pres.antipode)
    d8_total = TIMINGS.get("d8-build", 0.0) + TIMINGS.get("d8-report", 0.0)
    ok &= d8_total < 600.0
    report_line(8, ok, f"quantum doubles (small build {d2_elapsed:.2f}s, "
                       f"large suite {d8_total:.1f}s)")


def test_criterion_9_semisimplicity(h2, h8p, d2, d8):
    base2 = get_context(h2)
    ok = h2.counit(base2.r) == Scalar.of(2)
    ok &= base2.lam(h2.multiply(base2.s_inv.apply(h2.alpha), h2.beta)) == ONE
    ok &= is_double_semisimple(d2)
    base8 = get_context(h8p)
    ok &= base8.pres.counit(base8.r).is_zero()
    ok &= not is_double_semisimple(d8)
    report_line(9, ok, "semisimplicity verdicts for both doubles")


def test_criterion_10_genericity(d2):
    from quasihopf.intcoint import integral_report
    ctx = get_context(d2.presentation)
    ok = verify_axioms(d2.presentation).passed()
    ok &= identity_suite(ctx).passed()
    ok &= integral_report(ctx).passed()
    report_line(10, ok, "full canonical/integral pipeline on the double as input")
