"""The quantum double: construction, embedding, integrals, cointegrals,
modular element and semisimplicity."""

from __future__ import annotations

import pytest

from quasihopf import double
from quasihopf.context import AlgebraContext, get_context
from quasihopf.double import (build_double, double_antipode_inverse,
                              double_integral, double_left_cointegral, double_modular,
                              double_report, double_right_cointegral,
                              is_double_semisimple, semisimplicity_check,
                              trace_form_rank)
from quasihopf.exactnum import ONE, Scalar, ZERO
from quasihopf.intcoint import cointegral_residual
from quasihopf.multilinear import TensorElement, embed_legs, invert_operator
from quasihopf.qha import verify_axioms
from quasihopf.workbench import export_document, import_document


def test_d2_dimension_and_axioms(d2):
    assert d2.presentation.dim == 4
    assert verify_axioms(d2.presentation).passed()


def test_d2_unit_law_all_pairs(d2):
    pres = d2.presentation
    for k in range(pres.dim):
        e = pres.basis_element(k)
        assert pres.multiply(pres.unit, e) == e
        assert pres.multiply(e, pres.unit) == e


def test_d2_omega_is_small(d2):
    # over the base of dimension two every leg lives on {1, g}
    assert d2.omega.rank == 5
    assert all(i < 2 for key in d2.omega.entries for i in key)


def test_d2_integral_matches_base_data(d2, ctx_h2):
    """With beta = 1 and lambda = P_g the two-sided integral of the double
    pairs the left cointegral with the right integral."""
    big_t = double_integral(d2)
    # T = mui(delta2) delta1 -> lambda evaluated on the basis, paired with r
    h2 = d2.base
    expected = {}
    for a in range(2):
        coeff = ZERO
        for (d1, d2_), v in ctx_h2.delta_el.entries.items():
            coeff = coeff + v * ctx_h2.mu_inv(h2.basis_element(d2_)) * ctx_h2.lam(
                h2.multiply(h2.basis_element(a), h2.basis_element(d1)))
        for c in range(2):
            value = coeff * ctx_h2.r.coeff(c)
            if not value.is_zero():
                expected[(2 * a + c,)] = value
    assert dict(big_t.entries) == expected
    # H2 is unimodular with beta = 1, so the functional part is lambda = P_g
    assert big_t == TensorElement(1, 4, {(2,): ONE, (3,): ONE})


def test_d2_report_full(d2):
    report = double_report(d2)
    assert report.passed(), report.render_text()


def test_d2_modular_element_is_unit(d2):
    first, second = double_modular(d2)
    assert first == second == d2.presentation.unit


def test_d2_sdi_closed_form(d2):
    closed = double_antipode_inverse(d2)
    assert closed == invert_operator(d2.presentation.antipode)


def test_double_report_evaluates_the_sdi_closed_form_once(h2, monkeypatch):
    """double_report compares the closed form of S_D^-1 with the exact
    inverse; the modular element takes that inverse from the context."""
    calls = []
    original = double.double_antipode_inverse

    def counting(D):
        calls.append(D)
        return original(D)

    monkeypatch.setattr(double, "double_antipode_inverse", counting)
    assert double_report(build_double(h2)).passed()
    assert len(calls) == 1


def test_baseline_double(baseline):
    D = build_double(baseline)
    closed = double_antipode_inverse(D)
    assert closed == D.presentation.antipode  # S_D is an involution here
    first, second = double_modular(D)
    assert first == second == D.presentation.unit
    assert is_double_semisimple(D)            # characteristic zero
    report = double_report(D)
    assert report.passed(), report.render_text()


def test_semisimplicity_verdicts(d2, d8, h2, h8p):
    assert is_double_semisimple(d2)
    assert not is_double_semisimple(d8)
    base2 = get_context(h2)
    assert h2.counit(base2.r) == Scalar.of(2)
    assert base2.lam(h2.multiply(base2.s_inv.apply(h2.alpha), h2.beta)) == ONE
    base8 = get_context(h8p)
    assert h8p.counit(base8.r).is_zero()
    report = semisimplicity_check(d2)
    assert report.passed()


def test_trace_form_ranks(d2, d8, baseline):
    """G_ab = Tr(L_{e_a e_b}) is nondegenerate exactly on the semisimple
    doubles."""
    assert trace_form_rank(d2.presentation) == 4
    assert trace_form_rank(build_double(baseline).presentation) == 4
    assert trace_form_rank(d8.presentation) == 20


@pytest.mark.parametrize("name", ["d2", "d8"])
def test_wrong_semisimplicity_verdict_fails_the_row(name, request, monkeypatch):
    D = request.getfixturevalue(name)
    eps_r, norm, semisimple = double._semisimplicity(D)
    monkeypatch.setattr(double, "_semisimplicity", lambda _: (eps_r, norm, not semisimple))
    rows = {row.name.split("=")[0]: row for row in semisimplicity_check(D).rows}
    verdict = rows["semisimple:verdict"]
    assert not verdict.passed
    rank = 4 if name == "d2" else 20
    assert verdict.witness == f"trace form rank {rank}/{D.presentation.dim}"
    assert rows["semisimple:eps(r)"].passed


def test_double_export_import_roundtrip(d2):
    doc = export_document(d2.presentation)
    again = import_document(doc)
    assert again == d2.presentation


def test_d2_genericity_full_pipeline(d2):
    """The whole canonical/integral pipeline on the double as a fresh
    input presentation, everything recomputed from its own data."""
    from quasihopf.canonical import identity_suite
    from quasihopf.intcoint import integral_report
    ctx = get_context(d2.presentation)
    assert verify_axioms(d2.presentation).passed()
    ids = identity_suite(ctx)
    assert ids.passed(), ids.render_text()
    rep = integral_report(ctx)
    assert rep.passed(), rep.render_text()


def test_d8_build_and_tables(d8):
    pres = d8.presentation
    assert pres.dim == 64
    assert pres.basis[0] == "P_1><1"
    # spot checks: the unit is the counit paired with 1
    expected_unit = {(0,): ONE, (8,): ONE}  # (P_1 + P_g) |><| 1
    assert dict(pres.unit.entries) == expected_unit


def test_d8_full_report(d8_report):
    assert d8_report.passed(), d8_report.render_text()


def test_d8_cointegrals_direct(d8):
    ctx_d = get_context(d8.presentation)
    gamma = double_left_cointegral(d8)
    assert cointegral_residual(ctx_d, gamma, "left").is_zero()
    right = double_right_cointegral(d8)
    assert cointegral_residual(ctx_d, right, "right").is_zero()


def test_d8_transported_context_matches_generic_on_small_double(d2):
    """On the small double the transported canonical elements coincide with
    the generically derived ones."""
    ctx = get_context(d2.presentation)
    base = get_context(d2.base)
    assert ctx.f == embed_legs(d2.embedding, base.f)
    assert ctx.gamma == embed_legs(d2.embedding, base.gamma)
    assert ctx.p_r == embed_legs(d2.embedding, base.p_r)
    assert ctx.u_cap == embed_legs(d2.embedding, base.u_cap)


CANONICAL_TWO_LEG = ("gamma", "delta_el", "f", "f_inv", "p_r", "q_r", "p_l", "q_l")


@pytest.mark.parametrize("variant", [None, "cop"])
def test_large_double_derives_the_transported_canonical_elements(d8, variant):
    """On D(H8+) a fresh context derives gamma, delta, f, f^-1, p_R, q_R,
    p_L and q_L from the double's own structure constants, and each equals
    the base element carried along the embedding (which is a morphism of
    quasi-Hopf algebras, also between the coopposite algebras)."""
    ctx = AlgebraContext(d8.presentation)
    base = get_context(d8.base)
    if variant:
        ctx, base = ctx.variant_ctx(variant), base.variant_ctx(variant)
    for name in CANONICAL_TWO_LEG:
        assert getattr(ctx, name) == embed_legs(d8.embedding, getattr(base, name)), name


def test_mutated_double_axioms_fail(d2):
    from conftest import mutate_presentation
    broken = mutate_presentation(d2.presentation, "phi", (0, 0, 1))
    report = verify_axioms(broken)
    assert not report.passed()


def test_double_construction_deterministic(h2, d2):
    rebuilt = build_double(h2)
    assert rebuilt.presentation == d2.presentation
    assert export_document(rebuilt.presentation) == export_document(d2.presentation)


def test_exhaustive_identity_loop_on_large_double(d8):
    """On a dimension-64 presentation an identity holds for every basis
    binding of its variable, covered by one evaluation per side."""
    from quasihopf.canonical import evaluate_identity
    ctx = get_context(d8.presentation)
    assert evaluate_identity(ctx, "rint4").is_zero()


def test_identity_rows_evaluate_each_side_once_on_large_double(d8, monkeypatch):
    """rint4 on D(H8+) evaluates each side once, with its variable h left
    unbound, so one evaluation covers all 64 basis elements."""
    from quasihopf.canonical import REGISTRY, evaluate_identity
    from quasihopf.expr import Expression
    ctx = get_context(d8.presentation)
    REGISTRY["rint4"].build(ctx)        # computes r and U before recording
    calls = []
    original = Expression.evaluate

    def recording(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(Expression, "evaluate", recording)
    assert evaluate_identity(ctx, "rint4").is_zero()
    assert len(calls) == 2


def test_reduced_axiom_rows_visit_the_generator_domains(d8, monkeypatch):
    """On D(H8+) ``mult:unit`` quantifies over the whole basis and every other
    quantified axiom row over G, G x basis or G x basis x basis, in order,
    where G is the generating set.  The rows are recorded, not evaluated
    (``coproduct:morphism`` alone takes seconds here); that a row visits
    every instance it is given is pinned in ``test_report``.  The tables
    of the two q5 sides are evaluated on G alone: their index leg holds
    only indices of G."""
    from quasihopf.expr import Expression
    from quasihopf.qha import FORMS, generating_set
    from quasihopf.report import VerificationReport
    pres = d8.presentation
    n = pres.dim
    gens, rank = generating_set(pres)
    assert rank == n
    pairs = [(g, j) for g in gens for j in range(n)]
    triples = [(g, j, k) for g, j in pairs for k in range(n)]
    quantified: dict[str, list] = {}
    q5_tables = []
    q5_outputs = [FORMS[name][0].outputs for name in ("q5-alpha", "q5-beta")]
    evaluate = Expression.evaluate

    def recording(self, name, instances, sides):
        quantified[name] = list(instances)
        return self.add(name, True)

    def evaluating(self, ops):
        result = evaluate(self, ops)
        if any(self.outputs is outputs for outputs in q5_outputs):
            q5_tables.append(result)
        return result

    monkeypatch.setattr(VerificationReport, "check_all", recording)
    monkeypatch.setattr(Expression, "evaluate", evaluating)
    verify_axioms(pres)
    assert len(q5_tables) == 2
    for table in q5_tables:
        assert {key[0] for key in table.entries} <= set(gens)
    assert {name: quantified[name] for name in quantified
            if name not in ("q7", "phi:invertible")} == {
        "mult:unit": list(range(n)), "mult:assoc": triples,
        "counit:morphism": pairs, "coproduct:morphism": pairs,
        "q2": gens, "q1": gens, "q5": gens,
        "antipode:anti-morphism": pairs, "counit-of-antipode": gens}


def test_reduced_axiom_rows_on_small_algebra(h8p):
    """H8+ passes, and the row names carry no scope."""
    report = verify_axioms(h8p)
    assert report.passed()
    assert [row.name for row in report.rows] == [
        "mult:unit", "mult:assoc", "counit:unit", "counit:morphism", "coproduct:unit",
        "coproduct:morphism", "q2", "q1", "q3", "q4", "q7", "q5", "q6:left", "q6:right",
        "phi:invertible", "antipode:unit", "antipode:anti-morphism", "counit-of-antipode",
        "alpha-beta:normalized"]
