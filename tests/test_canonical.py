"""Canonical two-leg elements and the named-identity registry."""

from __future__ import annotations

import pytest

from conftest import REGISTRY_NAMES, swap_alpha_beta
from quasihopf import canonical
from quasihopf.canonical import (REGISTRY, InternalIdentityFailure,
                                 UnknownIdentity, canonical_elements,
                                 check_identity, evaluate_identity,
                                 identity_suite)
from quasihopf.context import AlgebraContext
from quasihopf.exactnum import HALF, ONE
from quasihopf.expr import ExpressionError
from quasihopf.multilinear import (TensorElement, apply_on_leg, contract,
                                   mult_pointwise, tensor_product)


def test_registry_size():
    assert sorted(REGISTRY) == REGISTRY_NAMES


@pytest.mark.parametrize("formula, token", [
    ("k1 h = h", "k1"),                       # an unknown letter
    ("q3 h = h", "q3"),                       # a component above the letter's rank
    ("q h = h", "q"),                         # a multi-leg letter without its component
    ("h_13 = h", "h_13"),                     # a split digit other than 1 or 2
    ("S(h = h", "S("),                        # an unbalanced parenthesis
    ("h) = h", ")"),
    ("S(h p1)_1 x p2 = h x 1", "S(...)_1"),   # _path after an operator on two factors
    ("h x = h", "x"),                         # an empty leg
    ("h 1 x p1 p2 = h x 1", "1"),             # 1 next to a factor
    ("S(mu(h)) = h", "mu(...)"),              # a functional inside a product
    ("Sj(h) = h", "Sj("),                     # an unknown operator
    ("(h) = h", "("),                         # a parenthesis without an operator
])
def test_malformed_formula_is_refused(formula, token):
    """A malformed formula fails when it is registered, that is at import,
    naming the identity, the formula and the offending token."""
    with pytest.raises(ExpressionError) as err:
        canonical._identity("malformed", formula)
    message = str(err.value)
    assert "malformed" in message and formula in message and repr(token) in message
    assert "malformed" not in REGISTRY


def test_identity_reads_only_its_letters(h8p):
    """pqr uses p_R and q_R only: no integral, cointegral or comparison data
    is computed for it."""
    ctx = AlgebraContext(h8p)
    assert evaluate_identity(ctx, "pqr").is_zero()
    assert not {"integral_data", "cointegral_data", "comparison"} & set(ctx._memo)


def test_gamma_via_public_ops_oracle(ctx_h2):
    """Recompute the first closed form of gamma with nothing but the
    public tensor operations, as an independent oracle for the evaluator."""
    h2 = ctx_h2.pres
    n = h2.dim
    S = h2.antipode
    acc = TensorElement.zero(2, n)
    for (x1, x2, x3), vx in h2.phi_inv.entries.items():
        for (y1, y2, y3), vy in h2.phi.entries.items():
            d3 = h2.coproduct.apply(h2.basis_element(y3))
            for (a, b), vd in d3.entries.items():
                leg1 = h2.multiply(S.apply(h2.multiply(h2.basis_element(x1),
                                                       h2.basis_element(y2))),
                                   h2.alpha)
                leg1 = h2.multiply(leg1, h2.basis_element(x2))
                leg1 = h2.multiply(leg1, h2.basis_element(a))
                leg2 = h2.multiply(S.apply(h2.basis_element(y1)), h2.alpha)
                leg2 = h2.multiply(leg2, h2.basis_element(x3))
                leg2 = h2.multiply(leg2, h2.basis_element(b))
                acc = acc + tensor_product(leg1, leg2).scale(vx * vy * vd)
    assert acc == ctx_h2.gamma


def test_twist_of_h8_equals_p_r(ctx_h8p, ctx_h8m):
    expected = TensorElement(2, 8, {(0, 0): HALF, (0, 1): HALF,
                                    (1, 0): HALF, (1, 1): -HALF})
    for ctx in (ctx_h8p, ctx_h8m):
        assert ctx.p_r == expected
        assert ctx.f == expected
        assert ctx.f_inv == expected


def test_twist_trivial_on_baseline(ctx_baseline):
    unit2 = tensor_product(ctx_baseline.pres.unit, ctx_baseline.pres.unit)
    assert ctx_baseline.f == unit2
    assert ctx_baseline.gamma == unit2
    assert ctx_baseline.delta_el == unit2
    elems = canonical_elements(ctx_baseline)
    for name in ("p_r", "q_r", "p_l", "q_l", "u_cap", "v_cap"):
        assert getattr(elems, name) == unit2, name


def test_twist_conjugation_residual_zero(ctx_h2, ctx_h8p):
    for ctx in (ctx_h2, ctx_h8p):
        assert evaluate_identity(ctx, "ca").is_zero()


def test_pqr_on_h2(ctx_h2):
    assert evaluate_identity(ctx_h2, "pqr").is_zero()


def test_rint4_on_h8(ctx_h8p):
    # uses the right integral (1 - g) x^3 internally
    assert ctx_h8p.r == TensorElement(1, 8, {(6,): ONE, (7,): -ONE})
    assert evaluate_identity(ctx_h8p, "rint4").is_zero()


def test_check_identity_row(ctx_h2):
    row = check_identity(ctx_h2, "qqlv")
    assert row.passed


def test_unknown_identity(ctx_h2):
    with pytest.raises(UnknownIdentity):
        check_identity(ctx_h2, "nonsense")


def test_identity_suite_full(ctx_h2, ctx_h8p, ctx_h8m, ctx_baseline):
    for ctx in (ctx_baseline, ctx_h2, ctx_h8p, ctx_h8m):
        report = identity_suite(ctx)
        assert len(report.rows) >= 35
        assert report.passed(), report.render_text()


def test_identity_suite_catches_alpha_beta_swap(h8p):
    mutated = AlgebraContext(swap_alpha_beta(h8p))
    failures = 0
    try:
        report = identity_suite(mutated)
        failures = len(report.failures())
    except Exception:
        failures = 1
    assert failures >= 1


def test_uv_alternate_forms(ctx_h2, ctx_h8p):
    for ctx in (ctx_h2, ctx_h8p):
        assert evaluate_identity(ctx, "uvpql-u").is_zero()
        assert evaluate_identity(ctx, "uvpql-v").is_zero()
        assert evaluate_identity(ctx, "qqlv").is_zero()
        assert evaluate_identity(ctx, "pplu").is_zero()


def test_cop_transport_checks(ctx_h2, ctx_h8p):
    for ctx in (ctx_h2, ctx_h8p):
        for name in ("cop-gamma", "cop-f", "cop-pr", "cop-qr"):
            assert evaluate_identity(ctx, name).is_zero(), name


def test_gamma_forms_mismatch_detected(h2):
    """A corrupted reassociator makes the two closed gamma forms
    disagree before anything else can notice."""
    from conftest import mutate_presentation
    broken = mutate_presentation(h2, "phi", (1, 0, 1))
    ctx = AlgebraContext(broken)
    with pytest.raises(InternalIdentityFailure):
        ctx.gamma


def test_f_counit_normalization(ctx_h8p):
    f = ctx_h8p.f
    h8p = ctx_h8p.pres
    assert contract(h8p.counit, f, 0) == h8p.unit
    assert contract(h8p.counit, f, 1) == h8p.unit


def test_twist_intertwines_coproducts_pointwise(ctx_h8p):
    """f Delta(S(h)) f^-1 = (S x S)(flip Delta(h)) rebuilt with public ops."""
    h8p = ctx_h8p.pres
    S = h8p.antipode
    for i in range(h8p.dim):
        h = h8p.basis_element(i)
        lhs = mult_pointwise(
            h8p.mult,
            mult_pointwise(h8p.mult, ctx_h8p.f, h8p.coproduct.apply(S.apply(h))),
            ctx_h8p.f_inv)
        d = h8p.coproduct.apply(h)
        flipped = TensorElement(2, h8p.dim,
                                {(b, a): v for (a, b), v in d.entries.items()})
        rhs = apply_on_leg(S, apply_on_leg(S, flipped, 0), 1)
        assert lhs == rhs
