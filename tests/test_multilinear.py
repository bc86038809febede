"""Sparse tensor operations and the exact nullspace solver, with an
independent dense Gauss-Jordan oracle."""

from __future__ import annotations

import random

import pytest

from quasihopf.exactnum import HALF, ONE, Scalar, ZERO
from quasihopf.multilinear import (DimMismatch, Functional, LegOutOfRange,
                                   LinearOperator, RankMismatch, SingularOperator,
                                   TensorElement, apply_on_leg, contract,
                                   invert_operator, kernel_basis, mult_pointwise,
                                   solve_constraints, tensor_product)


def test_tensor_product_expansion(h2):
    one_plus_g = TensorElement(1, 2, {(0,): ONE, (1,): ONE})
    square = tensor_product(one_plus_g, one_plus_g)
    assert square == TensorElement(2, 2, {(0, 0): ONE, (0, 1): ONE,
                                          (1, 0): ONE, (1, 1): ONE})


def test_tensor_product_zero(h2):
    t = TensorElement.basis(2, 1)
    assert tensor_product(t, TensorElement.zero(1, 2)).is_zero()


def test_pminus_cubed_shifts_unit_to_phi(h2):
    p_minus = TensorElement(1, 2, {(0,): HALF, (1,): -HALF})
    cube = tensor_product(tensor_product(p_minus, p_minus), p_minus)
    unit3 = TensorElement(3, 2, {(0, 0, 0): ONE})
    assert unit3 + cube.scale(Scalar.of(-2)) == h2.phi


def test_tensor_product_dim_mismatch():
    with pytest.raises(DimMismatch):
        tensor_product(TensorElement.basis(2, 0), TensorElement.basis(3, 0))


def test_mult_pointwise_phi_inverse(h2, h8p):
    unit3 = tensor_product(tensor_product(h2.unit, h2.unit), h2.unit)
    assert mult_pointwise(h2.mult, h2.phi, h2.phi_inv) == unit3
    # for the eight-dimensional algebras the reassociator is an involution
    assert h8p.phi == h8p.phi_inv
    unit3_8 = tensor_product(tensor_product(h8p.unit, h8p.unit), h8p.unit)
    assert mult_pointwise(h8p.mult, h8p.phi, h8p.phi) == unit3_8


def test_mult_pointwise_unit(h8p):
    unit2 = tensor_product(h8p.unit, h8p.unit)
    a = h8p.coproduct.apply(h8p.basis_element(6))
    assert mult_pointwise(h8p.mult, unit2, a) == a
    assert mult_pointwise(h8p.mult, a, unit2) == a


def test_mult_pointwise_rank_mismatch(h2):
    with pytest.raises(RankMismatch):
        mult_pointwise(h2.mult, h2.unit, tensor_product(h2.unit, h2.unit))


def test_mult_pointwise_associative_random(h2, h8p, h8m, baseline):
    rng = random.Random(99)
    for pres in (h2, h8p, h8m, baseline):
        n = pres.dim
        for _ in range(8):
            def rand2():
                entries = {(rng.randrange(n), rng.randrange(n)):
                           Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(4)}
                return TensorElement(2, n, entries)
            a, b, c = rand2(), rand2(), rand2()
            left = mult_pointwise(pres.mult, mult_pointwise(pres.mult, a, b), c)
            right = mult_pointwise(pres.mult, a, mult_pointwise(pres.mult, b, c))
            assert left == right


def test_apply_on_leg_antipode(h8p):
    g, x = h8p.basis_element(1), h8p.basis_element(2)
    t = tensor_product(g, x)
    assert apply_on_leg(h8p.antipode, t, 0) == t  # S(g) = g
    ident = LinearOperator.identity(h8p.dim)
    assert apply_on_leg(ident, t, 1) == t


def test_apply_on_leg_coproduct_raises_rank(h2):
    g = h2.basis_element(1)
    assert apply_on_leg(h2.coproduct, g, 0) == TensorElement(2, 2, {(1, 1): ONE})


def test_apply_on_leg_out_of_range(h2):
    with pytest.raises(LegOutOfRange):
        apply_on_leg(h2.antipode, h2.unit, 1)


def test_contract_counit_realizes_coproduct_counit_law(h2):
    for i in range(2):
        d = h2.coproduct.apply(h2.basis_element(i))
        assert contract(h2.counit, d, 0) == h2.basis_element(i)
        assert contract(h2.counit, d, 1) == h2.basis_element(i)


def test_contract_dual_basis(h8p):
    t = tensor_product(h8p.basis_element(1), h8p.basis_element(2))
    p_g = Functional.dual_basis(8, 1)
    assert contract(p_g, t, 0) == h8p.basis_element(2)


def test_contract_counit_legs_of_phi(h2):
    once = contract(h2.counit, h2.phi, 0)
    twice = contract(h2.counit, once, 0)
    assert twice == h2.unit
    assert contract(h2.counit, contract(h2.counit, h2.phi, 2), 1) == h2.unit


def test_contract_rank_one_gives_scalar(h2):
    assert contract(h2.counit, h2.unit, 0) == ONE


def test_contract_bilinearity_probe(h8p):
    rng = random.Random(5)
    n = h8p.dim
    f = Functional([Scalar.of(rng.randint(-4, 4)) for _ in range(n)])
    a = TensorElement(1, n, {(rng.randrange(n),): Scalar.of(3), (2,): Scalar.of(-1)})
    b = TensorElement(2, n, {(1, 4): Scalar.rational(1, 2), (0, 0): ONE})
    left = contract(f, tensor_product(a, b), 0)
    assert left == b.scale(f(a))


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf"])
def test_expression_leg_bookkeeping_matches_kernels(name):
    """Merges, splits, contractions and operators planned by ``Expression``
    agree with the public leg-wise functions on random sparse tensors."""
    from quasihopf.context import get_context
    from quasihopf.expr import Expression, Fn, Leg, Si, r
    from quasihopf.workbench import catalog_build

    pres = catalog_build(name)
    ops = get_context(pres).ops
    n = pres.dim
    rng = random.Random(f"legs:{name}")

    def rand(rank: int) -> TensorElement:
        entries = {tuple(rng.randrange(n) for _ in range(rank)):
                   Scalar.rational(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(5)}
        return TensorElement(rank, n, entries)

    for _ in range(4):
        a, b, x, t = rand(2), rand(2), rand(1), rand(2)
        f = Functional([Scalar.of(rng.randint(-2, 2)) for _ in range(n)])
        # slot order: each merge finds its first factor's leg first
        ab = Expression({"A": a, "B": b}, [Leg(r("A", 1), r("B", 1)),
                                           Leg(r("A", 2), r("B", 2))])
        assert ab.evaluate(ops) == mult_pointwise(pres.mult, a, b)
        # the Fn slot pulls A before B, so each merge B * A finds its second
        # factor's leg first
        ba = Expression({"A": tensor_product(a, pres.unit), "B": b},
                        [Fn("eps", r("A", 3)),
                         Leg(r("B", 1), r("A", 1)), Leg(r("B", 2), r("A", 2))])
        assert ba.evaluate(ops) == mult_pointwise(pres.mult, b, a)
        # a split followed by a contraction of either coproduct leg
        delta = pres.coproduct.apply(x)
        for fname, fn in (("eps", pres.counit), ("f", f)):
            first = Expression({"x": x}, [Fn(fname, r("x", 1, 1)), Leg(r("x", 1, 2))])
            second = Expression({"x": x}, [Leg(r("x", 1, 1)), Fn(fname, r("x", 1, 2))])
            assert first.evaluate(ops, None, {"f": f}) == contract(fn, delta, 0)
            assert second.evaluate(ops, None, {"f": f}) == contract(fn, delta, 1)
        # an operator on one leg
        s_inv = ops.operators["Si"]
        assert (Expression({"t": t}, [Leg(Si(r("t", 1))), Leg(r("t", 2))]).evaluate(ops)
                == apply_on_leg(s_inv, t, 0))
        assert (Expression({"t": t}, [Leg(r("t", 1)), Leg(Si(r("t", 2)))]).evaluate(ops)
                == apply_on_leg(s_inv, t, 1))


# -- nullspace ---------------------------------------------------------------


def dense_nullspace_oracle(rows, width):
    """Plain Gauss-Jordan over the scalar field; independent of the
    fraction-free path used by the library."""
    mat = [list(row) for row in rows]
    pivots = {}
    row_idx = 0
    for col in range(width):
        pivot = next((k for k in range(row_idx, len(mat))
                      if not mat[k][col].is_zero()), None)
        if pivot is None:
            continue
        mat[row_idx], mat[pivot] = mat[pivot], mat[row_idx]
        inv = mat[row_idx][col].inverse()
        mat[row_idx] = [v * inv for v in mat[row_idx]]
        for k in range(len(mat)):
            if k != row_idx and not mat[k][col].is_zero():
                factor = mat[k][col]
                mat[k] = [v - factor * p for v, p in zip(mat[k], mat[row_idx])]
        pivots[col] = row_idx
        row_idx += 1
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [ZERO] * width
        vec[free] = ONE
        for col, prow in pivots.items():
            vec[col] = -mat[prow][free]
        lead = next(v for v in vec if not v.is_zero())
        inv = lead.inverse()
        basis.append([v * inv for v in vec])
    return basis


def test_kernel_identity_matrix():
    rows = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert kernel_basis(rows, 3) == []


def test_kernel_zero_row():
    assert len(kernel_basis([[ZERO, ZERO]], 2)) == 2


def test_kernel_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Scalar.gaussian(rng.randint(-3, 3), rng.randint(-2, 2))
                 if rng.random() < 0.7 else ZERO
                 for _ in range(width)] for _ in range(height)]
        got = kernel_basis(rows, width)
        expected = dense_nullspace_oracle(rows, width)

        def key(vec):
            return [str(v) for v in vec]

        assert sorted(got, key=key) == sorted(expected, key=key)
        # residual property: every returned vector satisfies every row exactly
        for vec in got:
            for row in rows:
                acc = ZERO
                for a, b in zip(row, vec):
                    acc = acc + a * b
                assert acc.is_zero()


def test_kernel_exact_with_huge_coefficients():
    """Elimination stays exact when numerators overflow any fixed width."""
    big = 10 ** 40
    rows = [
        [Scalar.of(big), Scalar.of(big + 1), Scalar.of(0)],
        [Scalar.of(3), Scalar.rational(1, big), Scalar.of(-1)],
    ]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    vec = basis[0]
    for row in rows:
        acc = ZERO
        for a, b in zip(row, vec):
            acc = acc + a * b
        assert acc.is_zero()
    oracle = dense_nullspace_oracle(rows, 3)
    assert basis == oracle


def test_kernel_h8_integral_system(h8p):
    """The system h*t = eps(h) t over all basis h pins down (1+g)x^3."""
    n = h8p.dim
    rows = []
    for d in range(n):
        e_d = h8p.basis_element(d)
        eps_d = h8p.counit(e_d)
        cols = [h8p.multiply(e_d, h8p.basis_element(j)) for j in range(n)]
        for m in range(n):
            rows.append([cols[j].coeff(m) - (eps_d if m == j else ZERO)
                         for j in range(n)])
    basis = kernel_basis(rows, n)
    assert len(basis) == 1
    expected = [ZERO] * n
    expected[6] = ONE   # x^3
    expected[7] = ONE   # g x^3
    assert basis[0] == expected


def test_solve_constraints_streaming_agrees(h8p):
    n = h8p.dim
    rows = []
    for d in range(n):
        e_d = h8p.basis_element(d)
        eps_d = h8p.counit(e_d)
        cols = [h8p.multiply(e_d, h8p.basis_element(j)) for j in range(n)]
        for m in range(n):
            rows.append([cols[j].coeff(m) - (eps_d if m == j else ZERO)
                         for j in range(n)])
    assert solve_constraints(iter(rows), n) == kernel_basis(rows, n)


from hypothesis import given, settings
from hypothesis import strategies as st


def _tensor_strategy(dim: int, rank: int):
    scalar = st.builds(Scalar.gaussian, st.integers(-4, 4), st.integers(-4, 4))
    key = st.tuples(*[st.integers(0, dim - 1)] * rank)
    return st.dictionaries(key, scalar, max_size=5).map(
        lambda entries: TensorElement(rank, dim, entries))


@given(_tensor_strategy(2, 1), _tensor_strategy(2, 2))
@settings(max_examples=120)
def test_contract_after_product_is_scaling(a, b):
    f = Functional([Scalar.of(2), Scalar.of(-3)])
    assert contract(f, tensor_product(a, b), 0) == b.scale(f(a))


@given(_tensor_strategy(2, 2), _tensor_strategy(2, 2), _tensor_strategy(2, 2))
@settings(max_examples=80)
def test_pointwise_mult_bilinear(a, b, c):
    h2 = catalog_mult()
    left = mult_pointwise(h2, a + b, c)
    assert left == mult_pointwise(h2, a, c) + mult_pointwise(h2, b, c)
    right = mult_pointwise(h2, c, a + b)
    assert right == mult_pointwise(h2, c, a) + mult_pointwise(h2, c, b)


def catalog_mult():
    from quasihopf.workbench import catalog_build
    return catalog_build("H2").mult


def test_invert_operator(h8p):
    s_inv = invert_operator(h8p.antipode)
    ident = LinearOperator.identity(h8p.dim)
    assert s_inv.compose(h8p.antipode) == ident
    assert h8p.antipode.compose(s_inv) == ident
    with pytest.raises(SingularOperator):
        invert_operator(LinearOperator(2, [TensorElement.basis(2, 0),
                                           TensorElement.basis(2, 0)]))
