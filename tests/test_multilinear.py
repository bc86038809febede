"""Sparse tensor operations and the exact linear solver, with an
independent dense Gauss-Jordan oracle and the earlier dense elimination as
a reference."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from quasihopf.exactnum import (HALF, ONE, Scalar, ZERO, common_denominator,
                                from_numerator, numerator)
from quasihopf.multilinear import (DimMismatch, Functional, LegOutOfRange,
                                   LinearOperator, RankMismatch, SingularOperator,
                                   TensorElement, _join, _lift, _lift_columns,
                                   _lift_table, _Lifted, _lower, _lower_rows, _map_leg,
                                   _merge, _outer, apply_on_leg, contract, embed_legs,
                                   invert_operator, mult_pointwise, multiplication_operator,
                                   permute_legs, row_rank, solve_constraints, tensor_product)
from quasihopf.qha import make_mult


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


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_multiplication_operator_matches_basis_products(name, request):
    """Column i of L_a is a e_i and column i of R_a is e_i a, for a random
    element a over Q(i)."""
    from quasihopf.workbench import catalog_build
    pres = request.getfixturevalue("d2").presentation if name == "D(H2)" else catalog_build(name)
    n = pres.dim
    rng = random.Random(f"mult-op:{name}")

    def rand() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    a = TensorElement(1, n, {(rng.randrange(n),): Scalar.gaussian(rand(), rand())
                             for _ in range(4)})
    assert any(not v.is_rational() for v in a.entries.values())
    left = multiplication_operator(pres.mult, a, "left")
    right = multiplication_operator(pres.mult, a, "right")
    for i in range(n):
        e_i = pres.basis_element(i)
        assert left.columns[i] == mult_pointwise(pres.mult, a, e_i)
        assert right.columns[i] == mult_pointwise(pres.mult, e_i, a)


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


def test_expression_evaluate_leaves_no_reference_cycle(ctx_h8p):
    """One evaluation frees everything it made by reference counting alone:
    with the cycle collector off, a collection afterwards finds nothing."""
    import gc
    from quasihopf.canonical import REGISTRY

    lhs, _ = REGISTRY["rint4"].build(ctx_h8p)
    lhs.evaluate(ctx_h8p.ops)         # builds the lazy operands once
    gc.collect()
    gc.disable()
    try:
        lhs.evaluate(ctx_h8p.ops)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["kZ2-hopf", "H8+"])
def test_no_kernel_changes_an_operand(name, monkeypatch):
    """No kernel an evaluation runs changes a numerator form it is given or
    returns one as its result, so the form a bound tensor keeps can be
    shared: evaluated again, both sides of every registry identity, over Q
    (kZ2-hopf) and over Q(i) (H8+), give the same tensors and lift no
    source."""
    import quasihopf.expr as expr
    import quasihopf.multilinear as multilinear
    from quasihopf.canonical import REGISTRY
    from quasihopf.context import get_context
    from quasihopf.workbench import catalog_build

    def guarded(kernel):
        def run(*args):
            given = [(arg[0], dict(arg[0])) for arg in args
                     if type(arg) is tuple and len(arg) == 3 and type(arg[0]) is dict]
            out = kernel(*args)
            made = out[0] if type(out) is tuple else out
            for nums, before in given:
                assert nums == before and made is not nums, kernel.__name__
            return out
        return run

    for kernel in ("_join", "_merge", "_map_leg", "_outer", "_lower"):
        monkeypatch.setattr(expr, kernel, guarded(getattr(expr, kernel)))
    lifts = [0]
    lift = multilinear._lift

    def counted(entries, n):
        lifts[0] += 1
        return lift(entries, n)

    monkeypatch.setattr(multilinear, "_lift", counted)
    ctx = get_context(catalog_build(name))
    sides = [side for ident in REGISTRY.values() if not ident.custom
             for side in ident.build(ctx)]
    first = [side.evaluate(ctx.ops) for side in sides]
    lifts[0] = 0
    assert [side.evaluate(ctx.ops) for side in sides] == first
    assert lifts[0] == 0


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf"])
def test_expression_leg_bookkeeping_matches_kernels(name):
    """Merges, splits, contractions and operators planned by ``Expression``
    agree with the public leg-wise functions on random sparse tensors."""
    from quasihopf.context import get_context
    from quasihopf.expr import Expression, Fn, Leg
    from quasihopf.workbench import catalog_build
    from ref_registry import Si, r

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
        ba = Expression({"A": tensor_product(a, pres.unit), "B": b, "eps": pres.counit},
                        [Fn("eps", r("A", 3)),
                         Leg(r("B", 1), r("A", 1)), Leg(r("B", 2), r("A", 2))])
        assert ba.evaluate(ops) == mult_pointwise(pres.mult, b, a)
        # a split followed by a contraction of either coproduct leg
        delta = pres.coproduct.apply(x)
        for fname, fn in (("eps", pres.counit), ("f", f)):
            first = Expression({"x": x, fname: fn}, [Fn(fname, r("x", 1, 1)), Leg(r("x", 1, 2))])
            second = Expression({"x": x, fname: fn}, [Leg(r("x", 1, 1)), Fn(fname, r("x", 1, 2))])
            assert first.evaluate(ops) == contract(fn, delta, 0)
            assert second.evaluate(ops) == contract(fn, delta, 1)
        # an operator on one leg
        s_inv = ops.operators["Si"]
        assert (Expression({"t": t}, [Leg(Si(r("t", 1))), Leg(r("t", 2))]).evaluate(ops)
                == apply_on_leg(s_inv, t, 0))
        assert (Expression({"t": t}, [Leg(r("t", 1)), Leg(Si(r("t", 2)))]).evaluate(ops)
                == apply_on_leg(s_inv, t, 1))


# -- numerator kernels against the per-term Scalar loops -----------------------
#
# The reference loops below are the kernels as they were before they moved to
# numerator form: one Scalar product and one Scalar sum per term, a key
# dropped as soon as its total cancels.  The join has two: the loop over
# every pair of entries gives its values, and the two-step loop, which sums
# one operand into the table before it meets the other, its key order.


def ref_outer(a, b):
    return {ka + kb: va * vb for ka, va in a.items() for kb, vb in b.items()}


def _ref_add(out, key, term):
    acc = out.get(key)
    total = term if acc is None else acc + term
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def ref_merge(entries, mult, pa, pb):
    lo, hi = (pa, pb) if pa < pb else (pb, pa)
    out = {}
    for key, value in entries.items():
        rest = key[:lo] + key[lo + 1:hi] + key[hi + 1:]
        for k, s in mult.get((key[pa], key[pb]), ()):
            _ref_add(out, rest + (k,), value * s)
    return out


def ref_map_leg(entries, columns, p):
    out = {}
    for key, value in entries.items():
        for ckey, cval in columns[key[p]].items():
            _ref_add(out, key[:p] + ckey + key[p + 1:], value * cval)
    return out


def ref_contract(entries, coords, p):
    out = {}
    for key, value in entries.items():
        if not coords[key[p]].is_zero():
            _ref_add(out, key[:p] + key[p + 1:], value * coords[key[p]])
    return out


def ref_pair_join(a, b, mult, pa, pb):
    """The join as one loop over every pair of entries of ``a`` and ``b``."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            for k, s in mult.get((ka[pa], kb[pb]), ()):
                _ref_add(out, ka[:pa] + ka[pa + 1:] + kb[:pb] + kb[pb + 1:] + (k,),
                         va * vb * s)
    return out


def ref_join(a, b, mult, pa, pb):
    """The join in two steps, in the kernel's key order: head by head (in
    order of first appearance in ``a``), a[head, i] * M[i, j, k] summed over
    i into a partial product keyed by j then k, each partial entry then met
    with the entries of ``b`` whose index on leg ``pb`` is j."""
    heads, groups = {}, {}
    for ka, va in a.items():
        heads.setdefault(ka[:pa] + ka[pa + 1:], []).append((ka[pa], va))
    for kb, vb in b.items():
        groups.setdefault(kb[pb], []).append((kb[:pb] + kb[pb + 1:], vb))
    out = {}
    for head, entries in heads.items():
        partial = {}
        for i, va in entries:
            for j in groups:
                for k, s in mult.get((i, j), ()):
                    _ref_add(partial.setdefault(j, {}), k, va * s)
        for j, row in partial.items():
            for k, p in row.items():
                for tail, vb in groups[j]:
                    _ref_add(out, head + tail + (k,), p * vb)
    return out


def ref_mult_pointwise(mult, a, b, join=ref_pair_join):
    rank = len(next(iter(a), ())) or len(next(iter(b), ()))
    cur = join(a, b, mult, 0, 0)
    for j in range(1, rank):
        cur = ref_merge(cur, mult, 0, rank - j)
    return cur


# mixed denominators; the Gaussian ones have nonzero imaginary parts
RATIONALS = [Scalar.rational(a, d) for a in (-3, -1, 1, 2) for d in (1, 2, 3, 4, 6)]
GAUSSIANS = [Scalar.gaussian(Fraction(a, d), Fraction(b, e))
             for a, b, d, e in ((1, 1, 2, 3), (-2, 1, 3, 1), (0, -3, 1, 4), (5, 2, 6, 2))]


def assert_same_entries(out, ref):
    """Equal entries in the same key order, none zero, all in lowest terms."""
    assert list(out.items()) == list(ref.items())
    for s in out.values():
        assert not s.is_zero()
        assert s._d > 0 and gcd(s._a, s._b, s._d) == 1


def rank_of(entries):
    return len(next(iter(entries)))


def assert_join(a, b, mult, n, pa, pb):
    """The join kernel against both references: the two-step loop for the
    key order, the pair loop for the values."""
    ra, rb = rank_of(a), rank_of(b)
    out = _lower(_join(_lift(a, n), _lift(b, n), _lift_table(mult, n), ra, rb, pa, pb),
                 n, ra + rb - 1)
    assert_same_entries(out, ref_join(a, b, mult, pa, pb))
    assert out == ref_pair_join(a, b, mult, pa, pb)
    return out


@pytest.mark.parametrize("t_qi,c_qi", [(False, False), (True, False), (False, True),
                                       (True, True)])
def test_numerator_kernels_match_scalar_loops(t_qi, c_qi):
    rng = random.Random(f"kernels:{t_qi}:{c_qi}")
    n = 3

    def pick(qi):
        return rng.choice(GAUSSIANS + RATIONALS if qi else RATIONALS)

    def tensor(rank, qi):
        entries = {tuple(rng.randrange(n) for _ in range(rank)): pick(qi)
                   for _ in range(rng.randint(1, 7))}
        if rng.random() < 0.5:         # negated copies on reversed keys
            entries.update({key[::-1]: -v for key, v in list(entries.items())})
        return {k: v for k, v in entries.items() if not v.is_zero()}

    def table(qi):
        return make_mult(n, [(i, j, rng.randrange(n), pick(qi))
                             for i in range(n) for j in range(n) for _ in range(2)])

    for _ in range(12):
        rank = rng.randint(1, 3)
        a, b = tensor(rank, t_qi), tensor(rank, c_qi)
        mult = table(c_qi)
        crank = rng.randint(0, 2)       # the columns of one map have one rank
        columns = [tensor(crank, c_qi) for _ in range(n)]
        coords = [pick(c_qi) if rng.random() < 0.7 else ZERO for _ in range(n)]
        assert_same_entries(_lower(_outer(_lift(a, n), _lift(b, n), n, rank), n, 2 * rank),
                            ref_outer(a, b))
        pointwise = mult_pointwise(mult, TensorElement(rank, n, a), TensorElement(rank, n, b))
        assert_same_entries(pointwise.entries, ref_mult_pointwise(mult, a, b, join=ref_join))
        assert pointwise.entries == ref_mult_pointwise(mult, a, b)
        for p in range(rank):
            for q in range(rank):
                assert_join(a, b, mult, n, p, q)
            assert_same_entries(_lower(_map_leg(_lift(a, n), _lift_columns(columns, n, crank),
                                                rank, p), n, rank - 1 + crank),
                                ref_map_leg(a, columns, p))
            if rank > 1:
                assert_same_entries(contract(Functional(coords), TensorElement(rank, n, a),
                                             p).entries,
                                    ref_contract(a, coords, p))
                q = (p + 1) % rank
                assert_same_entries(_lower(_merge(_lift(a, n), _lift_table(mult, n), rank, p, q),
                                           n, rank - 1),
                                    ref_merge(a, mult, p, q))


@pytest.mark.parametrize("value", [Scalar.rational(1, 2), Scalar.gaussian(Fraction(1, 3), 1)])
def test_numerator_kernels_cancel_to_zero(value):
    """Sums that cancel leave no entry (and no zero entry) behind."""
    n = 2
    mult = make_mult(n, [(i, j, 0, ONE) for i in range(n) for j in range(n)])
    t = {(0, 0): value, (1, 1): -value}
    assert (_lower(_merge(_lift(t, n), _lift_table(mult, n), 2, 0, 1), n, 1)
            == ref_merge(t, mult, 0, 1) == {})
    columns = [{(0,): value}, {(0,): value}]
    s = {(0,): value, (1,): -value}
    assert _lower(_map_leg(_lift(s, n), _lift_columns(columns, n, 1), 1, 0), n, 1) == {}
    assert contract(Functional([value, value]), TensorElement(2, n, t), 0) == \
        TensorElement(1, n, {(0,): value * value, (1,): -value * value})
    assert contract(Functional([value, value]),
                    TensorElement(2, n, {(0, 0): value, (1, 0): -value}), 0).is_zero()
    a = TensorElement(1, n, {(0,): value, (1,): -value})
    assert mult_pointwise(mult, a, TensorElement(1, n, {(0,): ONE, (1,): ONE})).is_zero()


@pytest.mark.parametrize("value", [Scalar.rational(1, 2), Scalar.gaussian(Fraction(1, 3), 1)])
def test_join_partial_sums_cancel_to_zero(value):
    """Partial products of one head that cancel in the join's first step
    leave no entry behind.  With e_0 e_j = e_0 + e_1 and e_1 e_j = e_0 - e_1,
    a[h, 0] = a[h, 1] cancels on e_1 and a[h, 0] = -a[h, 1] on e_0; with
    e_i e_j = e_0 for all i, j, a[h, 0] = -a[h, 1] cancels altogether."""
    n = 2
    mult = make_mult(n, [(i, j, k, -ONE if i == k == 1 else ONE)
                         for i in range(n) for j in range(n) for k in range(n)])
    b = {(j, j): value * Scalar.rational(j + 1, 2) for j in range(n)}   # one tail per j
    a = {(0, 0): value, (0, 1): value, (1, 0): value, (1, 1): -value}
    out = assert_join(a, b, mult, n, 1, 0)
    assert {(key[0], key[-1]) for key in out} == {(0, 0), (1, 1)}
    to_unit = make_mult(n, [(i, j, 0, ONE) for i in range(n) for j in range(n)])
    assert assert_join({(0, 0): value, (0, 1): -value}, b, to_unit, n, 1, 0) == {}


def _dense_table(rng, n, qi, terms):
    """A table where every product e_i e_j has ``terms`` distinct terms."""
    pick = (lambda: rng.choice(GAUSSIANS + RATIONALS)) if qi else (lambda: rng.choice(RATIONALS))
    return make_mult(n, [(i, j, k, pick()) for i in range(n) for j in range(n)
                         for k in rng.sample(range(n), terms)]), pick


@pytest.mark.parametrize("qi", [False, True])
def test_join_on_a_dense_table(qi):
    """Every product has several terms, as on D(H2), and every head of
    ``a`` holds several indices, so the first step sums before the second."""
    rng = random.Random(f"dense:{qi}")
    n = 4
    mult, pick = _dense_table(rng, n, qi, 3)
    for rank_a, rank_b in ((1, 1), (2, 2), (3, 2), (2, 3)):
        a = {key: pick() for key in product(range(n), repeat=rank_a) if rng.random() < 0.8}
        b = {key: pick() for key in product(range(n), repeat=rank_b) if rng.random() < 0.8}
        for pa in range(rank_a):
            for pb in range(rank_b):
                heads = Counter(ka[:pa] + ka[pa + 1:] for ka in a)
                assert max(heads.values()) > 1
                assert assert_join(a, b, mult, n, pa, pb)


def test_join_looks_the_table_up_once_per_entry_and_joined_index(d2):
    """On D(H2)'s table a join of two dense two-leg tensors looks a product
    up once per (entry of a, distinct index of b on the joined leg), not once
    per pair of entries: 64 lookups where the pair loop makes 256."""

    class Counting(list):
        lookups = 0

        def __getitem__(self, index):
            self.lookups += 1
            return super().__getitem__(index)

    mult = d2.presentation.mult
    n = d2.presentation.dim
    lifted = _lift_table(mult, n)
    form = Counting(lifted.form(lifted.qi))
    counted = _Lifted(lifted.den, lifted.qi, lifted.n, lifted.rank, form)
    rng = random.Random("lookups")
    a = {key: rng.choice(RATIONALS) for key in product(range(n), repeat=2)}
    b = {key: rng.choice(RATIONALS) for key in product(range(n), repeat=2)}
    for pa, pb in ((1, 0), (0, 1)):
        form.lookups = 0
        out = _lower(_join(_lift(a, n), _lift(b, n), counted, 2, 2, pa, pb), n, 3)
        assert form.lookups == len(a) * len({kb[pb] for kb in b}) == n ** 3
        assert out == ref_pair_join(a, b, mult, pa, pb)


# -- entry codes ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_codes_round_trip_in_key_order(n):
    """Inside the kernels the key (i_0, ..., i_{r-1}) over dimension n is
    the int sum_l i_l n^(r-1-l), the empty key 0.  Lifting and lowering
    gives the entries back in their order for ranks 0 to 7, sorted codes
    lower to the keys in lexicographic order, lowering with a permutation
    permutes the legs as ``permute_legs`` does, and lowering split on the
    last leg groups the entries by their other legs in order."""
    rng = random.Random(f"codes:{n}")
    for rank in range(8):
        if n ** rank <= 4096:
            keys = list(product(range(n), repeat=rank))
            rng.shuffle(keys)
        else:
            keys = [tuple(rng.randrange(n) for _ in range(rank)) for _ in range(500)]
        entries = {key: RATIONALS[i % len(RATIONALS)] for i, key in enumerate(keys)}
        nums, den, qi = _lift(entries, n)
        assert list(nums) == [sum(i * n ** (rank - 1 - leg) for leg, i in enumerate(key))
                              for key in entries]
        assert list(_lower((nums, den, qi), n, rank).items()) == list(entries.items())
        assert list(_lower((dict(sorted(nums.items())), den, qi), n, rank)) == sorted(entries)
        perm = rng.sample(range(rank), rank)
        assert (list(_lower((nums, den, qi), n, rank, perm).items())
                == list(permute_legs(TensorElement(rank, n, entries), perm).entries.items()))
        if rank:
            rows: dict = {}
            for key, value in entries.items():
                rows.setdefault(key[:-1], {})[key[-1:]] = value
            assert ([(key, list(row.items())) for key, row in _lower_rows((nums, den, qi), n,
                                                                           rank).items()]
                    == [(key, list(row.items())) for key, row in rows.items()])
    assert _lift({(): HALF}, n)[0] == {0: 1}


def test_embed_legs_into_a_larger_dimension_matches_a_scalar_loop():
    """``embed_legs`` codes keys in the radix of the target dimension, of
    which the indices of the source are digits too: mapping every leg of
    a tensor over dimension 3 into dimension 8 agrees with the Scalar loop
    applied leg by leg, key order included."""
    rng = random.Random("embed")
    n, target = 3, 8
    columns = [TensorElement(1, target, {(rng.randrange(target),): rng.choice(RATIONALS)
                                         for _ in range(3)}) for _ in range(n)]
    for rank in (1, 2, 3):
        t = {tuple(rng.randrange(n) for _ in range(rank)): rng.choice(GAUSSIANS + RATIONALS)
             for _ in range(6)}
        ref = t
        for leg in range(rank):
            ref = ref_map_leg(ref, [c.entries for c in columns], leg)
        out = embed_legs(columns, TensorElement(rank, n, t))
        assert out.dim == target
        assert_same_entries(out.entries, ref)


def test_kernels_key_entries_by_int(d2):
    """Fed lifted operands on D(H2), every kernel returns int keys, and the
    lifted table and columns are lists of (int code, value) images: tuple
    keys stay out of the kernels."""
    pres = d2.presentation
    n = pres.dim
    table = _lift_table(pres.mult, n)
    coproduct, counit = pres.coproduct.numerator_columns(), pres.counit.numerator_columns()
    for lifted, size, rank in ((table, n * n, 1), (coproduct, n, 2), (counit, n, 0)):
        for qi in (False, True):
            form = lifted.form(qi)
            assert type(form) is list and len(form) == size and lifted.rank == rank
            assert all(type(k) is int for image in form for k, _ in image)
    phi = _lift(pres.phi.entries, n)
    assert len(phi[0]) == n ** 3
    i = _lift({(0, 1, 2): ONE}, n)
    outs = [_outer(phi, phi, n, 3), _merge(phi, table, 3, 0, 2),
            _join(phi, phi, table, 3, 3, 1, 0), _map_leg(phi, coproduct, 3, 1),
            _map_leg(phi, counit, 3, 2), _join(i, phi, table, 3, 3, 0, 2)]
    for nums, _, _ in [phi] + outs:
        assert nums and all(type(k) is int for k in nums)


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


# The dense elimination the solver had before it worked on sparse integer
# rows, kept as the reference: Scalar rows rescaled to Gaussian integers
# after every step, and a separate Gauss-Jordan for the inverse.


def _ref_integerize(row):
    den, qi = common_denominator(row)
    nums = [numerator(s, den, qi) for s in row]
    g = 0
    for v in nums:
        g = gcd(g, *v) if qi else gcd(g, v)
    if g > 1:
        nums = [(re // g, im // g) for re, im in nums] if qi else [v // g for v in nums]
    return [from_numerator(v, 1, qi) for v in nums]


class _RefEchelon:
    def __init__(self, width):
        self.width = width
        self.pivots = {}

    def insert(self, row):
        work = _ref_integerize(row)
        for col in sorted(self.pivots):
            c = work[col]
            if c.is_zero():
                continue
            piv = self.pivots[col]
            p = piv[col]
            work = _ref_integerize([p * w - c * q for w, q in zip(work, piv)])
        if all(s.is_zero() for s in work):
            return
        self.pivots[next(i for i, s in enumerate(work) if not s.is_zero())] = work

    def kernel(self):
        pivot_cols = sorted(self.pivots)
        basis = []
        for free in (c for c in range(self.width) if c not in self.pivots):
            sol = [ZERO] * self.width
            sol[free] = ONE
            for col in reversed(pivot_cols):
                if col > free:
                    continue
                piv = self.pivots[col]
                acc = ZERO
                for j in range(col + 1, self.width):
                    if not piv[j].is_zero() and not sol[j].is_zero():
                        acc = acc + piv[j] * sol[j]
                sol[col] = -(acc / piv[col])
            inv = next(s for s in sol if not s.is_zero()).inverse()
            basis.append([s * inv for s in sol])
        return basis


def ref_kernel_basis(rows, width):
    ech = _RefEchelon(width)
    for row in rows:
        ech.insert(row)
    return ech.kernel()


def ref_invert(op):
    """Gauss-Jordan on [M | I]; None when M is singular."""
    n = op.dim
    aug = [[op.columns[j].coeff(i) for j in range(n)] + [ONE if i == j else ZERO for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col and not factor.is_zero():
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return LinearOperator(n, [TensorElement.vector([aug[i][n + j] for i in range(n)])
                              for j in range(n)])


def _rows(rows):
    return [TensorElement.vector(row) for row in rows]


def _residual_free(rows, basis):
    for vec in basis:
        for row in rows:
            acc = ZERO
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero()


def test_kernel_identity_matrix():
    rows = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert solve_constraints(_rows(rows), 3) == []


def test_kernel_zero_row():
    assert len(solve_constraints(_rows([[ZERO, ZERO]]), 2)) == 2


def test_kernel_matches_oracle_random():
    rng = random.Random(31)
    for _ in range(40):
        height, width = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Scalar.gaussian(rng.randint(-3, 3), rng.randint(-2, 2))
                 if rng.random() < 0.7 else ZERO
                 for _ in range(width)] for _ in range(height)]
        got = solve_constraints(_rows(rows), width)
        expected = dense_nullspace_oracle(rows, width)

        def key(vec):
            return [str(v) for v in vec]

        assert sorted(got, key=key) == sorted(expected, key=key)
        _residual_free(rows, got)


def test_kernel_exact_with_huge_coefficients():
    """Elimination stays exact when numerators overflow any fixed width."""
    big = 10 ** 40
    rows = [
        [Scalar.of(big), Scalar.of(big + 1), Scalar.of(0)],
        [Scalar.of(3), Scalar.rational(1, big), Scalar.of(-1)],
    ]
    basis = solve_constraints(_rows(rows), 3)
    assert len(basis) == 1
    _residual_free(rows, basis)
    assert basis == dense_nullspace_oracle(rows, 3)


def _integral_rows(pres):
    n = pres.dim
    rows = []
    for d in range(n):
        e_d = pres.basis_element(d)
        eps_d = pres.counit(e_d)
        cols = [pres.multiply(e_d, pres.basis_element(j)) for j in range(n)]
        for m in range(n):
            rows.append([cols[j].coeff(m) - (eps_d if m == j else ZERO)
                         for j in range(n)])
    return rows


def test_kernel_h8_integral_system(h8p):
    """The system h*t = eps(h) t over all basis h pins down (1+g)x^3."""
    basis = solve_constraints(_rows(_integral_rows(h8p)), h8p.dim)
    assert len(basis) == 1
    expected = [ZERO] * h8p.dim
    expected[6] = ONE   # x^3
    expected[7] = ONE   # g x^3
    assert basis[0] == expected


def test_solve_constraints_streaming_agrees(h8p):
    rows = _integral_rows(h8p)
    assert solve_constraints(iter(_rows(rows)), h8p.dim) == ref_kernel_basis(rows, h8p.dim)


def test_solve_constraints_rejects_a_row_of_another_width():
    with pytest.raises(DimMismatch):
        solve_constraints(_rows([[ONE, ZERO], [ONE, ONE, ONE]]), 2)


def _random_scalar(rng, qi, big):
    num = rng.randint(-3, 3) * (10 ** 40 if big and rng.random() < 0.3 else 1)
    den = rng.choice((1, 1, 2, 3, 10 ** 40 if big else 5))
    if qi:
        return Scalar.gaussian(Fraction(num, den), Fraction(rng.randint(-2, 2), den))
    return Scalar.rational(num, den)


def _random_system(rng, qi):
    """A tall system: a low-rank seed of ``width`` rows (zero rows among
    them), then rows that may cut the kernel further, so the certify path
    has to insert rows after the seed."""
    width = rng.randint(1, 7)
    big = rng.random() < 0.3
    basis = [[_random_scalar(rng, qi, big) if rng.random() < 0.7 else ZERO
              for _ in range(width)] for _ in range(rng.randint(1, width))]
    rows = []
    for _ in range(width):
        if rng.random() < 0.2:
            rows.append([ZERO] * width)
            continue
        coeffs = [Scalar.of(rng.randint(-2, 2)) for _ in basis]
        row = [ZERO] * width
        for c, b in zip(coeffs, basis):
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    for _ in range(rng.randint(0, 2 * width)):
        rows.append([_random_scalar(rng, qi, big) if rng.random() < 0.5 else ZERO
                     for _ in range(width)])
    return rows, width


def _random_operator(rng, qi):
    n = rng.randint(1, 5)
    big = rng.random() < 0.3
    cols = [[_random_scalar(rng, qi, big) if rng.random() < 0.6 else ZERO
             for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.3:          # singular: a column repeats or vanishes
        j, k = rng.randrange(n), rng.randrange(n)
        cols[j] = list(cols[k]) if j != k else [ZERO] * n
    return LinearOperator(n, [TensorElement.vector(c) for c in cols])


@pytest.mark.parametrize("qi", [False, True])
def test_sparse_echelon_matches_the_dense_reference(qi):
    """The same kernel vectors in the same order as the dense elimination,
    and SingularOperator in exactly the cases Gauss-Jordan finds no pivot."""
    rng = random.Random(7 + qi)
    inserted_after_seed = singular = 0
    for _ in range(150):
        rows, width = _random_system(rng, qi)
        expected = ref_kernel_basis(rows, width)
        assert solve_constraints(iter(_rows(rows)), width) == expected
        inserted_after_seed += len(ref_kernel_basis(rows[:width], width)) > len(expected)

        op = _random_operator(rng, qi)
        inverse = ref_invert(op)
        if inverse is None:
            singular += 1
            with pytest.raises(SingularOperator):
                invert_operator(op)
        else:
            assert invert_operator(op) == inverse
    assert inserted_after_seed > 20 and singular > 20


def test_row_rank():
    rows = [[ONE, ONE, ZERO], [ZERO, ZERO, ZERO], [HALF, HALF, ZERO], [ZERO, ONE, ONE]]
    assert row_rank(_rows(rows), 3) == 2


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
