"""Presentation loading, axiom verification, variants, iterated coproducts
and the four dual actions."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import all_mutations, constant_mutations, mutate_presentation, relabelled
from quasihopf import intcoint, multilinear, qha
from quasihopf.context import AlgebraContext, get_context
from quasihopf.exactnum import HALF, ONE, Scalar
from quasihopf.expr import VAR, AlgebraOps, Expression, Leg
from quasihopf.multilinear import (Functional, TensorElement, apply_on_leg, contract,
                                   row_rank, tensor_product)
from quasihopf.qha import (AXIOM_ROWS, PREREQUISITES, AxiomViolation,
                           BadCounitNormalization, BadPlan, NonInvertiblePhi,
                           QhaPresentation, SingularAntipode,
                           antipode_inverse, dual_action, generating_set,
                           hit_element_left, hit_element_right,
                           hit_functional_left, hit_functional_right,
                           iterated_coproduct, load_and_validate, variant,
                           verify_axioms)
from quasihopf.report import render_witness
from quasihopf.workbench import catalog_build
from ref_evaluate import ref_evaluate
from ref_registry import S, r


def test_catalog_presentations_pass_axioms(h2, h8p, h8m, baseline):
    for pres in (h2, h8p, h8m, baseline):
        report = verify_axioms(pres)
        assert report.passed(), report.render_text()


def test_trivial_phi_with_alpha_g_violates_zigzag(h2):
    """Keeping alpha = g while flattening the reassociator breaks the
    normalization X1 beta S(X2) alpha X3 = 1: the oracle evaluates it to g."""
    trivial_phi = TensorElement(3, 2, {(0, 0, 0): ONE})
    broken = QhaPresentation(
        name="H2-broken", dim=2, basis=h2.basis, field_tag=h2.field_tag,
        mult=h2.mult, unit=h2.unit, counit=h2.counit, coproduct=h2.coproduct,
        phi=trivial_phi, phi_inv=trivial_phi, antipode=h2.antipode,
        alpha=h2.alpha, beta=h2.beta)
    # independent evaluation of the zig-zag with plain loops
    acc = TensorElement.zero(1, 2)
    for (a, b, c), v in trivial_phi.entries.items():
        term = h2.multiply(h2.basis_element(a), h2.beta)
        term = h2.multiply(term, h2.antipode.apply(h2.basis_element(b)))
        term = h2.multiply(term, h2.alpha)
        term = h2.multiply(term, h2.basis_element(c))
        acc = acc + term.scale(v)
    assert acc == h2.basis_element(1)  # evaluates to g, not 1
    with pytest.raises(AxiomViolation) as err:
        load_and_validate(broken)
    assert "q6" in err.value.check


def test_load_rescales_alpha_beta(h2):
    scaled = QhaPresentation(
        name="H2-scaled", dim=2, basis=h2.basis, field_tag=h2.field_tag,
        mult=h2.mult, unit=h2.unit, counit=h2.counit, coproduct=h2.coproduct,
        phi=h2.phi, phi_inv=h2.phi_inv, antipode=h2.antipode,
        alpha=h2.alpha.scale(Scalar.of(2)), beta=h2.beta.scale(HALF))
    loaded = load_and_validate(scaled)
    assert h2.counit(loaded.alpha) == ONE
    assert h2.counit(loaded.beta) == ONE
    assert loaded.alpha == h2.alpha and loaded.beta == h2.beta


def test_load_rejects_noninvertible_phi(h2):
    from quasihopf.qha import NonInvertiblePhi
    bad = QhaPresentation(
        name="H2-flat", dim=2, basis=h2.basis, field_tag=h2.field_tag,
        mult=h2.mult, unit=h2.unit, counit=h2.counit, coproduct=h2.coproduct,
        phi=h2.phi, phi_inv=TensorElement(3, 2, {(0, 0, 0): ONE}),
        antipode=h2.antipode, alpha=h2.alpha, beta=h2.beta)
    with pytest.raises(NonInvertiblePhi):
        load_and_validate(bad)


def test_phi_invertible_row_checks_each_product(h8p):
    """phi = g x 1 x 1 with phi_inv = (g + gx) x 1 x 1 leaves the residuals
    x x 1 x 1 and -x x 1 x 1: each product is checked on its own, so the
    two cannot cancel into a passing row."""
    g, gx, x = (h8p.basis.index(label) for label in ("g", "gx", "x"))
    phi = TensorElement(3, 8, {(g, 0, 0): ONE})
    phi_inv = TensorElement(3, 8, {(g, 0, 0): ONE, (gx, 0, 0): ONE})
    broken = dataclasses.replace(h8p, name="H8+-phi", phi=phi, phi_inv=phi_inv)
    row = next(row for row in verify_axioms(broken).rows if row.name == "phi:invertible")
    assert not row.passed
    assert row.witness == TensorElement(3, 8, {(x, 0, 0): ONE})


def test_validation_multiplies_phi_by_its_inverse_once_each_way(monkeypatch):
    """``load_and_validate`` computes phi phi^-1 and phi^-1 phi once: the
    ``phi:invertible`` row reads the products its ``NonInvertiblePhi``
    check made, and ``verify_axioms`` alone still computes them."""
    pres = catalog_build("H8+")
    made = []
    product = qha.mult_pointwise

    def counted(mult, a, b):
        made.append((a, b))
        return product(mult, a, b)

    monkeypatch.setattr(qha, "mult_pointwise", counted)

    def phi_products() -> int:
        count = sum((a, b) in ((pres.phi, pres.phi_inv), (pres.phi_inv, pres.phi))
                    for a, b in made if a is pres.phi or a is pres.phi_inv)
        made.clear()
        return count
    load_and_validate(pres)
    assert phi_products() == 2
    row = next(row for row in verify_axioms(pres).rows if row.name == "phi:invertible")
    assert row.passed and phi_products() == 2


def test_load_rejects_bad_counit_normalization(h2):
    bad = QhaPresentation(
        name="H2-bad", dim=2, basis=h2.basis, field_tag=h2.field_tag,
        mult=h2.mult, unit=h2.unit, counit=h2.counit, coproduct=h2.coproduct,
        phi=h2.phi, phi_inv=h2.phi_inv, antipode=h2.antipode,
        alpha=h2.alpha.scale(Scalar.of(2)), beta=h2.beta)
    with pytest.raises(BadCounitNormalization):
        load_and_validate(bad)


def test_every_single_mutation_fails_axioms_h2(h2):
    """Bumping any one structure constant by 1 must break at least one
    axiom row (exhaustive over every slot of the two-dimensional example)."""
    count = 0
    for mutated in all_mutations(h2):
        count += 1
        try:
            report = verify_axioms(mutated)
        except Exception:
            continue  # a crash counts as a detected corruption
        assert not report.passed(), f"mutation {mutated.name} went unnoticed"
    assert count == 3 * 8 + 4 + 3 * 2 + 2


def test_sampled_mutations_fail_axioms_h8(h8p):
    import random
    rng = random.Random(13)
    pool = list(all_mutations(h8p))
    for mutated in rng.sample(pool, 20):
        try:
            report = verify_axioms(mutated)
        except Exception:
            continue
        assert not report.passed(), f"mutation {mutated.name} went unnoticed"


# -- rejection at the first failed row --------------------------------------------


def _rejection(pres: QhaPresentation):
    """What ``load_and_validate`` raises on ``pres``: the type, the message,
    the row and the rendered witness; None when it accepts."""
    try:
        load_and_validate(pres)
    except (AxiomViolation, NonInvertiblePhi, BadCounitNormalization) as exc:
        return (type(exc), str(exc), getattr(exc, "check", None),
                render_witness(getattr(exc, "witness", None)))
    return None


def test_rejection_names_the_first_failed_row_of_the_full_report(h2, h8p, h8m, baseline,
                                                                monkeypatch):
    """On every single-constant mutant of two relabellings each of H8+, H8-,
    H2 and kZ2-hopf, ``load_and_validate`` raises what it raises when
    ``verify_axioms`` computes every row: the same exception, row and
    witness.  The mutants include rows that fail only with a prerequisite
    computed ahead of its place in the report."""
    import random
    rng = random.Random(19)
    subjects = [mutant for pres in (h8p, h8m, h2, baseline) for _ in range(2)
                for mutant in constant_mutations(relabelled(pres, rng.sample(range(pres.dim),
                                                                             pres.dim)))]
    assert len(subjects) == 2 * (150 + 150 + 32 + 18)
    early = [_rejection(pres) for pres in subjects]
    monkeypatch.setattr(qha, "verify_axioms", lambda pres, **options: verify_axioms(pres))
    assert early == [_rejection(pres) for pres in subjects]
    assert None not in early
    witnesses = {rejection[3] for rejection in early if rejection[2] == "q2"}
    assert {"prerequisite antipode:unit failed",
            "prerequisite antipode:anti-morphism failed"} <= witnesses
    for pres in (h2, h8p):
        assert [row.name for row in verify_axioms(pres, first_failure=True).rows] == list(AXIOM_ROWS)


def test_mult_unit_rejection_computes_no_later_row(h8p, monkeypatch):
    """A presentation whose unit row fails is rejected before the generating
    set, and every row after ``mult:unit``, is computed."""
    def unreachable(*args):
        raise AssertionError("computed after mult:unit failed")

    broken = mutate_presentation(h8p, "mult", (0, 2, 2))    # 1 x = 2 x
    monkeypatch.setattr(qha, "_generators", unreachable)
    monkeypatch.setattr(qha, "_associated_products", unreachable)
    with pytest.raises(AxiomViolation) as err:
        load_and_validate(broken)
    assert err.value.check == "mult:unit"
    rows = verify_axioms(broken, first_failure=True).rows
    assert [(row.name, row.passed) for row in rows] == [("mult:unit", False)]


def test_late_prerequisite_rejection_stops_at_q2(h8p):
    """With S(1) = 2 every row before q2 passes and q2 fails with the
    antipode rows computed ahead of it; no row after q2 is computed."""
    broken = mutate_presentation(h8p, "antipode", (0, 0))
    rows = verify_axioms(broken, first_failure=True).rows
    assert [row.name for row in rows] == [*AXIOM_ROWS[:AXIOM_ROWS.index("q2") + 1],
                                          "phi:invertible", "antipode:unit",
                                          "antipode:anti-morphism"]
    assert [row.name for row in rows if not row.passed] == ["q2", "antipode:unit",
                                                            "antipode:anti-morphism"]
    assert rows[AXIOM_ROWS.index("q2")].witness == "prerequisite antipode:unit failed"


# -- axiom rows on a generating set against full enumeration ---------------------


def _full_enumeration(pres: QhaPresentation) -> dict[str, bool]:
    """The reference: each quantified axiom row over every basis instance,
    every product and coproduct computed on its own."""
    n = pres.dim
    basis = [pres.basis_element(i) for i in range(n)]
    pairs = [(a, b) for a in basis for b in basis]
    mul, eps = pres.multiply, pres.counit
    delta, s = pres.coproduct.apply, pres.antipode.apply
    ops = AlgebraOps(n, pres.mult, pres.unit, pres.coproduct, operators={"S": pres.antipode})
    q5_alpha = Expression({"h": VAR, "a": pres.alpha},
                          [Leg(S(r("h", 1, 1)), r("a"), r("h", 1, 2))])
    q5_beta = Expression({"h": VAR, "b": pres.beta},
                         [Leg(r("h", 1, 1), r("b"), S(r("h", 1, 2)))])

    def q1(h: TensorElement) -> bool:
        d = delta(h)
        nested = apply_on_leg(pres.coproduct, d, 0)
        return apply_on_leg(pres.coproduct, d, 1) == mul(mul(pres.phi, nested), pres.phi_inv)

    return {
        "mult:unit": all(mul(pres.unit, a) == a == mul(a, pres.unit) for a in basis),
        "mult:assoc": all(mul(mul(a, b), c) == mul(a, mul(b, c)) for a, b in pairs for c in basis),
        "counit:morphism": all(eps(mul(a, b)) == eps(a) * eps(b) for a, b in pairs),
        "coproduct:morphism": all(delta(mul(a, b)) == mul(delta(a), delta(b)) for a, b in pairs),
        "q2": all(contract(eps, delta(h), leg) == h for h in basis for leg in (1, 0)),
        "q1": all(q1(h) for h in basis),
        "q5": all(ref_evaluate(q5_alpha, ops, {"h": h}) == pres.alpha.scale(eps(h))
                  and ref_evaluate(q5_beta, ops, {"h": h}) == pres.beta.scale(eps(h))
                  for h in basis),
        "antipode:anti-morphism": all(s(mul(a, b)) == mul(s(b), s(a)) for a, b in pairs),
        "counit-of-antipode": all(eps(s(h)) == eps(h) for h in basis),
    }


def _with_prerequisites(passed: dict[str, bool]) -> dict[str, bool]:
    """Each row failed also when one of its ``PREREQUISITES`` failed."""
    return {name: ok and all(passed[p] for p in PREREQUISITES.get(name, ()))
            for name, ok in passed.items()}


def test_generator_rows_agree_with_full_enumeration(h2, h8p, h8m, baseline, d2):
    """On the catalog algebras, their op/cop/opcop variants, D(H2), H8+ and
    H8- under a basis permutation, all 36 single-constant mutants of H2 and
    20 each of H8+ and of permuted H8+, ``verify_axioms`` fails exactly the
    rows that full enumeration fails, once each row also fails with a
    failed prerequisite.  The rows that are not quantified run the same code
    in both, so the reference takes them from the report."""
    import random
    rng = random.Random(13)
    catalog = [h2, h8p, h8m, baseline]
    moved = [relabelled(pres, rng.sample(range(8), 8)) for pres in (h8p, h8m)]
    subjects = [*catalog, *(variant(p, w) for p in catalog for w in ("op", "cop", "opcop")),
                d2.presentation, *moved, *all_mutations(h2),
                *random.Random(13).sample(list(all_mutations(h8p)), 20),
                *rng.sample(list(all_mutations(moved[0])), 20)]
    assert len(subjects) == 4 * 4 + 1 + 2 + 36 + 20 + 20
    for pres in subjects:
        report = verify_axioms(pres)
        rows = {row.name: row.passed for row in report.rows}
        reference = _with_prerequisites({**rows, **_full_enumeration(pres)})
        assert ([name for name, ok in rows.items() if not ok]
                == [name for name, ok in reference.items() if not ok]), pres.name


def _q3_kernel_chain(pres: QhaPresentation) -> TensorElement:
    """The reference for q3: (1 x phi)(id x Delta x id)(phi)(phi x 1) less
    (id x id x Delta)(phi)(Delta x id x id)(phi), one kernel call per step."""
    mul, delta, phi, unit = pres.multiply, pres.coproduct, pres.phi, pres.unit
    lhs = mul(mul(tensor_product(unit, phi), apply_on_leg(delta, phi, 1)),
              tensor_product(phi, unit))
    return lhs - mul(apply_on_leg(delta, phi, 2), apply_on_leg(delta, phi, 0))


def test_q3_residual_matches_kernel_chain(h8p, d2):
    """The q3 row's witness is the kernel chain's residual: zero on H8+ and
    D(H2), and the same nonzero tensor on seeded random reassociators."""
    import random
    rng = random.Random(5)
    for pres in (h8p, d2.presentation):
        assert _q3_kernel_chain(pres).is_zero()
        n = pres.dim
        for _ in range(3):
            keys = rng.sample([(a, b, c) for a in range(n) for b in range(n) for c in range(n)],
                              3 * n)
            phi = TensorElement(3, n, {key: Scalar.of(rng.randint(1, 4)) for key in keys})
            rows = {row.name: row for row in verify_axioms(dataclasses.replace(pres, phi=phi)).rows}
            expected = _q3_kernel_chain(dataclasses.replace(pres, phi=phi))
            assert not expected.is_zero()
            assert not rows["q3"].passed and rows["q3"].witness == expected


def test_generating_sets_of_the_catalog(h2, h8p, h8m, baseline, d8):
    def labels(pres):
        gens, rank = generating_set(pres)
        assert rank == pres.dim
        return [pres.basis[i] for i in gens]

    assert labels(h2) == labels(baseline) == ["g"]
    assert labels(h8p) == labels(h8m) == ["g", "x"]
    assert labels(d8.presentation) == ["P_1><1", "P_1><x", "P_g><x", "P_x><1", "P_gx><1"]


def _closure_rank(pres: QhaPresentation, gens: list[int]) -> int:
    """The reference: the rank of span{1} closed under left multiplication
    by each e_g, g in ``gens``, one product at a time."""
    n = pres.dim
    kept, frontier = [pres.unit], [pres.unit]
    while frontier:
        grown = []
        for v in frontier:
            for g in gens:
                w = pres.multiply(pres.basis_element(g), v)
                if row_rank([*kept, w], n) > len(kept):
                    kept.append(w)
                    grown.append(w)
        frontier = grown
    return len(kept)


def test_generating_set_is_cheapest_and_irredundant_under_relabelling(h8p, h8m):
    """Under basis permutations of H8+ and H8-, G is two generators whose
    coproducts have 7 terms together, as on the catalog copies ({g, x}), and
    dropping either one takes the closure below the whole algebra."""
    import random
    rng = random.Random(17)
    for pres in (h8p, h8m):
        for _ in range(6):
            moved = relabelled(pres, rng.sample(range(8), 8))
            gens, rank = generating_set(moved)
            assert rank == _closure_rank(moved, gens) == 8, moved.basis
            assert len(gens) == 2, moved.basis
            assert sum(len(moved.coproduct.columns[g].entries) for g in gens) == 7
            for g in gens:
                assert _closure_rank(moved, [h for h in gens if h != g]) < 8, moved.basis


def test_drop_pass_grows_each_closure_from_the_one_recorded_at_joining(h8p, h8m, d8,
                                                                      monkeypatch):
    """Only the closure of span{1} starts from an empty echelon: each closure
    of the drop pass starts from the closure recorded when the generator it
    tests joined G, so none inserts the unit again.  The first pass on
    relabelled H8+ and on D(H8+) takes more generators than G keeps, so the
    drop pass runs there."""
    import random
    rng = random.Random(3)
    subjects = [d8.presentation, *(relabelled(pres, rng.sample(range(8), 8))
                                   for pres in (h8p, h8m) for _ in range(3))]
    original, fresh = multilinear._Echelon.insert, []

    def insert(self, row):
        fresh.append(self.rank == 0)
        return original(self, row)

    monkeypatch.setattr(multilinear._Echelon, "insert", insert)
    for pres in subjects:
        fresh.clear()
        generating_set(pres)
        assert sum(fresh) == 1, pres.basis


def test_broken_unit_fails_every_generator_row(h2):
    """With unit 1 + g the closure of span{unit} stops at rank 1 of 2; the
    search still ends, and every row checked on generators fails, naming a
    failed prerequisite where its own instances pass."""
    broken = mutate_presentation(h2, "unit", 1)
    assert generating_set(broken)[1] == 1
    rows = {row.name: row for row in verify_axioms(broken).rows}
    assert not rows["mult:unit"].passed
    for name in PREREQUISITES:
        assert not rows[name].passed, name
    assert rows["q1"].witness == "prerequisite mult:unit failed"


# -- variants -------------------------------------------------------------------


def test_variants_pass_axioms(h2, h8p, baseline):
    for pres in (h2, h8p, baseline):
        for which in ("op", "cop", "opcop"):
            assert verify_axioms(variant(pres, which)).passed()


def test_variant_round_trips(h2, h8p):
    for pres in (h2, h8p):
        for which in ("op", "cop", "opcop"):
            assert variant(variant(pres, which), which) == pres


def test_cop_of_h2_values(h2):
    cop = variant(h2, "cop")
    flipped = TensorElement(3, 2, {(c, b, a): v
                                   for (a, b, c), v in h2.phi_inv.entries.items()})
    assert cop.phi == flipped
    assert cop.alpha == h2.basis_element(1)  # Si(alpha) = g
    assert cop.beta == h2.unit


def test_op_of_baseline_is_itself(baseline):
    assert variant(baseline, "op") == baseline


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_variant_contexts_take_what_they_share_with_h(name, d2, monkeypatch):
    """The context of H^op, H^cop and H^opcop is kept on its presentation,
    and reads its S^-1 and integral data from H's context, with no linear
    solve or inversion; a round trip back to H inverts nothing either.  The
    values are those a fresh context of the variant presentation computes."""
    pres = d2.presentation if name == "D(H2)" else catalog_build(name)
    ctx = get_context(pres)
    ctx.s_inv, ctx.integral_data
    calls = []

    def counting(module, fname):
        original = getattr(module, fname)
        monkeypatch.setattr(module, fname, lambda *args: calls.append(fname) or original(*args))

    counting(intcoint, "solve_constraints")
    for module in (qha, intcoint):
        counting(module, "invert_operator")
    shared = {}
    for which in ("op", "cop", "opcop"):
        v = ctx.variant_ctx(which)
        assert get_context(v.pres) is v
        shared[which] = v.s_inv, v.integral_data
        assert variant(v.pres, which) == pres
    assert calls == []
    monkeypatch.undo()
    for which, (s_inv, integral_data) in shared.items():
        fresh = AlgebraContext(variant(pres, which))
        assert s_inv == fresh.s_inv, which
        assert integral_data == fresh.integral_data, which


def test_variant_unknown(h2):
    with pytest.raises(ValueError):
        variant(h2, "flip")


# -- antipode inverse --------------------------------------------------------------


def test_antipode_inverse_h2_identity(h2):
    from quasihopf.multilinear import LinearOperator
    assert antipode_inverse(h2) == LinearOperator.identity(2)


def test_antipode_inverse_h8_values(h8p, h8m):
    """Known inverse values: Si(x) = -(p+ -+ i p-) x and Si(x^2) = -+ i x^2."""
    for pres, sign in ((h8p, 1), (h8m, -1)):
        si = antipode_inverse(pres)
        n = pres.dim
        i_s = Scalar.gaussian(0, sign)
        pplus = TensorElement(1, n, {(0,): HALF, (1,): HALF})
        pminus = TensorElement(1, n, {(0,): HALF, (1,): -HALF})
        x = pres.basis_element(2)
        mix = pplus + pminus.scale(-i_s)
        assert si.apply(x) == pres.multiply(mix, x).scale(Scalar.of(-1))
        x2 = pres.basis_element(4)
        assert si.apply(x2) == x2.scale(-i_s)


def test_singular_antipode(h2):
    from quasihopf.multilinear import LinearOperator
    broken = QhaPresentation(
        name="H2-singular", dim=2, basis=h2.basis, field_tag=h2.field_tag,
        mult=h2.mult, unit=h2.unit, counit=h2.counit, coproduct=h2.coproduct,
        phi=h2.phi, phi_inv=h2.phi_inv,
        antipode=LinearOperator(2, [h2.unit, h2.unit]),
        alpha=h2.alpha, beta=h2.beta)
    with pytest.raises(SingularAntipode):
        antipode_inverse(broken)


# -- iterated coproducts --------------------------------------------------------------


def test_iterated_coproduct_grouplike(h2):
    g = h2.basis_element(1)
    plan = ((".", "."), ".")
    assert iterated_coproduct(h2, g, plan) == TensorElement(2 + 1, 2, {(1, 1, 1): ONE})


def test_iterated_coproduct_plans_differ_by_phi(h8p):
    """(Delta x id)Delta and (id x Delta)Delta are conjugate under the
    reassociator, for every basis element."""
    from quasihopf.multilinear import mult_pointwise
    for i in range(h8p.dim):
        h = h8p.basis_element(i)
        left_plan = iterated_coproduct(h8p, h, ((".", "."), "."))
        right_plan = iterated_coproduct(h8p, h, (".", (".", ".")))
        conjugated = mult_pointwise(
            h8p.mult, mult_pointwise(h8p.mult, h8p.phi, left_plan), h8p.phi_inv)
        assert right_plan == conjugated


def test_iterated_coproduct_x_expansion(h8p):
    """plan (., (., .)) on x agrees with substituting the stored
    coproduct of x into itself (oracle built with public tensor ops)."""
    x = h8p.basis_element(2)
    expected = apply_on_leg(h8p.coproduct, h8p.coproduct.apply(x), 1)
    assert iterated_coproduct(h8p, x, (".", (".", "."))) == expected


def test_iterated_coproduct_bad_plans(h2):
    with pytest.raises(BadPlan):
        iterated_coproduct(h2, h2.unit, ("x", "."))
    with pytest.raises(BadPlan):
        iterated_coproduct(h2, h2.unit, (".", ".", "."))
    with pytest.raises(BadPlan):
        iterated_coproduct(h2, tensor_product(h2.unit, h2.unit), ".")


# -- dual actions ----------------------------------------------------------------------


def test_dual_action_posts(h8p):
    """(h -> f)(h') = f(h' h), (f <- h)(h') = f(h h'), f -> h = f(h_2) h_1,
    h <- f = f(h_1) h_2, checked against direct evaluation."""
    n = h8p.dim
    h = h8p.basis_element(3)
    f = Functional([Scalar.of(k % 3 - 1) for k in range(n)])
    lhit = dual_action(h8p, "lhit", h, f)
    rhit = dual_action(h8p, "rhit", f, h)
    for j in range(n):
        hp = h8p.basis_element(j)
        assert lhit(hp) == f(h8p.multiply(hp, h))
        assert rhit(hp) == f(h8p.multiply(h, hp))
    d = h8p.coproduct.apply(h)
    assert dual_action(h8p, "lhit_on_dual", f, h) == contract(f, d, 1)
    assert dual_action(h8p, "rhit_on_dual", h, f) == contract(f, d, 0)


def test_g_hits_dual_basis(h2):
    p_g = Functional.dual_basis(2, 1)
    hit = hit_functional_left(h2, h2.basis_element(1), p_g)
    # oracle: (g -> P_g)(h) = P_g(h g); on basis 1 -> P_g(g) = 1, g -> P_g(1) = 0
    assert hit == Functional.dual_basis(2, 0)


def test_unit_hit_is_identity(h8p):
    f = Functional([Scalar.of(k) for k in range(8)])
    assert hit_functional_left(h8p, h8p.unit, f) == f
    assert hit_functional_right(h8p, f, h8p.unit) == f


def test_mu_hits_integral(ctx_h8p):
    """Contract the modular functional against the coproduct of the left
    integral; cross-checked against a direct contraction."""
    h8p = ctx_h8p.pres
    left = hit_element_left(h8p, ctx_h8p.mu, ctx_h8p.t)
    assert left == contract(ctx_h8p.mu, h8p.coproduct.apply(ctx_h8p.t), 1)
    right = hit_element_right(h8p, ctx_h8p.t, ctx_h8p.mu)
    assert right == contract(ctx_h8p.mu, h8p.coproduct.apply(ctx_h8p.t), 0)


def test_dual_action_unknown_kind(h2):
    with pytest.raises(ValueError):
        dual_action(h2, "sideways", None)
