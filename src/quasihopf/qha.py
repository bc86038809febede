"""Quasi-Hopf algebra presentations: structure-constant data, axiom
verification, opposite/coopposite variants, iterated coproducts and the
four standard actions between H and its dual.

A presentation stores the multiplication table, unit, coproduct, counit,
reassociator (with inverse), antipode and the two distinguished elements.
``load_and_validate`` is the only sanctioned constructor for trusted data:
it normalizes the distinguished elements and machine-checks every axiom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .exactnum import ONE, Scalar, ZERO
from .expr import VAR, AlgebraOps, Expression, Leg, S, r
from .multilinear import (Functional, LinearOperator, MultTable,
                          SingularOperator, TensorElement, _lift_table, _lower,
                          _merge, apply_on_leg, contract, invert_operator,
                          mult_pointwise, multiplication_operator, permute_legs,
                          tensor_product)
from .report import VerificationReport

# Presentations up to this dimension get exhaustive axiom checks by default;
# larger ones are checked on a deterministic sample unless forced.
EXHAUSTIVE_DIM = 16
_SAMPLE_ELEMENTS = 12
_SAMPLE_PAIRS = 24
_SAMPLE_TRIPLES = 48


class AxiomViolation(ValueError):
    def __init__(self, check: str, witness: object = None):
        super().__init__(f"axiom check failed: {check}")
        self.check = check
        self.witness = witness


class NonInvertiblePhi(ValueError):
    pass


class BadCounitNormalization(ValueError):
    pass


class SingularAntipode(ArithmeticError):
    pass


class BadPlan(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class QhaPresentation:
    name: str
    dim: int
    basis: tuple[str, ...]
    field_tag: str
    mult: MultTable
    unit: TensorElement
    counit: Functional
    coproduct: LinearOperator
    phi: TensorElement
    phi_inv: TensorElement
    antipode: LinearOperator
    alpha: TensorElement
    beta: TensorElement

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QhaPresentation):
            return NotImplemented
        return (self.dim == other.dim and self.basis == other.basis
                and self.field_tag == other.field_tag
                and self.mult == other.mult and self.unit == other.unit
                and self.counit == other.counit
                and self.coproduct == other.coproduct
                and self.phi == other.phi and self.phi_inv == other.phi_inv
                and self.antipode == other.antipode
                and self.alpha == other.alpha and self.beta == other.beta)

    # -- small conveniences --------------------------------------------------

    def multiply(self, a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(self.mult, a, b)

    def basis_element(self, i: int) -> TensorElement:
        return TensorElement.basis(self.dim, i)

    def describe(self, t: TensorElement) -> str:
        """Render a rank-1 element in terms of basis labels."""
        if t.is_zero():
            return "0"
        parts = []
        for (i,), c in t.sorted_items():
            parts.append(f"({c})*{self.basis[i]}")
        return " + ".join(parts)


def make_mult(dim: int, entries: Sequence[tuple[int, int, int, Scalar]]) -> MultTable:
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, j, k, s in entries:
        if s.is_zero():
            continue
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, ZERO) + s
    return MultTable({key: tuple(sorted((k, v) for k, v in row.items() if not v.is_zero()))
                      for key, row in table.items()
                      if any(not v.is_zero() for v in row.values())})


# -- sampling ----------------------------------------------------------------


def exhaustive_scope(pres: QhaPresentation, exhaustive: bool | None) -> bool:
    """Whether the axiom checks enumerate everything (True) or sample."""
    return exhaustive if exhaustive is not None else pres.dim <= EXHAUSTIVE_DIM


def _domains(pres: QhaPresentation, exhaustive: bool | None
             ) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int, int]], bool]:
    n = pres.dim
    if exhaustive_scope(pres, exhaustive):
        singles = list(range(n))
        pairs = [(i, j) for i in range(n) for j in range(n)]
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        return singles, pairs, triples, True
    rng = random.Random(f"axioms:{pres.name}:{n}")
    singles = list(range(n))
    if len(singles) > _SAMPLE_ELEMENTS:
        singles = sorted(rng.sample(singles, _SAMPLE_ELEMENTS))
    pairs = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(_SAMPLE_PAIRS)})
    triples = sorted({(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                      for _ in range(_SAMPLE_TRIPLES)})
    return singles, pairs, triples, False


# -- axiom verification --------------------------------------------------------


def verify_axioms(pres: QhaPresentation, exhaustive: bool | None = None) -> VerificationReport:
    """One report row per axiom; a valid presentation passes every row."""
    n = pres.dim
    singles, pairs, triples, full = _domains(pres, exhaustive)
    scope = "" if full else " (sampled)"
    report = VerificationReport(pres.name)
    mult = pres.mult
    delta_op = pres.coproduct
    antipode = pres.antipode
    eps = pres.counit
    unit = pres.unit
    phi, phi_inv, alpha, beta = pres.phi, pres.phi_inv, pres.alpha, pres.beta
    basis = [pres.basis_element(i) for i in range(n)]
    ops = AlgebraOps(n, mult, unit, delta_op, operators={"S": antipode})

    def product(a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(mult, a, b)

    # unit and associativity
    report.check_all(f"mult:unit{scope}", singles, lambda i: [
        (product(unit, basis[i]), basis[i]), (product(basis[i], unit), basis[i])])
    left, right = _associated_products(pres, triples)
    zero = TensorElement.zero(1, n)
    report.check_all(f"mult:assoc{scope}", triples,
                     lambda ijk: [(left.get(ijk, zero), right.get(ijk, zero))])

    # counit / coproduct are unital algebra morphisms
    report.check_zero("counit:unit", eps(unit) - ONE)
    report.check_all(f"counit:morphism{scope}", pairs, lambda ij: [
        (eps(product(basis[ij[0]], basis[ij[1]])), eps(basis[ij[0]]) * eps(basis[ij[1]]))])

    unit2 = tensor_product(unit, unit)
    report.check_zero("coproduct:unit", delta_op.apply(unit) - unit2)
    report.check_all(f"coproduct:morphism{scope}", pairs, lambda ij: [
        (delta_op.apply(product(basis[ij[0]], basis[ij[1]])),
         product(delta_op.apply(basis[ij[0]]), delta_op.apply(basis[ij[1]])))])

    # q2: both counit contractions of the coproduct give the identity
    report.check_all(f"q2{scope}", singles, lambda i: [
        (contract(eps, delta_op.apply(basis[i]), leg), basis[i]) for leg in (1, 0)])

    # q1: quasi-coassociativity, (id x Delta)(Delta h) = phi (Delta x id)(Delta h) phi^-1
    def q1(i: int):
        d = delta_op.apply(basis[i])
        nested = apply_on_leg(delta_op, d, 0)
        return [(apply_on_leg(delta_op, d, 1), product(product(phi, nested), phi_inv))]
    report.check_all(f"q1{scope}", singles, q1)

    # q3: the reassociator is a 3-cocycle
    one_phi = tensor_product(unit, phi)
    phi_one = tensor_product(phi, unit)
    mid = apply_on_leg(delta_op, phi, 1)
    lhs = product(product(one_phi, mid), phi_one)
    rhs = product(apply_on_leg(delta_op, phi, 2), apply_on_leg(delta_op, phi, 0))
    report.check_zero("q3", lhs - rhs)

    # q4 / q7: counit legs of the reassociator
    report.check_zero("q4", contract(eps, phi, 1) - unit2)
    report.check_all("q7", (0, 2), lambda leg: [(contract(eps, phi, leg), unit2)])

    # q5: the antipode equations S(h1) alpha h2 = eps(h) alpha and
    # h1 beta S(h2) = eps(h) beta
    q5_alpha = Expression({"h": VAR, "a": alpha}, [Leg(S(r("h", 1, 1)), r("a"), r("h", 1, 2))])
    q5_beta = Expression({"h": VAR, "b": beta}, [Leg(r("h", 1, 1), r("b"), S(r("h", 1, 2)))])
    report.check_all(f"q5{scope}", singles, lambda i: [
        (q5_alpha.evaluate(ops, {"h": basis[i]}), alpha.scale(eps(basis[i]))),
        (q5_beta.evaluate(ops, {"h": basis[i]}), beta.scale(eps(basis[i])))])

    # q6: the two zig-zag normalizations X1 beta S(X2) alpha X3 = 1 and
    # S(x1) alpha x2 beta S(x3) = 1
    q6_left = Expression({"X": phi, "b": beta, "a": alpha},
                         [Leg(r("X", 1), r("b"), S(r("X", 2)), r("a"), r("X", 3))])
    report.check_zero("q6:left", q6_left.evaluate(ops) - unit)
    q6_right = Expression({"x": phi_inv, "a": alpha, "b": beta},
                          [Leg(S(r("x", 1)), r("a"), r("x", 2), r("b"), S(r("x", 3)))])
    report.check_zero("q6:right", q6_right.evaluate(ops) - unit)

    # reassociator invertibility, each product on its own
    unit3 = tensor_product(unit2, unit)
    report.check_all("phi:invertible", [(phi, phi_inv), (phi_inv, phi)],
                     lambda ab: [(product(*ab), unit3)])

    # antipode: unital anti-morphism
    report.check_zero("antipode:unit", antipode.apply(unit) - unit)
    report.check_all(f"antipode:anti-morphism{scope}", pairs, lambda ij: [
        (antipode.apply(product(basis[ij[0]], basis[ij[1]])),
         product(antipode.apply(basis[ij[1]]), antipode.apply(basis[ij[0]])))])
    report.check_all(f"counit-of-antipode{scope}", singles,
                     lambda i: [(eps(antipode.apply(basis[i])), eps(basis[i]))])

    report.check_zero("alpha-beta:normalized", eps(alpha) * eps(beta) - ONE)
    return report


def _associated_products(pres: QhaPresentation, triples: list[tuple[int, int, int]]
                         ) -> tuple[dict, dict]:
    """(e_i e_j) e_k and e_i (e_j e_k) as rank-1 tensors keyed by (i, j, k):
    one ``_merge`` chain over a tensor whose legs i, j, k index the triples."""
    table = _lift_table(pres.mult)
    domain = ({ijk + ijk: 1 for ijk in triples}, 1, False)      # legs i j k a b c
    left = _merge(_merge(domain, table, 3, 4), table, 4, 3)     # i j k (ab)c
    right = _merge(_merge(domain, table, 4, 5), table, 3, 4)    # i j k a(bc)
    return _by_instance(left, pres.dim), _by_instance(right, pres.dim)


def _by_instance(t, dim: int) -> dict[tuple[int, ...], TensorElement]:
    """Split a tensor on its last leg into one rank-1 tensor per key of the
    other legs."""
    groups: dict[tuple[int, ...], dict] = {}
    for key, value in _lower(t).items():
        groups.setdefault(key[:-1], {})[key[-1:]] = value
    return {key: TensorElement(1, dim, entries, _trust=True) for key, entries in groups.items()}


# -- loading ------------------------------------------------------------------


def load_and_validate(raw: QhaPresentation, exhaustive: bool | None = None) -> QhaPresentation:
    """Normalize and verify a presentation; raises on the first bad axiom."""
    n = raw.dim
    unit3 = tensor_product(tensor_product(raw.unit, raw.unit), raw.unit)
    if (mult_pointwise(raw.mult, raw.phi, raw.phi_inv) != unit3
            or mult_pointwise(raw.mult, raw.phi_inv, raw.phi) != unit3):
        raise NonInvertiblePhi(f"{raw.name}: phi * phi_inv != 1 x 1 x 1")
    ea, eb = raw.counit(raw.alpha), raw.counit(raw.beta)
    if ea * eb != ONE:
        raise BadCounitNormalization(
            f"{raw.name}: eps(alpha)*eps(beta) = {ea * eb}, expected 1")
    pres = raw
    if ea != ONE:
        pres = QhaPresentation(
            name=raw.name, dim=n, basis=raw.basis, field_tag=raw.field_tag,
            mult=raw.mult, unit=raw.unit, counit=raw.counit,
            coproduct=raw.coproduct, phi=raw.phi, phi_inv=raw.phi_inv,
            antipode=raw.antipode,
            alpha=raw.alpha.scale(ea.inverse()), beta=raw.beta.scale(ea))
    report = verify_axioms(pres, exhaustive)
    for row in report.rows:
        if not row.passed:
            raise AxiomViolation(row.name, row.witness)
    # later axiom suites on the loaded presentation reuse this report
    from .context import get_context
    get_context(pres).axiom_report(exhaustive, report)
    return pres


# -- antipode inverse ----------------------------------------------------------


def antipode_inverse(pres: QhaPresentation) -> LinearOperator:
    try:
        return invert_operator(pres.antipode)
    except SingularOperator as exc:
        raise SingularAntipode(f"{pres.name}: antipode matrix is singular") from exc


# -- opposite / coopposite variants ---------------------------------------------


def variant(pres: QhaPresentation, which: str) -> QhaPresentation:
    """The op / cop / opcop presentation; requires an invertible antipode."""
    if which not in ("op", "cop", "opcop"):
        raise ValueError(f"unknown variant {which!r}")
    n = pres.dim
    s_inv = antipode_inverse(pres)
    if which == "op":
        mult = MultTable({(j, i): row for (i, j), row in pres.mult.items()})
        coproduct = pres.coproduct
        phi, phi_inv = pres.phi_inv, pres.phi
        antipode = s_inv
        alpha = s_inv.apply(pres.beta)
        beta = s_inv.apply(pres.alpha)
    elif which == "cop":
        mult = pres.mult
        coproduct = LinearOperator(
            n, [permute_legs(col, (1, 0)) for col in pres.coproduct.columns],
            dst_rank=2)
        phi = permute_legs(pres.phi_inv, (2, 1, 0))
        phi_inv = permute_legs(pres.phi, (2, 1, 0))
        antipode = s_inv
        alpha = s_inv.apply(pres.alpha)
        beta = s_inv.apply(pres.beta)
    else:
        mult = MultTable({(j, i): row for (i, j), row in pres.mult.items()})
        coproduct = LinearOperator(
            n, [permute_legs(col, (1, 0)) for col in pres.coproduct.columns],
            dst_rank=2)
        phi = permute_legs(pres.phi, (2, 1, 0))
        phi_inv = permute_legs(pres.phi_inv, (2, 1, 0))
        antipode = pres.antipode
        alpha = pres.beta
        beta = pres.alpha
    suffix = {"op": "^op", "cop": "^cop", "opcop": "^opcop"}[which]
    base = pres.name
    if base.endswith(suffix):
        new_name = base[: -len(suffix)]
    else:
        new_name = base + suffix
    return QhaPresentation(
        name=new_name, dim=n, basis=pres.basis, field_tag=pres.field_tag,
        mult=mult, unit=pres.unit, counit=pres.counit, coproduct=coproduct,
        phi=phi, phi_inv=phi_inv, antipode=antipode, alpha=alpha, beta=beta)


# -- iterated coproducts ---------------------------------------------------------

PLAN_LEAF = "."


def _plan_width(plan) -> int:
    if plan == PLAN_LEAF:
        return 1
    if isinstance(plan, tuple) and len(plan) == 2:
        return _plan_width(plan[0]) + _plan_width(plan[1])
    raise BadPlan(f"bad nesting plan node {plan!r}")


def iterated_coproduct(pres: QhaPresentation, t: TensorElement, plan) -> TensorElement:
    """Apply the coproduct along a binary bracketing plan.

    ``plan`` is "." for a leaf or a pair ``(left, right)``; e.g.
    ``((".", "."), ".")`` realizes h_{(1,1)} x h_{(1,2)} x h_2.
    """
    if t.rank != 1:
        raise BadPlan("iterated coproducts start from a rank-1 element")
    width = _plan_width(plan)  # raises BadPlan on malformed input
    if width < 1:
        raise BadPlan("empty plan")

    def expand(tensor: TensorElement, pos: int, node) -> TensorElement:
        if node == PLAN_LEAF:
            return tensor
        tensor = apply_on_leg(pres.coproduct, tensor, pos)
        tensor = expand(tensor, pos, node[0])
        tensor = expand(tensor, pos + _plan_width(node[0]), node[1])
        return tensor

    return expand(t, 0, plan)


# -- actions between H and H* --------------------------------------------------


def _compose_functional(f: Functional, operator: LinearOperator) -> Functional:
    """f o operator."""
    return Functional([f(col) for col in operator.columns])


def hit_functional_left(pres: QhaPresentation, h: TensorElement, f: Functional) -> Functional:
    """h -> f: the functional x |-> f(x * h), that is f o R_h."""
    return _compose_functional(f, multiplication_operator(pres.mult, h, "right"))


def hit_functional_right(pres: QhaPresentation, f: Functional, h: TensorElement) -> Functional:
    """f <- h: the functional x |-> f(h * x), that is f o L_h."""
    return _compose_functional(f, multiplication_operator(pres.mult, h, "left"))


def hit_element_left(pres: QhaPresentation, f: Functional, h: TensorElement) -> TensorElement:
    """f -> h := f(h_2) h_1."""
    return contract(f, pres.coproduct.apply(h), 1)


def hit_element_right(pres: QhaPresentation, h: TensorElement, f: Functional) -> TensorElement:
    """h <- f := f(h_1) h_2."""
    return contract(f, pres.coproduct.apply(h), 0)


def dual_action(pres: QhaPresentation, kind: str, *args):
    """Dispatch the four hit actions by name.

    * ``lhit``          (h, f)  -> functional x |-> f(x h)
    * ``rhit``          (f, h)  -> functional x |-> f(h x)
    * ``lhit_on_dual``  (f, h)  -> element f(h_2) h_1
    * ``rhit_on_dual``  (h, f)  -> element f(h_1) h_2
    """
    if kind == "lhit":
        return hit_functional_left(pres, *args)
    if kind == "rhit":
        return hit_functional_right(pres, *args)
    if kind == "lhit_on_dual":
        return hit_element_left(pres, *args)
    if kind == "rhit_on_dual":
        return hit_element_right(pres, *args)
    raise ValueError(f"unknown action kind {kind!r}")
