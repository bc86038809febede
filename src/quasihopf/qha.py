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
from .multilinear import (Functional, LinearOperator, MultTable,
                          SingularOperator, TensorElement, apply_on_leg,
                          contract, invert_operator, mult_pointwise,
                          permute_legs, tensor_product)
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
    S = pres.antipode
    eps = pres.counit
    unit = pres.unit
    basis = [pres.basis_element(i) for i in range(n)]

    def product(a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(mult, a, b)

    # unit and associativity
    witness = None
    for i in singles:
        left = product(unit, basis[i])
        right = product(basis[i], unit)
        if left != basis[i] or right != basis[i]:
            witness = (left - basis[i]) + (right - basis[i])
            break
    report.add(f"mult:unit{scope}", witness is None, witness)

    witness = None
    for i, j, k in triples:
        ab = mult.get((i, j), ())
        bc = mult.get((j, k), ())
        left: dict[int, Scalar] = {}
        for m, s in ab:
            for t_, s2 in mult.get((m, k), ()):
                left[t_] = left.get(t_, ZERO) + s * s2
        right: dict[int, Scalar] = {}
        for m, s in bc:
            for t_, s2 in mult.get((i, m), ()):
                right[t_] = right.get(t_, ZERO) + s * s2
        diff = {t_: left.get(t_, ZERO) - right.get(t_, ZERO)
                for t_ in set(left) | set(right)}
        if any(not v.is_zero() for v in diff.values()):
            witness = TensorElement(1, n, {(t_,): v for t_, v in diff.items()})
            break
    report.add(f"mult:assoc{scope}", witness is None, witness)

    # counit / coproduct are unital algebra morphisms
    report.check_zero("counit:unit", eps(unit) - ONE)
    witness = None
    for i, j in pairs:
        lhs = eps(product(basis[i], basis[j]))
        rhs = eps(basis[i]) * eps(basis[j])
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"counit:morphism{scope}", witness is None, witness)

    unit2 = tensor_product(unit, unit)
    report.check_zero("coproduct:unit", delta_op.apply(unit) - unit2)
    witness = None
    for i, j in pairs:
        lhs = delta_op.apply(product(basis[i], basis[j]))
        rhs = mult_pointwise(mult, delta_op.apply(basis[i]), delta_op.apply(basis[j]))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"coproduct:morphism{scope}", witness is None, witness)

    # q2: both counit contractions of the coproduct give the identity
    witness = None
    for i in singles:
        d = delta_op.apply(basis[i])
        if contract(eps, d, 1) != basis[i] or contract(eps, d, 0) != basis[i]:
            witness = contract(eps, d, 1) - basis[i]
            break
    report.add(f"q2{scope}", witness is None, witness)

    # q1: quasi-coassociativity
    witness = None
    for i in singles:
        d = delta_op.apply(basis[i])
        left = apply_on_leg(delta_op, d, 1)            # (id x Delta)(Delta h)
        nested = apply_on_leg(delta_op, d, 0)          # (Delta x id)(Delta h)
        right = mult_pointwise(mult, mult_pointwise(mult, pres.phi, nested), pres.phi_inv)
        if left != right:
            witness = left - right
            break
    report.add(f"q1{scope}", witness is None, witness)

    # q3: the reassociator is a 3-cocycle
    one_phi = tensor_product(unit, pres.phi)
    phi_one = tensor_product(pres.phi, unit)
    mid = apply_on_leg(delta_op, pres.phi, 1)
    lhs = mult_pointwise(mult, mult_pointwise(mult, one_phi, mid), phi_one)
    right_a = apply_on_leg(delta_op, pres.phi, 2)
    right_b = apply_on_leg(delta_op, pres.phi, 0)
    rhs = mult_pointwise(mult, right_a, right_b)
    report.check_zero("q3", lhs - rhs)

    # q4 / q7: counit legs of the reassociator
    report.check_zero("q4", contract(eps, pres.phi, 1) - unit2)
    q7a = contract(eps, pres.phi, 0) - unit2
    q7b = contract(eps, pres.phi, 2) - unit2
    report.check_zero("q7", q7a + q7b if q7a.is_zero() or q7b.is_zero() else q7a)

    # q5: the antipode equations
    witness = None
    for i in singles:
        d = delta_op.apply(basis[i])
        sd = apply_on_leg(S, d, 0)
        acc = TensorElement.zero(1, n)
        for (a, b), v in sd.entries.items():
            acc = acc + product(product(TensorElement(1, n, {(a,): v}, _trust=True),
                                        pres.alpha), basis[b])
        lhs1 = acc
        rhs1 = pres.alpha.scale(eps(basis[i]))
        d2 = apply_on_leg(S, d, 1)
        acc2 = TensorElement.zero(1, n)
        for (a, b), v in d2.entries.items():
            acc2 = acc2 + product(product(TensorElement(1, n, {(a,): v}, _trust=True),
                                          pres.beta), basis[b])
        lhs2 = acc2
        rhs2 = pres.beta.scale(eps(basis[i]))
        if lhs1 != rhs1 or lhs2 != rhs2:
            witness = (lhs1 - rhs1) + (lhs2 - rhs2)
            break
    report.add(f"q5{scope}", witness is None, witness)

    # q6: the two zig-zag normalizations
    lhs = _zigzag_q6_left(pres)
    report.check_zero("q6:left", lhs - unit)
    rhs = _zigzag_q6_right(pres)
    report.check_zero("q6:right", rhs - unit)

    # reassociator invertibility
    unit3 = tensor_product(unit2, unit)
    report.check_zero("phi:invertible",
                      (mult_pointwise(mult, pres.phi, pres.phi_inv) - unit3)
                      + (mult_pointwise(mult, pres.phi_inv, pres.phi) - unit3))

    # antipode: unital anti-morphism
    report.check_zero("antipode:unit", S.apply(unit) - unit)
    witness = None
    for i, j in pairs:
        lhs = S.apply(product(basis[i], basis[j]))
        rhs = product(S.apply(basis[j]), S.apply(basis[i]))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"antipode:anti-morphism{scope}", witness is None, witness)

    witness = None
    for i in singles:
        lhs = eps(S.apply(basis[i]))
        rhs = eps(basis[i])
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"counit-of-antipode{scope}", witness is None, witness)

    report.check_zero("alpha-beta:normalized", eps(pres.alpha) * eps(pres.beta) - ONE)
    return report


def _zigzag_q6_left(pres: QhaPresentation) -> TensorElement:
    """X1 * beta * S(X2) * alpha * X3 over the reassociator."""
    n = pres.dim
    acc = TensorElement.zero(1, n)
    S = pres.antipode
    for (a, b, c), v in pres.phi.entries.items():
        term = pres.multiply(pres.basis_element(a), pres.beta)
        term = pres.multiply(term, S.apply(pres.basis_element(b)))
        term = pres.multiply(term, pres.alpha)
        term = pres.multiply(term, pres.basis_element(c))
        acc = acc + term.scale(v)
    return acc


def _zigzag_q6_right(pres: QhaPresentation) -> TensorElement:
    """S(x1) * alpha * x2 * beta * S(x3) over the inverse reassociator."""
    n = pres.dim
    acc = TensorElement.zero(1, n)
    S = pres.antipode
    for (a, b, c), v in pres.phi_inv.entries.items():
        term = pres.multiply(S.apply(pres.basis_element(a)), pres.alpha)
        term = pres.multiply(term, pres.basis_element(b))
        term = pres.multiply(term, pres.beta)
        term = pres.multiply(term, S.apply(pres.basis_element(c)))
        acc = acc + term.scale(v)
    return acc


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


def hit_functional_left(pres: QhaPresentation, h: TensorElement, f: Functional) -> Functional:
    """h -> f: the functional x |-> f(x * h)."""
    coords = []
    for j in range(pres.dim):
        coords.append(f(pres.multiply(pres.basis_element(j), h)))
    return Functional(coords)


def hit_functional_right(pres: QhaPresentation, f: Functional, h: TensorElement) -> Functional:
    """f <- h: the functional x |-> f(h * x)."""
    coords = []
    for j in range(pres.dim):
        coords.append(f(pres.multiply(h, pres.basis_element(j))))
    return Functional(coords)


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
