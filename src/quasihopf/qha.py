"""Quasi-Hopf algebra presentations: structure-constant data, axiom
verification, opposite/coopposite variants, iterated coproducts and the
four standard actions between H and its dual.

A presentation stores the multiplication table, unit, coproduct, counit,
reassociator (with inverse), antipode and the two distinguished elements.
``load_and_validate`` is the only sanctioned constructor for trusted data:
it normalizes the distinguished elements and machine-checks every axiom.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .exactnum import ONE, Scalar, ZERO
from .expr import AlgebraOps, Expression
from .multilinear import (Functional, LinearOperator, MultTable,
                          SingularOperator, TensorElement, _Echelon, _basis_sum, _lift_table,
                          _lower_rows, _merge, apply_on_leg, columns_of, contract,
                          invert_operator, mult_pointwise, multiplication_operator,
                          permute_legs, tensor_product)
from .report import CheckRow, VerificationReport


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


# -- axiom verification --------------------------------------------------------
#
# Each for-all axiom says that a map is an algebra (anti-)morphism or
# agrees with conjugation by phi.  Given the rows in its PREREQUISITES, the
# elements on which it holds contain 1 and are closed under left
# multiplication by every g on which it was checked; checked on a generating
# set G, it therefore holds on all of H.

# The axioms that are tensor formulas, in the grammar of ``expr``; X, Y and Z
# are copies of phi, x is phi^-1 and G is sum_g e_g x e_g over the
# generating set, whose first leg indexes g.
_LETTERS = {"X": 3, "Y": 3, "Z": 3, "x": 3, "G": 2, "alpha": 1, "beta": 1}
FORMS: dict[str, tuple[Expression, ...]] = {
    name: tuple(Expression.parse(side, _LETTERS) for side in formula.split(" = "))
    for name, formula in {
        "q3": "X1 Y1 x Z1 X2_1 Y2 x Z2 X2_2 Y3 x Z3 X3 = X1 Y1_1 x X2 Y1_2 x X3_1 Y2 x X3_2 Y3",
        "q5-alpha": "G1 x S(G2_1) alpha G2_2",
        "q5-beta": "G1 x G2_1 beta S(G2_2)",
        "q6-left": "X1 beta S(X2) alpha X3",
        "q6-right": "S(x1) alpha x2 beta S(x3)",
    }.items()}

_ALGEBRA = ("mult:unit", "mult:assoc")
_MORPHISMS = ("counit:unit", "counit:morphism", "coproduct:unit", "coproduct:morphism",
              "antipode:unit", "antipode:anti-morphism")
PREREQUISITES = {
    "mult:assoc": ("mult:unit",),
    "counit:morphism": (*_ALGEBRA, "counit:unit"),
    "coproduct:morphism": (*_ALGEBRA, "coproduct:unit"),
    "antipode:anti-morphism": (*_ALGEBRA, "antipode:unit"),
    **dict.fromkeys(("q2", "q1", "q5", "counit-of-antipode"),
                    (*_ALGEBRA, *_MORPHISMS, "phi:invertible")),
}
# the rows of ``verify_axioms``, in report order
AXIOM_ROWS = ("mult:unit", "mult:assoc", "counit:unit", "counit:morphism", "coproduct:unit",
              "coproduct:morphism", "q2", "q1", "q3", "q4", "q7", "q5", "q6:left", "q6:right",
              "phi:invertible", "antipode:unit", "antipode:anti-morphism", "counit-of-antipode",
              "alpha-beta:normalized")


def generating_set(pres: QhaPresentation) -> tuple[list[int], int]:
    """Basis indices of an irredundant generating set G, in basis order, and
    the rank of its closure: span{1} closed under left multiplication by G.

    The cost of e_i is |Delta(e_i)|, the number of terms of its coproduct,
    which the rows on G x basis multiply against.  The candidates are tried
    in order of ascending cost, ties broken by index: e_i joins G when it
    lies outside the closure under G so far.  Once the closure is the whole
    algebra, each generator in turn, the most expensive first, is dropped
    when the others still close to rank n; no generator left can be
    dropped.  The closure ends as the whole algebra when ``mult:unit``
    holds, and with a smaller rank otherwise.
    """
    gens, rank, _ = _generators(pres)
    return gens, rank


def _generators(pres: QhaPresentation) -> tuple[list[int], int, dict[int, LinearOperator]]:
    """``generating_set``, and the operator L_g of each generator g."""
    n = pres.dim
    cost = [len(col.entries) for col in pres.coproduct.columns]
    closure, found, lefts = _Echelon(n), [], {}
    _close(closure, [pres.unit], [], found)
    joined = {}     # g -> the closure under the generators before g, and its size
    for i in sorted(range(n), key=lambda i: (cost[i], i)):
        if closure.rank == n:
            break
        if closure.reduce(TensorElement.basis(n, i)) is not None:
            joined[i] = closure.copy(), len(found)
            lefts[i] = multiplication_operator(pres.mult, pres.basis_element(i), "left")
            _close(closure, [lefts[i].apply(v) for v in found], lefts.values(), found)
    if closure.rank == n:
        # the most expensive first is the reverse order of joining; the last
        # to join lies outside the closure of the others, so it stays.  The
        # generators that joined before g are all still in G, so the closure
        # without g grows from the one recorded when g joined, through the
        # generators that joined after g
        for g in list(lefts)[-2::-1]:
            rest, size = joined[g]
            later = list(lefts)[list(lefts).index(g) + 1:]
            _close(rest, [lefts[h].apply(v) for v in found[:size] for h in later],
                   [op for h, op in lefts.items() if h != g], [])
            if rest.rank == n:
                del lefts[g]
    return sorted(lefts), closure.rank, lefts


def _close(closure: _Echelon, pending: list[TensorElement], lefts: Iterable[LinearOperator],
           found: list[TensorElement]) -> None:
    """Insert ``pending`` into ``closure``, and the image under each of
    ``lefts`` of every vector it takes (appended to ``found``), until no
    vector is new or the rank is full."""
    while pending and closure.rank < closure.width:
        v = pending.pop()
        if closure.insert(v):
            found.append(v)
            pending += [op.apply(v) for op in lefts]


def verify_axioms(pres: QhaPresentation, *, first_failure: bool = False,
                  phi_products: Sequence[TensorElement] | None = None) -> VerificationReport:
    """One report row per axiom, in the order of ``AXIOM_ROWS``; a valid
    presentation passes every row.  ``mult:unit`` runs over the whole basis
    and the other for-all rows with their first argument in the
    ``generating_set``.

    By default every row is computed.  With ``first_failure`` computing
    stops once the first failed row in report order is known, counting a
    row that fails with one of its ``PREREQUISITES``, and the report holds
    only the rows computed by then; an accepted presentation still gets the
    complete report.  The rows are computed in report order, except that
    ``phi:invertible``, ``antipode:unit`` and ``antipode:anti-morphism`` run
    just before ``q2``, the first row that needs them: so every row's
    prerequisites are known when it is reached, and its outcome is final.
    ``phi_products`` are phi phi^-1 and phi^-1 phi when the caller has
    computed them (``load_and_validate`` does); they are not computed
    again."""
    rows = _axiom_rows(pres, phi_products)
    if first_failure:
        rows = _until_first_failure(rows)
    report = VerificationReport(pres.name,
                                sorted(rows, key=lambda row: AXIOM_ROWS.index(row.name)))
    # a row checked on G fails with the first of its prerequisites that fails
    passed = {row.name: row.passed for row in report.rows}
    for row in report.rows:
        failed = _failed_prerequisite(row.name, passed)
        if row.passed and failed:
            row.passed, row.witness = False, f"prerequisite {failed} failed"
    return report


def _failed_prerequisite(name: str, passed: dict[str, bool]) -> str | None:
    return next((p for p in PREREQUISITES.get(name, ()) if not passed[p]), None)


def _until_first_failure(rows: Iterable[CheckRow]) -> Iterable[CheckRow]:
    """``rows`` until the first failed row in report order is known; every
    row before ``AXIOM_ROWS[first]`` passed with its prerequisites."""
    passed, first = {}, 0
    for row in rows:
        yield row
        passed[row.name] = row.passed
        while first < len(AXIOM_ROWS) and AXIOM_ROWS[first] in passed:
            name = AXIOM_ROWS[first]
            if not passed[name] or _failed_prerequisite(name, passed):
                return
            first += 1


def _axiom_rows(pres: QhaPresentation,
                phi_products: Sequence[TensorElement] | None) -> Iterable[CheckRow]:
    """The rows of ``verify_axioms`` before prerequisites apply, each
    computed only when the caller asks for it; the set-up of a row comes
    just before the first row that needs it."""
    n = pres.dim
    checks = VerificationReport(pres.name)
    mult, delta_op, antipode, eps, unit = (pres.mult, pres.coproduct, pres.antipode,
                                           pres.counit, pres.unit)
    phi, phi_inv, alpha, beta = pres.phi, pres.phi_inv, pres.alpha, pres.beta
    basis = [pres.basis_element(i) for i in range(n)]
    delta, s, eps_of = delta_op.columns, antipode.columns, eps.coords

    def product(a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(mult, a, b)

    # unit and associativity
    unit_left, unit_right = (multiplication_operator(mult, unit, side).columns
                             for side in ("left", "right"))
    yield checks.check_all("mult:unit", range(n), lambda i: [
        (unit_left[i], basis[i]), (unit_right[i], basis[i])])
    # column j of left[g] is e_g e_j
    gens, _, left = _generators(pres)
    pairs = [(g, j) for g in gens for j in range(n)]
    triples = [(g, j, k) for g, j in pairs for k in range(n)]
    outer, inner = _associated_products(pres, triples)
    zero = TensorElement.zero(1, n)
    yield checks.check_all("mult:assoc", triples,
                           lambda ijk: [(outer.get(ijk, zero), inner.get(ijk, zero))])

    # counit / coproduct are unital algebra morphisms
    yield checks.check_zero("counit:unit", eps(unit) - ONE)
    yield checks.check_all("counit:morphism", pairs, lambda gj: [
        (eps(left[gj[0]].columns[gj[1]]), eps_of[gj[0]] * eps_of[gj[1]])])

    unit2 = tensor_product(unit, unit)
    yield checks.check_zero("coproduct:unit", delta_op.apply(unit) - unit2)
    delta_left = {g: delta_op.compose(op).columns for g, op in left.items()}
    yield checks.check_all("coproduct:morphism", pairs, lambda gj: [
        (delta_left[gj[0]][gj[1]], product(delta[gj[0]], delta[gj[1]]))])

    # the prerequisites of q2 that come later in the report: reassociator
    # invertibility, each product on its own, ...
    unit3 = tensor_product(unit2, unit)
    yield checks.check_all("phi:invertible", phi_products or _phi_products(pres),
                           lambda both: [(both, unit3)])

    # ... and the antipode as a unital anti-morphism; column j of s_right[g]
    # is S(e_j) S(e_g)
    yield checks.check_zero("antipode:unit", antipode.apply(unit) - unit)
    antipode_left = {g: antipode.compose(op).columns for g, op in left.items()}
    s_right = {g: multiplication_operator(mult, s[g], "right").compose(antipode).columns
               for g in gens}
    yield checks.check_all("antipode:anti-morphism", pairs, lambda gj: [
        (antipode_left[gj[0]][gj[1]], s_right[gj[0]][gj[1]])])

    # q2: both counit contractions of the coproduct give the identity
    yield checks.check_all("q2", gens, lambda g: [
        (contract(eps, delta[g], leg), basis[g]) for leg in (1, 0)])

    # q1: quasi-coassociativity, (id x Delta)(Delta h) = phi (Delta x id)(Delta h) phi^-1
    def q1(g: int):
        nested = apply_on_leg(delta_op, delta[g], 0)
        return [(apply_on_leg(delta_op, delta[g], 1), product(product(phi, nested), phi_inv))]
    yield checks.check_all("q1", gens, q1)

    ops = AlgebraOps(n, mult, unit, delta_op, operators={"S": antipode})
    structure = {"X": phi, "Y": phi, "Z": phi, "x": phi_inv, "alpha": alpha, "beta": beta,
                 "G": TensorElement(2, n, {(g, g): ONE for g in gens})}

    def value(side: Expression) -> TensorElement:
        return side.bind(structure).evaluate(ops)

    # q3: the reassociator is a 3-cocycle,
    # (1 x phi)(id x Delta x id)(phi)(phi x 1) = (id x id x Delta)(phi)(Delta x id x id)(phi)
    q3_lhs, q3_rhs = map(value, FORMS["q3"])
    yield checks.check_zero("q3", q3_lhs - q3_rhs)

    # q4 / q7: counit legs of the reassociator
    yield checks.check_zero("q4", contract(eps, phi, 1) - unit2)
    yield checks.check_all("q7", (0, 2), lambda leg: [(contract(eps, phi, leg), unit2)])

    # q5: the antipode equations S(h1) alpha h2 = eps(h) alpha and
    # h1 beta S(h2) = eps(h) beta, on h = e_g for g in G; column g of each
    # side is its value at e_g
    q5_alpha, q5_beta = (columns_of(value(*FORMS[name])) for name in ("q5-alpha", "q5-beta"))
    yield checks.check_all("q5", gens, lambda g: [
        (q5_alpha[g], alpha.scale(eps_of[g])), (q5_beta[g], beta.scale(eps_of[g]))])

    # q6: the two zig-zag normalizations X1 beta S(X2) alpha X3 = 1 and
    # S(x1) alpha x2 beta S(x3) = 1
    yield checks.check_zero("q6:left", value(*FORMS["q6-left"]) - unit)
    yield checks.check_zero("q6:right", value(*FORMS["q6-right"]) - unit)

    yield checks.check_all("counit-of-antipode", gens, lambda g: [(eps(s[g]), eps_of[g])])
    yield checks.check_zero("alpha-beta:normalized", eps(alpha) * eps(beta) - ONE)


def _phi_products(pres: QhaPresentation) -> Iterator[TensorElement]:
    """phi phi^-1, then phi^-1 phi, each computed when it is asked for."""
    for a, b in ((pres.phi, pres.phi_inv), (pres.phi_inv, pres.phi)):
        yield mult_pointwise(pres.mult, a, b)


def _associated_products(pres: QhaPresentation, triples: list[tuple[int, int, int]]
                         ) -> tuple[dict, dict]:
    """(e_i e_j) e_k and e_i (e_j e_k) as rank-1 tensors keyed by (i, j, k):
    one ``_merge`` chain over a tensor whose legs i, j, k index the triples."""
    n = pres.dim
    table = _lift_table(pres.mult, n)
    domain = _basis_sum((ijk + ijk for ijk in triples), n)     # legs i j k a b c
    left = _merge(_merge(domain, table, 6, 3, 4), table, 5, 4, 3)     # i j k (ab)c
    right = _merge(_merge(domain, table, 6, 4, 5), table, 5, 3, 4)    # i j k a(bc)
    return _by_instance(left, n), _by_instance(right, n)


def _by_instance(t, dim: int) -> dict[tuple[int, ...], TensorElement]:
    """Split a tensor with four legs on its last leg into one rank-1 tensor
    per key of the other legs."""
    return {key: TensorElement(1, dim, entries, _trust=True)
            for key, entries in _lower_rows(t, dim, 4).items()}


# -- loading ------------------------------------------------------------------


def load_and_validate(raw: QhaPresentation) -> QhaPresentation:
    """Normalize and verify a presentation; raises on the first bad axiom.

    The axioms run in ``verify_axioms``'s ``first_failure`` mode: a rejected
    presentation stops at its first failed row in report order, the row it
    is rejected for, and an accepted one gets the complete report, which
    its context keeps for later axiom suites."""
    unit3 = tensor_product(tensor_product(raw.unit, raw.unit), raw.unit)
    phi_products = []
    for both in _phi_products(raw):
        if both != unit3:
            raise NonInvertiblePhi(f"{raw.name}: phi * phi_inv != 1 x 1 x 1")
        phi_products.append(both)
    ea, eb = raw.counit(raw.alpha), raw.counit(raw.beta)
    if ea * eb != ONE:
        raise BadCounitNormalization(
            f"{raw.name}: eps(alpha)*eps(beta) = {ea * eb}, expected 1")
    pres = raw
    if ea != ONE:
        pres = replace(raw, alpha=raw.alpha.scale(ea.inverse()), beta=raw.beta.scale(ea))
    report = verify_axioms(pres, first_failure=True, phi_products=phi_products)
    for row in report.rows:
        if not row.passed:
            raise AxiomViolation(row.name, row.witness)
    # later axiom suites on the loaded presentation reuse this report
    from .context import get_context
    get_context(pres).axiom_report(report)
    return pres


# -- antipode inverse ----------------------------------------------------------


def antipode_inverse(pres: QhaPresentation) -> LinearOperator:
    try:
        return invert_operator(pres.antipode)
    except SingularOperator as exc:
        raise SingularAntipode(f"{pres.name}: antipode matrix is singular") from exc


# -- opposite / coopposite variants ---------------------------------------------


def variant(pres: QhaPresentation, which: str) -> QhaPresentation:
    """The op / cop / opcop presentation; requires an invertible antipode.

    op reverses the products and swaps phi with phi^-1 and alpha with beta;
    cop swaps the legs of the coproduct and of phi.  With exactly one flip
    the antipode becomes S^-1, which also maps alpha and beta."""
    if which not in ("op", "cop", "opcop"):
        raise ValueError(f"unknown variant {which!r}")
    mult, coproduct, antipode = pres.mult, pres.coproduct, pres.antipode
    phi, phi_inv, alpha, beta = pres.phi, pres.phi_inv, pres.alpha, pres.beta
    if which != "cop":
        mult = MultTable({(j, i): row for (i, j), row in mult.items()})
        phi, phi_inv, alpha, beta = phi_inv, phi, beta, alpha
    if which != "op":
        coproduct = LinearOperator(
            pres.dim, [permute_legs(col, (1, 0)) for col in coproduct.columns], dst_rank=2)
        phi, phi_inv = permute_legs(phi_inv, (2, 1, 0)), permute_legs(phi, (2, 1, 0))
    if which != "opcop":
        from .context import get_context
        antipode = get_context(pres).s_inv
        alpha, beta = antipode.apply(alpha), antipode.apply(beta)
    suffix = "^" + which
    name = pres.name[:-len(suffix)] if pres.name.endswith(suffix) else pres.name + suffix
    return replace(pres, name=name, mult=mult, coproduct=coproduct, phi=phi,
                   phi_inv=phi_inv, antipode=antipode, alpha=alpha, beta=beta)


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
