"""The quantum double D(H): construction as a first-class presentation,
its inverse antipode, integrals, cointegrals, modular element and the
semisimplicity criterion.

D(H) lives on the dual space tensor H; basis index (i, j) -> i*dim + j
with the dual index major.  The multiplication is driven by a rank-5
element contracted against both functional legs; the table is materialized
eagerly because every solver downstream consumes it.

Every expression is a formula in the grammar of :mod:`expr`, parsed when
this module is imported (:data:`FORMS`), in the letters of
``canonical.LETTERS`` and the few declared beside their formula.  A table
over basis pairs has a variable for each basis index it runs over; its
index legs come first, in the order the variables are declared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import canonical, intcoint
from .context import AlgebraContext, get_context
from .exactnum import Scalar, ZERO
from .canonical import _value, parse
from .expr import VAR, Expression
from .multilinear import (Functional, LinearOperator, TensorElement, embed_legs,
                          mult_pointwise, multiplication_operator,
                          row_rank)
from .qha import QhaPresentation, _compose_functional, make_mult
from .report import VerificationReport


class DoubleBuildError(ArithmeticError):
    pass


@dataclass(frozen=True)
class DoublePresentation:
    presentation: QhaPresentation
    base: QhaPresentation
    omega: TensorElement                  # rank 5 over the base algebra
    embedding: tuple[TensorElement, ...]  # image of each base basis vector


FORMS: dict[str, tuple[Expression, ...]] = {
    "omega": parse("X1_11 y1 x1 x X1_12 y2 x2_1 x X1_2 y3 x2_2 x Si(f1 X2 x3) x Si(f2 X3)"),
    # the multiplication over omega: legs (central basis element j,
    # result-functional m, result element o, phi-slot a, psi-slot b)
    "mult": parse("Om3 h_12 x Om5 h'_1 Om1 x Si(h_2) Om4 h'_2 Om2 h_11", Om=5),
    # the coproduct, with the functional slots of the result left open (w
    # for the first factor, z for the second): legs (j, w, z, u, c, e, a)
    "coproduct": parse("X1 Y1 x p1_2 x2 h_1 x X2_2 Y3 x3 h_2 "
                       "x Si(X3) z X2_1 Y2 Si(p2) w p1_1 x1", h=VAR, w=VAR, z=VAR),
    # the antipode and its closed-form inverse: legs (j, m, u, c, a)
    "antipode": parse("S(h) f1 x p1_2 U2 x Si(f2 Si(p2) h' p1_1 U1)"),
    "antipode^-1": parse("Si(f2 h) x p1_2 Si(q1 g1) x S(Si(p2 f1) h' p1_1 Si(q2 g2))"),
    "integral": parse("mui(delta2) lam(h delta1)"),
    "left-cointegral": parse("mu(pl1) mui(f1) lam(Si(f2) h S(pl2))"),
    "modular": parse("mu(g1_1) mui(g2) g1_2 Si2(gmod^-1)"),
    # (Si(ql2 g2) <- mui) = mui(Si(ql2 g2)_1) Si(ql2 g2)_2, and the split of
    # the product expands through Si being an anti-morphism:
    # Si(ql2 g2) = Si(g2) Si(ql2)
    "modular-second": parse("mu(ql1 g1) mui(pl1) mui(Si(g2)_1 Si(ql2)_1) Si(g2)_2 Si(ql2)_2 pl2"),
    "unimodular-conjecture": parse("mui(delta2) delta1"),
}


def _didx(n: int, i: int, j: int) -> int:
    return i * n + j


def build_omega(ctx: AlgebraContext) -> TensorElement:
    return _value(ctx, *FORMS["omega"])


def _double_element(n: int, func_coords, elem: TensorElement) -> TensorElement:
    """functional (x) element -> coordinate vector over the double."""
    out: dict[tuple[int, ...], Scalar] = {}
    for i, c in enumerate(func_coords):
        if c.is_zero():
            continue
        for (j,), v in elem.entries.items():
            out[(_didx(n, i, j),)] = c * v
    return TensorElement(1, n * n, out, _trust=True)


def build_double(H: QhaPresentation) -> DoublePresentation:
    ctx = get_context(H)
    n = H.dim
    nd = n * n
    omega = build_omega(ctx)

    # multiplication: one evaluation, with the central element h and the
    # result functional on index legs, gives the coefficient table
    mult_table = _value(ctx, *FORMS["mult"], Om=omega)
    dmult = make_mult(nd, [(_didx(n, a, j), _didx(n, b, l), _didx(n, m, k), s * c)
                           for (j, m, o, a, b), s in mult_table.entries.items()
                           for l in range(n) for k, c in H.mult.get((o, l), ())])

    counit_d = Functional([H.counit(H.basis_element(j)) * ctx.s_inv.apply(H.alpha).coeff(i)
                           for i in range(n) for j in range(n)])
    # e_j |-> eps x e_j, and every element of H through it
    embedding = tuple(_double_element(n, H.counit.coords, H.basis_element(j))
                      for j in range(n))

    # column k of left[u] is embedding[u] times the k-th basis element of the double
    left = [multiplication_operator(dmult, emb, "left").columns for emb in embedding]

    # coproduct: one evaluation covering all basis pairs
    cop_table = _value(ctx, *FORMS["coproduct"])
    coproduct_d = _scatter(nd, ((_didx(n, a, j), s, left[u][_didx(n, w, c)], (_didx(n, z, e),))
                                for (j, w, z, u, c, e, a), s in cop_table.entries.items()), 2)

    # antipode: one evaluation covering all basis pairs
    antipode_d = _scatter(nd, ((_didx(n, a, j), s, left[u][_didx(n, m, c)], ())
                               for (j, m, u, c, a), s in
                               _value(ctx, *FORMS["antipode"]).entries.items()))

    labels = tuple(f"P_{H.basis[i]}><{H.basis[j]}" for i in range(n) for j in range(n))
    pres_d = QhaPresentation(
        name=f"D({H.name})", dim=nd, basis=labels, field_tag=H.field_tag,
        mult=dmult, unit=embed_legs(embedding, H.unit), counit=counit_d,
        coproduct=coproduct_d, phi=embed_legs(embedding, H.phi),
        phi_inv=embed_legs(embedding, H.phi_inv), antipode=antipode_d,
        alpha=embed_legs(embedding, H.alpha), beta=embed_legs(embedding, H.beta))
    report = get_context(pres_d).axiom_report()
    if not report.passed():
        failed = ", ".join(row.name for row in report.failures())
        raise DoubleBuildError(f"double of {H.name} violates axioms: {failed}")
    return DoublePresentation(presentation=pres_d, base=H, omega=omega,
                              embedding=embedding)


def _scatter(nd: int, terms, dst_rank: int = 1) -> LinearOperator:
    """The operator on the double whose column k is the sum of s * x (x) tail
    over the terms (k, s, x, tail): x is a column of the left multiplication
    by an embedded basis element and tail a tuple of basis indices.  Each
    column is added up once."""
    sums: list[dict] = [{} for _ in range(nd)]
    for k, s, x, tail in terms:
        acc = sums[k]
        for key, value in x.entries.items():
            key += tail
            term = s * value
            prev = acc.get(key)
            acc[key] = term if prev is None else prev + term
    return LinearOperator(nd, [TensorElement(dst_rank, nd, acc) for acc in sums],
                          dst_rank=dst_rank)


def double_antipode_inverse(D: DoublePresentation) -> LinearOperator:
    """Closed form of the inverse antipode, cross-checked column by column
    against the exact matrix inverse by ``double_report``."""
    base = get_context(D.base)
    n = D.base.dim
    table = _value(base, *FORMS["antipode^-1"])
    left = [multiplication_operator(D.presentation.mult, emb, "left").columns
            for emb in D.embedding]
    return _scatter(n * n, ((_didx(n, a, j), s, left[u][_didx(n, m, c)], ())
                            for (j, m, u, c, a), s in table.entries.items()))


# -- integrals, cointegrals, modular data of the double -----------------------------


def double_integral(D: DoublePresentation) -> TensorElement:
    """mu^-1(delta2) (delta1 -> lambda) paired with the right integral."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    coords_t = _value(base, *FORMS["integral"])
    t_func = [coords_t.coeff(a) for a in range(n)]
    return _double_element(n, t_func, base.r)


def double_left_cointegral(D: DoublePresentation) -> Functional:
    """r paired with mu(pl1) S(pl2) -> lambda <- mui(f1) Si(f2)."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    lam_prime = _value(base, *FORMS["left-cointegral"])
    r_coords = base.r.coords()
    return Functional([r_coords[i] * lam_prime.coeff(j)
                       for i in range(n) for j in range(n)])


def double_right_cointegral(D: DoublePresentation) -> Functional:
    """t paired with lambda o S."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    t_coords = base.t.coords()
    lam_s = _compose_functional(base.lam, H.antipode).coords
    return Functional([t_coords[i] * lam_s[j] for i in range(n) for j in range(n)])


def double_modular(D: DoublePresentation) -> tuple[TensorElement, TensorElement]:
    """Both closed forms of the modular element of the double."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    s_d_inv = get_context(D.presentation).s_inv

    # first form: mu(g1_1) mui(g2) SDi( mu |><| g1_2 S^-2(gmod^-1) )
    first = s_d_inv.apply(_double_element(n, base.mu.coords, _value(base, *FORMS["modular"])))

    # second form: mu(ql1 g1) mui(pl1)
    #   (eps |><| S^-3(gmod^-1)) (mui |><| (Si(ql2 g2) <- mui) pl2)
    si3 = base.ops.operators["Si"].compose(base.ops.operators["Si2"])
    second_elem = _value(base, *FORMS["modular-second"])
    lhs_factor = embed_legs(D.embedding, si3.apply(base.g_mod_inv))
    rhs_factor = _double_element(n, base.mu_inv.coords, second_elem)
    second = mult_pointwise(D.presentation.mult, lhs_factor, rhs_factor)
    return first, second


def _semisimplicity(D: DoublePresentation) -> tuple[Scalar, Scalar, bool]:
    """eps(r), lam(Si(alpha) beta) and whether both are nonzero."""
    base = get_context(D.base)
    H = D.base
    eps_r = H.counit(base.r)
    norm = base.lam(H.multiply(base.s_inv.apply(H.alpha), H.beta))
    return eps_r, norm, not eps_r.is_zero() and not norm.is_zero()


def trace_form_rank(pres: QhaPresentation) -> int:
    """The rank of the trace form G_ab = Tr(L_{e_a e_b}); over a field of
    characteristic 0 the algebra is semisimple exactly when it is full."""
    n = pres.dim
    lefts = [multiplication_operator(pres.mult, pres.basis_element(a), "left")
             for a in range(n)]
    trace = Functional([sum((op.columns[k].coeff(k) for k in range(n)), ZERO)
                        for op in lefts])
    return row_rank((TensorElement.vector([trace(col) for col in op.columns])
                     for op in lefts), n)


def semisimplicity_check(D: DoublePresentation) -> VerificationReport:
    """The paper's criterion, checked against the trace form of D(H)."""
    eps_r, norm, semisimple = _semisimplicity(D)
    nd, rank = D.presentation.dim, trace_form_rank(D.presentation)
    report = VerificationReport(D.presentation.name)
    report.add(f"semisimple:eps(r)={eps_r}", True)
    report.add(f"semisimple:lam(Si(alpha)beta)={norm}", True)
    report.add(f"semisimple:verdict={'yes' if semisimple else 'no'}",
               semisimple == (rank == nd), f"trace form rank {rank}/{nd}")
    return report


def is_double_semisimple(D: DoublePresentation) -> bool:
    return _semisimplicity(D)[2]


# -- the umbrella verification suite --------------------------------------------


# identities re-checked on the double itself, with its canonical elements
# derived from its own structure constants
DOUBLE_SUITE_NAMES = [
    "ca", "gdf-gamma", "gdf-delta", "f-counit",
    "pqra", "pqr", "pql", "pqla", "qqlv", "pplu",
    "uvpql-u", "uvpql-v",
    "f2a", "f2b", "qqt-left", "qqt-right", "prelimpobs",
    "firstRad-fn", "qtr-fn", "lamS-v", "rint4",
]


def double_report(D: DoublePresentation) -> VerificationReport:
    H = D.base
    base = get_context(H)
    pres_d = D.presentation
    ctx_d = get_context(pres_d)
    n, nd = H.dim, H.dim * H.dim
    report = VerificationReport(pres_d.name)

    report.extend(ctx_d.axiom_report())

    e = H.basis_element

    # unit law over every basis element
    unit_d = multiplication_operator(pres_d.mult, pres_d.unit, "left").columns
    d_unit = multiplication_operator(pres_d.mult, pres_d.unit, "right").columns
    report.check_all("double:unit-law", range(nd), lambda k: [
        (unit_d[k], pres_d.basis_element(k)), (d_unit[k], pres_d.basis_element(k))])

    # the embedding is an injective morphism of quasi-Hopf structures
    report.add("double:embedding-injective", row_rank(D.embedding, nd) == n)
    report.check_all("double:embedding-multiplicative", product(range(n), repeat=2),
                     lambda ab: [(pres_d.multiply(D.embedding[ab[0]], D.embedding[ab[1]]),
                                  embed_legs(D.embedding, H.multiply(e(ab[0]), e(ab[1]))))])
    report.check_all("double:embedding-coproduct", range(n), lambda a: [
        (pres_d.coproduct.apply(D.embedding[a]),
         embed_legs(D.embedding, H.coproduct.apply(e(a))))])
    report.check_all("double:embedding-antipode", range(n), lambda a: [
        (pres_d.antipode.apply(D.embedding[a]),
         embed_legs(D.embedding, H.antipode.apply(e(a))))])
    report.check_all("double:embedding-counit", range(n), lambda a: [
        (pres_d.counit(D.embedding[a]), H.counit(e(a)))])

    report.add("double:alpha-beta-embedded",
               pres_d.alpha == embed_legs(D.embedding, H.alpha)
               and pres_d.beta == embed_legs(D.embedding, H.beta))

    # closed-form inverse antipode against the exact matrix inverse
    closed = double_antipode_inverse(D)
    report.add("double:SDi-closed-form", closed == ctx_d.s_inv,
               None if closed == ctx_d.s_inv else "columns differ")
    report.check_all("double:SDi-on-subalgebra", range(n), lambda a: [
        (closed.apply(D.embedding[a]), embed_legs(D.embedding, base.s_inv.apply(e(a))))])

    # the explicit two-sided integral
    big_t = double_integral(D)
    eps_d = pres_d.counit
    d_t = multiplication_operator(pres_d.mult, big_t, "right").columns
    t_d = multiplication_operator(pres_d.mult, big_t, "left").columns

    def two_sided(k: int):
        scaled = big_t.scale(eps_d.coords[k])
        return [(d_t[k], scaled), (t_d[k], scaled)]
    report.check_all("double:T-two-sided-integral", range(nd), two_sided)
    t_pairing = base.mu_inv(H.beta) * base.lam(base.r)
    report.add("double:T-nonzero", not big_t.is_zero() and not t_pairing.is_zero())
    report.add("double:T-spans-integral-line", intcoint._proportional_el(big_t, ctx_d.t))
    report.add("double:mu_D-equals-eps_D", ctx_d.mu == eps_d)
    # eps_D of the integral is nonzero exactly in the semisimple case
    eps_of_t = eps_d(big_t)
    report.add(f"double:epsD(T)={eps_of_t}",
               (not eps_of_t.is_zero()) == is_double_semisimple(D))
    if intcoint.is_unimodular(base):
        delta_pair = _value(base, *FORMS["unimodular-conjecture"])
        report.check_zero("double:unimodular-conjecture", delta_pair - H.beta)

    # cointegrals of the double
    gamma_fn = double_left_cointegral(D)
    report.check_zero("double:Gamma-left-cointegral",
                      intcoint.cointegral_residual(ctx_d, gamma_fn, "left"))
    right_fn = double_right_cointegral(D)
    report.check_zero("double:t|lamS-right-cointegral",
                      intcoint.cointegral_residual(ctx_d, right_fn, "right"))
    report.add("double:Gamma-spans-left-line",
               intcoint._proportional_fn(gamma_fn, ctx_d.lam))
    report.add("double:right-cointegral-spans-right-line",
               intcoint._proportional_fn(right_fn, ctx_d.big_lam))
    # Gamma o S_D = S(r) |><| lam o S
    gamma_sd = Functional([gamma_fn(pres_d.antipode.apply(pres_d.basis_element(k)))
                           for k in range(nd)])
    s_r = H.antipode.apply(base.r).coords()
    lam_s = _compose_functional(base.lam, H.antipode).coords
    expected = Functional([s_r[i] * lam_s[j] for i in range(n) for j in range(n)])
    report.check_zero("double:Gamma.SD=S(r)|lamS", gamma_sd - expected)

    # modular element: both closed forms and the double's own computation agree
    first, second = double_modular(D)
    report.check_zero("double:gD-closed-forms-agree", first - second)
    report.check_zero("double:gD-matches-solver", first - ctx_d.g_mod)

    report.extend(semisimplicity_check(D))

    # the canonical identity layer evaluated inside the double
    report.extend(canonical.identity_suite(ctx_d, DOUBLE_SUITE_NAMES))
    return report
