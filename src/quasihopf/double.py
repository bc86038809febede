"""The quantum double D(H): construction as a first-class presentation,
its inverse antipode, integrals, cointegrals, modular element and the
semisimplicity criterion.

D(H) lives on the dual space tensor H; basis index (i, j) -> i*dim + j
with the dual index major.  The multiplication is driven by a rank-5
element contracted against both functional legs; the table is materialized
eagerly because every solver downstream consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import canonical, intcoint
from .context import AlgebraContext, get_context
from .exactnum import Scalar
from .expr import VAR, Expression, Fn, Hole, Leg, S, Si, VarIdx, op, r
from .multilinear import (Functional, LinearOperator, TensorElement, _map_leg,
                          invert_operator, kernel_basis, mult_pointwise,
                          permute_legs)
from .qha import EXHAUSTIVE_DIM, QhaPresentation, make_mult
from .report import VerificationReport


class DoubleBuildError(ArithmeticError):
    pass


@dataclass(frozen=True)
class DoublePresentation:
    presentation: QhaPresentation
    base: QhaPresentation
    omega: TensorElement                  # rank 5 over the base algebra
    embedding: tuple[TensorElement, ...]  # image of each base basis vector


def _didx(n: int, i: int, j: int) -> int:
    return i * n + j


def build_omega(ctx: AlgebraContext) -> TensorElement:
    pres = ctx.pres
    return Expression(
        {"X": pres.phi, "y": pres.phi_inv, "x": pres.phi_inv, "f": ctx.f},
        [Leg(r("X", 1, 1, 1), r("y", 1), r("x", 1)),
         Leg(r("X", 1, 1, 2), r("y", 2), r("x", 2, 1)),
         Leg(r("X", 1, 2), r("y", 3), r("x", 2, 2)),
         Leg(Si(r("f", 1), r("X", 2), r("x", 3))),
         Leg(Si(r("f", 2), r("X", 3)))]).evaluate(ctx.ops)


def _double_element(n: int, func_coords, elem: TensorElement) -> TensorElement:
    """functional (x) element -> coordinate vector over the double."""
    out: dict[tuple[int, ...], Scalar] = {}
    for i, c in enumerate(func_coords):
        if c.is_zero():
            continue
        for (j,), v in elem.entries.items():
            out[(_didx(n, i, j),)] = c * v
    return TensorElement(1, n * n, out, _trust=True)


def _embed_legs(embedding: Sequence[TensorElement], t: TensorElement) -> TensorElement:
    """Map every leg of an element of H^(x)k along the embedding H -> D(H)."""
    columns = [e.entries for e in embedding]
    entries = t.entries
    for leg in range(t.rank):
        entries = _map_leg(entries, columns, leg)
    return TensorElement(t.rank, embedding[0].dim, entries, _trust=True)


def build_double(H: QhaPresentation, exhaustive: bool | None = None) -> DoublePresentation:
    ctx = get_context(H)
    n = H.dim
    nd = n * n
    omega = build_omega(ctx)

    # multiplication: one evaluation per central basis element h = e_j gives
    # the coefficient table over (result element, phi-slot, psi-slot, argument)
    mult_entries: list[tuple[int, int, int, Scalar]] = []
    mult_expr = Expression(
        {"h": VAR, "Om": omega, "xx": VAR},
        [Leg(r("Om", 3), r("h", 1, 1, 2)),
         Hole(r("Om", 5), r("xx", 1, 1), r("Om", 1)),
         Hole(Si(r("h", 1, 2)), r("Om", 4), r("xx", 1, 2), r("Om", 2), r("h", 1, 1, 1)),
         VarIdx("xx")])
    for j in range(n):
        table = mult_expr.evaluate(ctx.ops, {"h": H.basis_element(j)})
        # legs: (out o, phi-arg a, psi-arg b, result-functional m)
        for (o, a, b, m), s in table.entries.items():
            for l in range(n):
                for (k,), c in H.multiply(H.basis_element(o), H.basis_element(l)).entries.items():
                    mult_entries.append((_didx(n, a, j), _didx(n, b, l),
                                         _didx(n, m, k), s * c))
    dmult = make_mult(nd, mult_entries)

    unit_d = _double_element(n, H.counit.coords, H.unit)
    counit_d = Functional([H.counit(H.basis_element(j)) * ctx.s_inv.apply(H.alpha).coeff(i)
                           for i in range(n) for j in range(n)])

    def embed(elem: TensorElement) -> TensorElement:
        return _double_element(n, H.counit.coords, elem)

    embedding = tuple(embed(H.basis_element(j)) for j in range(n))
    phi_d = _embed_legs(embedding, H.phi)
    phi_inv_d = _embed_legs(embedding, H.phi_inv)

    def dmultiply(a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(dmult, a, b)

    # coproduct: evaluated with the two functional slots of the result left
    # open (w for the first factor, z for the second)
    cop_expr = Expression(
        {"h": VAR, "X": H.phi, "Y": H.phi, "x": H.phi_inv, "p": ctx.p_r,
         "w": VAR, "z": VAR},
        [Leg(r("X", 1), r("Y", 1)),                                  # u
         Leg(r("p", 1, 2), r("x", 2), r("h", 1, 1)),                 # c
         Leg(r("X", 2, 2), r("Y", 3), r("x", 3), r("h", 1, 2)),      # e
         Hole(Si(r("X", 3)), r("z", 1), r("X", 2, 1),
              r("Y", 2), Si(r("p", 2)), r("w", 1), r("p", 1, 1), r("x", 1)),
         VarIdx("w"), VarIdx("z")])
    cop_cols: list[TensorElement] = [TensorElement.zero(2, nd) for _ in range(nd)]
    for j in range(n):
        table = cop_expr.evaluate(ctx.ops, {"h": H.basis_element(j)})
        # legs: (u, c, e, hole a, w, z)
        per_i: dict[int, dict[tuple[int, ...], Scalar]] = {}
        for (u, c, e, a, w, z), s in table.entries.items():
            first = dmultiply(embed(H.basis_element(u)),
                              TensorElement.basis(nd, _didx(n, w, c)))
            for (m,), cm in first.entries.items():
                key = (m, _didx(n, z, e))
                bucket = per_i.setdefault(a, {})
                acc = bucket.get(key)
                term = s * cm
                bucket[key] = term if acc is None else acc + term
        for a, entries in per_i.items():
            cop_cols[_didx(n, a, j)] = cop_cols[_didx(n, a, j)] + TensorElement(
                2, nd, entries)
    coproduct_d = LinearOperator(nd, cop_cols, dst_rank=2)

    # antipode: one evaluation covering all basis pairs
    s_expr = Expression(
        {"h": VAR, "f": ctx.f, "p": ctx.p_r, "U": ctx.u_cap, "xx": VAR},
        [Leg(S(r("h")), r("f", 1)),                                  # u
         Leg(r("p", 1, 2), r("U", 2)),                               # c
         Hole(Si(r("f", 2), Si(r("p", 2)), r("xx", 1), r("p", 1, 1), r("U", 1))),
         VarIdx("xx")])
    s_table = s_expr.evaluate(ctx.ops)
    # legs: (h, u, c, hole a, m)
    s_cols: list[TensorElement] = [TensorElement.zero(1, nd) for _ in range(nd)]
    for (j, u, c, a, m), s in s_table.entries.items():
        contribution = dmultiply(embed(H.basis_element(u)),
                                 TensorElement.basis(nd, _didx(n, m, c))).scale(s)
        s_cols[_didx(n, a, j)] = s_cols[_didx(n, a, j)] + contribution
    antipode_d = LinearOperator(nd, s_cols)

    labels = tuple(f"P_{H.basis[i]}><{H.basis[j]}" for i in range(n) for j in range(n))
    pres_d = QhaPresentation(
        name=f"D({H.name})", dim=nd, basis=labels, field_tag=H.field_tag,
        mult=dmult, unit=unit_d, counit=counit_d, coproduct=coproduct_d,
        phi=phi_d, phi_inv=phi_inv_d, antipode=antipode_d,
        alpha=embed(H.alpha), beta=embed(H.beta))
    report = get_context(pres_d).axiom_report(exhaustive)
    if not report.passed():
        failed = ", ".join(row.name for row in report.failures())
        raise DoubleBuildError(f"double of {H.name} violates axioms: {failed}")
    return DoublePresentation(presentation=pres_d, base=H, omega=omega,
                              embedding=embedding)


# -- context with transported canonical elements for large doubles ----------------


def _transport2(D: DoublePresentation, t: TensorElement) -> TensorElement:
    """A two-leg element of the base algebra, carried into the double."""
    return _embed_legs(D.embedding, t)


def double_context(D: DoublePresentation) -> AlgebraContext:
    """Context for the double; above the exhaustive-dimension bound the
    canonical two-leg elements are transported along the embedding (which
    is a morphism for the whole structure) instead of re-derived, and the
    transported values are re-verified against their defining equations by
    ``double_report``."""
    ctx = get_context(D.presentation)
    if D.presentation.dim <= EXHAUSTIVE_DIM or "gamma_delta" in ctx._memo:
        return ctx
    base = get_context(D.base)
    with ctx._lock:
        ctx._memo.setdefault("gamma_delta",
                             (_transport2(D, base.gamma), _transport2(D, base.delta_el)))
        ctx._memo.setdefault("twist",
                             (_transport2(D, base.f), _transport2(D, base.f_inv)))
        ctx._memo.setdefault("pq", (_transport2(D, base.p_r), _transport2(D, base.q_r),
                                    _transport2(D, base.p_l), _transport2(D, base.q_l)))
    _seed_cop(ctx)
    return ctx


def _seed_cop(ctx: AlgebraContext) -> None:
    """Seed the coopposite context from the straight one (the coopposite
    transport rules); idempotent."""
    cop = ctx.variant_ctx("cop")
    if "gamma_delta" in cop._memo:
        return

    def si2(t: TensorElement) -> TensorElement:
        return Expression({"t": t}, [Leg(Si(r("t", 1))), Leg(Si(r("t", 2)))]
                          ).evaluate(ctx.ops)

    def swap(t: TensorElement) -> TensorElement:
        return permute_legs(t, (1, 0))

    with cop._lock:
        cop._memo.setdefault("gamma_delta", (si2(ctx.gamma), si2(ctx.delta_el)))
        cop._memo.setdefault("twist", (si2(ctx.f), si2(ctx.f_inv)))
        cop._memo.setdefault("pq", (swap(ctx.p_l), swap(ctx.q_l),
                                    swap(ctx.p_r), swap(ctx.q_r)))


def double_antipode_inverse(D: DoublePresentation) -> LinearOperator:
    """Closed form of the inverse antipode, cross-checked column by column
    against the exact matrix inverse by ``double_report``."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    nd = n * n
    table = Expression(
        {"h": VAR, "f": base.f, "p": base.p_r, "q": base.q_r, "g": base.f_inv,
         "xx": VAR},
        [Leg(Si(r("f", 2), r("h", 1))),                             # u
         Leg(r("p", 1, 2), Si(r("q", 1), r("g", 1))),               # c
         Hole(S(Si(r("p", 2), r("f", 1)), r("xx", 1), r("p", 1, 1),
                Si(r("q", 2), r("g", 2)))),
         VarIdx("xx")]).evaluate(base.ops)
    pres_d = D.presentation

    def dmultiply(a: TensorElement, b: TensorElement) -> TensorElement:
        return mult_pointwise(pres_d.mult, a, b)

    cols: list[TensorElement] = [TensorElement.zero(1, nd) for _ in range(nd)]
    for (j, u, c, a, m), s in table.entries.items():
        contribution = dmultiply(D.embedding[u],
                                 TensorElement.basis(nd, _didx(n, m, c))).scale(s)
        cols[_didx(n, a, j)] = cols[_didx(n, a, j)] + contribution
    return LinearOperator(nd, cols)


# -- integrals, cointegrals, modular data of the double -----------------------------


def double_integral(D: DoublePresentation) -> TensorElement:
    """mu^-1(delta2) (delta1 -> lambda) paired with the right integral."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    coords_t = Expression({"ea": VAR, "dl": base.delta_el},
                          [VarIdx("ea"),
                           Fn("mui", r("dl", 2)),
                           Fn("lam", r("ea", 1), r("dl", 1))]).evaluate(
                              base.ops, None, base.lazy_functionals())
    t_func = [coords_t.coeff(a) for a in range(n)]
    return _double_element(n, t_func, base.r)


def double_left_cointegral(D: DoublePresentation) -> Functional:
    """r paired with mu(pl1) S(pl2) -> lambda <- mui(f1) Si(f2)."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    lam_prime = Expression({"h": VAR, "pl": base.p_l, "f": base.f},
                           [VarIdx("h"),
                            Fn("mu", r("pl", 1)), Fn("mui", r("f", 1)),
                            Fn("lam", Si(r("f", 2)), r("h", 1), S(r("pl", 2)))]
                           ).evaluate(base.ops, None, base.lazy_functionals())
    r_coords = base.r.coords()
    return Functional([r_coords[i] * lam_prime.coeff(j)
                       for i in range(n) for j in range(n)])


def double_right_cointegral(D: DoublePresentation) -> Functional:
    """t paired with lambda o S."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    t_coords = base.t.coords()
    lam_s = [base.lam(H.antipode.apply(H.basis_element(j))) for j in range(n)]
    return Functional([t_coords[i] * lam_s[j] for i in range(n) for j in range(n)])


def double_modular(D: DoublePresentation) -> tuple[TensorElement, TensorElement]:
    """Both closed forms of the modular element of the double."""
    base = get_context(D.base)
    H = D.base
    n = H.dim
    s_d_inv = double_antipode_inverse(D)

    # first form: mu(g1_1) mui(g2) SDi( mu |><| g1_2 S^-2(gmod^-1) )
    inner = Expression({"g": base.f_inv, "gi": base.g_mod_inv},
                       [Fn("mu", r("g", 1, 1)), Fn("mui", r("g", 2)),
                        Leg(r("g", 1, 2), op("Si2", r("gi")))]).evaluate(
                           base.ops, None, base.lazy_functionals())
    first = s_d_inv.apply(_double_element(n, base.mu.coords, inner))

    # second form: mu(ql1 g1) mui(pl1)
    #   (eps |><| S^-3(gmod^-1)) (mui |><| (Si(ql2 g2) <- mui) pl2).
    # (Si(ql2 g2) <- mui) = mui(Si(ql2 g2)_1) Si(ql2 g2)_2, and the split of
    # the product expands through Si being an anti-morphism:
    # Si(ql2 g2) = Si(g2) Si(ql2).
    si3 = base.ops.operators["Si"].compose(base.ops.operators["Si2"])
    second_elem = Expression(
        {"ql": base.q_l, "g": base.f_inv, "pl": base.p_l},
        [Fn("mu", r("ql", 1), r("g", 1)),
         Fn("mui", r("pl", 1)),
         Fn("mui", r("g", 2, "Si", 1), r("ql", 2, "Si", 1)),
         Leg(r("g", 2, "Si", 2), r("ql", 2, "Si", 2), r("pl", 2))]).evaluate(
            base.ops, None, base.lazy_functionals())
    lhs_factor = _double_element(n, H.counit.coords,
                                 si3.apply(base.g_mod_inv))
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


def semisimplicity_check(D: DoublePresentation) -> VerificationReport:
    eps_r, norm, semisimple = _semisimplicity(D)
    report = VerificationReport(D.presentation.name)
    report.add(f"semisimple:eps(r)={eps_r}", True)
    report.add(f"semisimple:lam(Si(alpha)beta)={norm}", True)
    report.add(f"semisimple:verdict={'yes' if semisimple else 'no'}", True)
    return report


def is_double_semisimple(D: DoublePresentation) -> bool:
    return _semisimplicity(D)[2]


# -- the umbrella verification suite --------------------------------------------


# identities re-checked on the double itself; for large doubles this also
# certifies the transported canonical elements against their definitions
DOUBLE_SUITE_NAMES = [
    "ca", "gdf-gamma", "gdf-delta", "f-counit",
    "pqra", "pqr", "pql", "pqla", "qqlv", "pplu",
    "uvpql-u", "uvpql-v",
    "f2a", "f2b", "qqt-left", "qqt-right", "prelimpobs",
    "firstRad-fn", "qtr-fn", "lamS-v", "rint4",
]


def double_report(D: DoublePresentation, exhaustive: bool | None = None) -> VerificationReport:
    H = D.base
    base = get_context(H)
    pres_d = D.presentation
    n, nd = H.dim, H.dim * H.dim
    report = VerificationReport(pres_d.name)

    report.extend(get_context(pres_d).axiom_report(exhaustive))

    # unit law over every basis pair
    witness = None
    for k in range(nd):
        d = pres_d.basis_element(k)
        if (pres_d.multiply(pres_d.unit, d) != d
                or pres_d.multiply(d, pres_d.unit) != d):
            witness = pres_d.multiply(pres_d.unit, d) - d
            break
    report.add("double:unit-law", witness is None, witness)

    # the embedding is an injective morphism of quasi-Hopf structures
    rows = [[D.embedding[j].coeff(k) for j in range(n)] for k in range(nd)]
    report.add("double:embedding-injective", not kernel_basis(rows, n))
    witness = None
    for a in range(n):
        for b in range(n):
            lhs = pres_d.multiply(D.embedding[a], D.embedding[b])
            rhs = _double_element(n, H.counit.coords,
                                  H.multiply(H.basis_element(a), H.basis_element(b)))
            if lhs != rhs:
                witness = lhs - rhs
                break
        if witness is not None:
            break
    report.add("double:embedding-multiplicative", witness is None, witness)

    witness = None
    for a in range(n):
        lhs = pres_d.coproduct.apply(D.embedding[a])
        rhs = _transport2(D, H.coproduct.apply(H.basis_element(a)))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add("double:embedding-coproduct", witness is None, witness)

    witness = None
    for a in range(n):
        lhs = pres_d.antipode.apply(D.embedding[a])
        rhs = _double_element(n, H.counit.coords, H.antipode.apply(H.basis_element(a)))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add("double:embedding-antipode", witness is None, witness)

    witness = None
    for a in range(n):
        lhs = pres_d.counit(D.embedding[a])
        rhs = H.counit(H.basis_element(a))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add("double:embedding-counit", witness is None, witness)

    report.add("double:alpha-beta-embedded",
               pres_d.alpha == _double_element(n, H.counit.coords, H.alpha)
               and pres_d.beta == _double_element(n, H.counit.coords, H.beta))

    # closed-form inverse antipode against the exact matrix inverse
    closed = double_antipode_inverse(D)
    matrix_inverse = invert_operator(pres_d.antipode)
    report.add("double:SDi-closed-form", closed == matrix_inverse,
               None if closed == matrix_inverse else "columns differ")
    witness = None
    for a in range(n):
        lhs = closed.apply(D.embedding[a])
        rhs = _double_element(n, H.counit.coords,
                              base.s_inv.apply(H.basis_element(a)))
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add("double:SDi-on-subalgebra", witness is None, witness)

    # the explicit two-sided integral
    ctx_d = double_context(D)
    big_t = double_integral(D)
    eps_d = pres_d.counit
    witness = None
    for k in range(nd):
        d = pres_d.basis_element(k)
        scale = eps_d(d)
        if (pres_d.multiply(d, big_t) != big_t.scale(scale)
                or pres_d.multiply(big_t, d) != big_t.scale(scale)):
            witness = pres_d.multiply(d, big_t) - big_t.scale(scale)
            break
    report.add("double:T-two-sided-integral", witness is None, witness)
    t_pairing = base.mu_inv(H.beta) * base.lam(base.r)
    report.add("double:T-nonzero", not big_t.is_zero() and not t_pairing.is_zero())
    report.add("double:T-spans-integral-line", intcoint._proportional_el(big_t, ctx_d.t))
    report.add("double:mu_D-equals-eps_D", ctx_d.mu == eps_d)
    # eps_D of the integral is nonzero exactly in the semisimple case
    eps_of_t = eps_d(big_t)
    report.add(f"double:epsD(T)={eps_of_t}",
               (not eps_of_t.is_zero()) == is_double_semisimple(D))
    if intcoint.is_unimodular(base):
        delta_pair = Expression({"dl": base.delta_el},
                                [Fn("mui", r("dl", 2)), Leg(r("dl", 1))]).evaluate(
                                    base.ops, None, base.lazy_functionals())
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
    lam_s = [base.lam(H.antipode.apply(H.basis_element(j))) for j in range(n)]
    expected = Functional([s_r[i] * lam_s[j] for i in range(n) for j in range(n)])
    report.add("double:Gamma.SD=S(r)|lamS", gamma_sd == expected,
               None if gamma_sd == expected else gamma_sd - expected)

    # modular element: both closed forms and the double's own computation agree
    first, second = double_modular(D)
    report.check_zero("double:gD-closed-forms-agree", first - second)
    report.check_zero("double:gD-matches-solver", first - ctx_d.g_mod)

    report.extend(semisimplicity_check(D))

    # the canonical identity layer evaluated inside the double
    report.extend(canonical.identity_suite(ctx_d, exhaustive, DOUBLE_SUITE_NAMES))
    return report
