"""Integrals, cointegrals, modular data, Frobenius systems and the
antipode-power laws.

Integral spaces are found as exact nullspaces of the defining linear
systems; cointegrals come from the full coinvariance relation (a system of
dim^2 scalar equations), with every shortcut characterization kept as an
independent cross-check rather than used for solving.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import ONE, ZERO
from .expr import VAR, Expression, Fn, Hole, Leg, S, Si, VarIdx, op, r
from .multilinear import (Functional, LinearOperator, TensorElement, apply_on_leg,
                          contract, invert_operator, solve_constraints)
from .report import VerificationReport


def _ctx_of(obj):
    """Accept either a presentation or an algebra context."""
    if hasattr(obj, "pres"):
        return obj
    from .context import get_context
    return get_context(obj)


class DimensionNotOne(ArithmeticError):
    pass


class CrossCheckMismatch(ArithmeticError):
    pass


class DegeneratePairing(ArithmeticError):
    pass


class FrobeniusCheckFailed(ArithmeticError):
    pass


@dataclass(frozen=True)
class IntegralData:
    left_basis: TensorElement
    right_basis: TensorElement
    mu: Functional
    mu_inv: Functional


@dataclass(frozen=True)
class CointegralData:
    left_basis: Functional       # lambda, scaled so lambda(Si(t)) = 1
    right_basis: Functional      # Lambda, scaled so Lambda(S(t)) = 1
    g_modular: TensorElement
    g_modular_inv: TensorElement


@dataclass(frozen=True)
class ComparisonElements:
    u: TensorElement
    u_inv: TensorElement
    v: TensorElement
    v_inv: TensorElement
    d: TensorElement             # mui(pl1) S^-2(pl2), exposed for debugging


@dataclass(frozen=True)
class FrobeniusSystem:
    phi: Functional
    e: TensorElement
    nakayama: LinearOperator
    nakayama_inv: LinearOperator


# -- integrals -------------------------------------------------------------------


def integral_space(pres, side: str) -> list[TensorElement]:
    """Basis of { t : h t = eps(h) t } (left) or { t : t h = eps(h) t }."""
    n = pres.dim
    eps = pres.counit

    def rows():
        for d in range(n):
            e_d = pres.basis_element(d)
            eps_d = eps(e_d)
            cols = []
            for j in range(n):
                e_j = pres.basis_element(j)
                prod = pres.multiply(e_d, e_j) if side == "left" else pres.multiply(e_j, e_d)
                cols.append(prod)
            for m in range(n):
                row = [cols[j].coeff(m) - (eps_d if m == j else ZERO) for j in range(n)]
                yield row

    basis = solve_constraints(rows(), n)
    return [TensorElement.vector(vec) for vec in basis]


def compute_integral_data(ctx) -> IntegralData:
    pres = ctx.pres
    left = integral_space(pres, "left")
    right = integral_space(pres, "right")
    if len(left) != 1 or len(right) != 1:
        raise DimensionNotOne(
            f"{pres.name}: integral spaces have dimensions "
            f"{len(left)}/{len(right)}, expected 1/1")
    t = left[0]
    anchor = min(t.entries)  # first nonzero coordinate (scaled to 1 already)
    coords = []
    for i in range(pres.dim):
        prod = pres.multiply(t, pres.basis_element(i))
        coords.append(prod.coeff(*anchor) / t.coeff(*anchor))
        # consistency across every coordinate of t
        if prod != t.scale(coords[-1]):
            raise DimensionNotOne(f"{pres.name}: t*h is not proportional to t")
    mu = Functional(coords)
    mu_inv = Functional([mu(pres.antipode.apply(pres.basis_element(i)))
                         for i in range(pres.dim)])
    return IntegralData(left_basis=t, right_basis=right[0], mu=mu, mu_inv=mu_inv)


def is_unimodular(ctx) -> bool:
    return ctx.mu == ctx.pres.counit


# -- cointegrals -------------------------------------------------------------------


def _left_coint_system(ctx):
    """The coinvariance relation as hole expressions: for each basis h both
    sides become (functional-argument, output-leg) tables."""
    pres = ctx.pres
    lhs = Expression({"h": VAR, "V": ctx.v_cap, "U": ctx.u_cap},
                     [Hole(r("V", 2), r("h", 1, 2), r("U", 2)),
                      Leg(r("V", 1), r("h", 1, 1), r("U", 1))])
    rhs = Expression({"h": VAR, "x": pres.phi_inv},
                     [Fn("mu", r("x", 1)),
                      Hole(r("h"), S(r("x", 2))),
                      Leg(r("x", 3))])
    return lhs, rhs


def _rc_pairs(ctx) -> tuple[TensorElement, TensorElement]:
    """The constant two-leg combinations S(pl2) f1 x S(pl1) f2 and
    Si(ql2 g2) x Si(ql1 g1), pre-merged so the per-basis-h system stays
    small on large algebras."""
    left = Expression({"pl": ctx.p_l, "f": ctx.f},
                      [Leg(S(r("pl", 2)), r("f", 1)),
                       Leg(S(r("pl", 1)), r("f", 2))]).evaluate(ctx.ops)
    right = Expression({"ql": ctx.q_l, "g": ctx.f_inv},
                       [Leg(Si(r("ql", 2), r("g", 2))),
                        Leg(Si(r("ql", 1), r("g", 1)))]).evaluate(ctx.ops)
    return left, right


def _right_coint_direct_system(ctx):
    pres = ctx.pres
    pair_a, pair_b = ctx._get("rc_pairs", lambda: _rc_pairs(ctx))
    lhs = Expression({"h": VAR, "A": pair_a, "B": pair_b},
                     [Hole(r("A", 1), r("h", 1, 1), r("B", 1)),
                      Leg(r("A", 2), r("h", 1, 2), r("B", 2))])
    rhs = Expression({"h": VAR, "X": pres.phi},
                     [Fn("mu", r("X", 3)),
                      Hole(r("h"), Si(r("X", 2))),
                      Leg(r("X", 1))])
    return lhs, rhs


def _solve_hole_system(ctx, lhs: Expression, rhs: Expression) -> list[Functional]:
    pres = ctx.pres
    n = pres.dim
    fns = ctx.lazy_functionals()

    def rows():
        for h_idx in range(n):
            binding = {"h": pres.basis_element(h_idx)}
            left = lhs.evaluate(ctx.ops, binding, fns)
            right = rhs.evaluate(ctx.ops, binding, fns)
            table = left - right
            for m in range(n):
                yield [table.coeff(a, m) for a in range(n)]

    return [Functional(vec) for vec in solve_constraints(rows(), n)]


def cointegral_space(ctx, side: str) -> list[Functional]:
    """Solver line of left (resp. right) cointegrals; right cointegrals come
    from the coopposite algebra and are cross-checked against the direct
    relation stated over the original structure maps."""
    ctx = _ctx_of(ctx)
    if side == "left":
        lhs, rhs = _left_coint_system(ctx)
        return _solve_hole_system(ctx, lhs, rhs)
    cop = ctx.variant_ctx("cop")
    via_cop = cointegral_space(cop, "left")
    lhs, rhs = _right_coint_direct_system(ctx)
    direct = _solve_hole_system(ctx, lhs, rhs)
    if len(via_cop) != len(direct) or not all(
            _proportional_fn(a, b) for a, b in zip(via_cop, direct)):
        raise CrossCheckMismatch(
            f"{ctx.pres.name}: right cointegrals via the coopposite algebra "
            f"disagree with the direct relation")
    return via_cop


def _proportional_fn(a: Functional, b: Functional) -> bool:
    pivot = next((i for i, c in enumerate(a.coords) if not c.is_zero()), None)
    pivot_b = next((i for i, c in enumerate(b.coords) if not c.is_zero()), None)
    if pivot is None or pivot_b is None:
        return pivot == pivot_b
    if pivot != pivot_b:
        return False
    ratio = b.coords[pivot] / a.coords[pivot]
    return all((c * ratio) == d for c, d in zip(a.coords, b.coords))


def cointegral_residual(ctx, functional: Functional, side: str = "left") -> TensorElement:
    """Residual of the defining relation for a candidate cointegral; zero
    exactly when the functional satisfies it for every basis element."""
    pres = ctx.pres
    n = pres.dim
    lhs, rhs = (_left_coint_system(ctx) if side == "left"
                else _right_coint_direct_system(ctx))
    fns = ctx.lazy_functionals()
    for h_idx in range(n):
        binding = {"h": pres.basis_element(h_idx)}
        table = lhs.evaluate(ctx.ops, binding, fns) - rhs.evaluate(ctx.ops, binding, fns)
        residual = contract(functional, table, 0)
        if not residual.is_zero():
            return residual
    return TensorElement.zero(1, n)


def compute_cointegral_data(ctx) -> CointegralData:
    pres = ctx.pres
    left = cointegral_space(ctx, "left")
    right = cointegral_space(ctx, "right")
    if len(left) != 1 or len(right) != 1:
        raise DimensionNotOne(
            f"{pres.name}: cointegral spaces have dimensions "
            f"{len(left)}/{len(right)}, expected 1/1")
    t = ctx.t
    lam0, big0 = left[0], right[0]
    scale = lam0(ctx.s_inv.apply(t))
    if scale.is_zero():
        raise DegeneratePairing(f"{pres.name}: lambda(Si(t)) = 0")
    lam = lam0.scale(scale.inverse())
    scale_r = big0(pres.antipode.apply(t))
    if scale_r.is_zero():
        raise DegeneratePairing(f"{pres.name}: Lambda(S(t)) = 0")
    big_lam = big0.scale(scale_r.inverse())

    fns = {"lam": lam}
    g_mod = Expression({"q": ctx.q_r, "t": t, "p": ctx.p_r},
                       [Fn("lam", Si(r("q", 2), r("t", 1, 2), r("p", 2))),
                        Leg(Si(r("q", 1), r("t", 1, 1), r("p", 1)))]
                       ).evaluate(ctx.ops, None, fns)
    g_inv = Expression({"q": ctx.q_r, "t": t, "p": ctx.p_r},
                       [Fn("lam", r("q", 1), r("t", 1, 1), r("p", 1)),
                        Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))]
                       ).evaluate(ctx.ops, None, fns)
    if pres.multiply(g_mod, g_inv) != pres.unit or pres.multiply(g_inv, g_mod) != pres.unit:
        raise DegeneratePairing(f"{pres.name}: modular element is not invertible")
    return CointegralData(left_basis=lam, right_basis=big_lam,
                          g_modular=g_mod, g_modular_inv=g_inv)


def normalize_pair(ctx) -> tuple[Functional, TensorElement, Functional]:
    """(lambda, t) with lambda(Si(t)) = 1 and (Lambda, t) with Lambda(S(t)) = 1."""
    ctx = _ctx_of(ctx)
    return ctx.lam, ctx.t, ctx.big_lam


def modular_element_g(ctx) -> tuple[TensorElement, TensorElement]:
    ctx = _ctx_of(ctx)
    data = ctx.cointegral_data
    return data.g_modular, data.g_modular_inv


def comparison_elements(ctx) -> ComparisonElements:
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    u = Expression({"V": ctx.v_cap},
                   [Fn("mu", r("V", 1)), Leg(op("S2", r("V", 2)))]).evaluate(
                       ctx.ops, None, ctx.lazy_functionals())
    u_inv = Expression({"q": ctx.q_r, "g": ctx.f_inv},
                       [Fn("mui", r("q", 1, 2), r("g", 2), S(r("q", 2))),
                        Leg(S(r("q", 1, 1), r("g", 1)))]).evaluate(
                            ctx.ops, None, ctx.lazy_functionals())
    if pres.multiply(u, u_inv) != pres.unit or pres.multiply(u_inv, u) != pres.unit:
        raise FrobeniusCheckFailed(f"{pres.name}: u * u_inv != 1")
    scalar = ctx.mu_inv(ctx.g_mod) * ctx.mu(pres.beta)
    v_base = Expression({"p": ctx.p_r, "f": ctx.f},
                        [Fn("mu", S(r("p", 2)), r("f", 1)),
                         Leg(S(r("p", 1)), r("f", 2))]).evaluate(
                             ctx.ops, None, ctx.lazy_functionals())
    v = v_base.scale(scalar.inverse())
    vi_base = Expression({"q": ctx.q_r, "g": ctx.f_inv, "be": pres.beta},
                         [Fn("mu", r("be"), r("q", 2), r("g", 1), S(r("q", 1, 2))),
                          Leg(r("g", 2), S(r("q", 1, 1)))]).evaluate(
                              ctx.ops, None, ctx.lazy_functionals())
    v_inv = vi_base.scale(ctx.mu_inv(ctx.g_mod))
    if pres.multiply(v, v_inv) != pres.unit or pres.multiply(v_inv, v) != pres.unit:
        raise FrobeniusCheckFailed(f"{pres.name}: v * v_inv != 1")
    d = Expression({"pl": ctx.p_l},
                   [Fn("mui", r("pl", 1)), Leg(op("Si2", r("pl", 2)))]).evaluate(
                       ctx.ops, None, ctx.lazy_functionals())
    return ComparisonElements(u=u, u_inv=u_inv, v=v, v_inv=v_inv, d=d)


# -- Frobenius systems ---------------------------------------------------------------


def _compose_functional(ctx, f: Functional, operator: LinearOperator) -> Functional:
    return Functional([f(operator.apply(ctx.pres.basis_element(i)))
                       for i in range(ctx.pres.dim)])


def frobenius_system(ctx, which: str = "left") -> FrobeniusSystem:
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    if which == "left":
        phi = _compose_functional(ctx, ctx.lam, ctx.s_inv)
        e = Expression({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r},
                       [Leg(r("q", 1), r("t", 1, 1), r("p", 1)),
                        Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))]).evaluate(ctx.ops)
    elif which == "cop":
        phi = ctx.big_lam
        e = Expression({"ql": ctx.q_l, "t": ctx.t, "pl": ctx.p_l},
                       [Leg(r("ql", 1), r("t", 1, 1), r("pl", 1)),
                        Leg(S(r("ql", 2), r("t", 1, 2), r("pl", 2)))]).evaluate(ctx.ops)
    elif which == "op":
        scale = ctx.lam(ctx.r)
        if scale.is_zero():
            raise DegeneratePairing(f"{pres.name}: lambda(r) = 0")
        lam_op = ctx.lam.scale(scale.inverse())
        phi = _compose_functional(ctx, lam_op, pres.antipode)
        d = ctx.comparison.d
        # transporting the opposite-algebra system back swaps the two legs
        # and lands the comparison element at the end of the first one
        e = Expression({"q": ctx.q_r, "rr": ctx.r, "p": ctx.p_r, "d": d},
                       [Leg(Si(r("q", 2), r("rr", 1, 2), r("p", 2)), r("d")),
                        Leg(r("q", 1), r("rr", 1, 1), r("p", 1))]).evaluate(ctx.ops)
    else:
        raise ValueError(f"unknown Frobenius system {which!r}")
    chi_cols, chi_inv_cols = [], []
    for i in range(pres.dim):
        e_i = pres.basis_element(i)
        acc = TensorElement.zero(1, pres.dim)
        acc_inv = TensorElement.zero(1, pres.dim)
        for (a, b), value in e.entries.items():
            c = phi(pres.multiply(TensorElement.basis(pres.dim, a), e_i))
            if not c.is_zero():
                acc = acc + TensorElement.basis(pres.dim, b).scale(value * c)
            c2 = phi(pres.multiply(e_i, TensorElement.basis(pres.dim, b)))
            if not c2.is_zero():
                acc_inv = acc_inv + TensorElement.basis(pres.dim, a).scale(value * c2)
        chi_cols.append(acc)
        chi_inv_cols.append(acc_inv)
    chi = LinearOperator(pres.dim, chi_cols)
    chi_inv = LinearOperator(pres.dim, chi_inv_cols)
    return FrobeniusSystem(phi=phi, e=e, nakayama=chi, nakayama_inv=chi_inv)


def verify_frobenius(ctx, system: FrobeniusSystem, label: str) -> VerificationReport:
    from .context import _mult_operator
    pres = ctx.pres
    report = VerificationReport(pres.name)
    witness = None
    for i in range(pres.dim):
        a = pres.basis_element(i)
        # a e1 x e2 vs e1 x e2 a, computed leg-wise
        lhs = apply_on_leg(_mult_operator(pres, a, side="left"), system.e, 0)
        rhs = apply_on_leg(_mult_operator(pres, a, side="right"), system.e, 1)
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"frobenius:{label}:centrality", witness is None, witness)
    report.check_zero(f"frobenius:{label}:phi(e1)e2=1",
                      contract(system.phi, system.e, 0) - pres.unit)
    report.check_zero(f"frobenius:{label}:phi(e2)e1=1",
                      contract(system.phi, system.e, 1) - pres.unit)
    ident = LinearOperator.identity(pres.dim)
    report.add(f"frobenius:{label}:nakayama-invertible",
               system.nakayama.compose(system.nakayama_inv) == ident
               and system.nakayama_inv.compose(system.nakayama) == ident)
    # a -> phi = phi <- chi(a) on every basis element
    witness = None
    for i in range(pres.dim):
        a = pres.basis_element(i)
        lhs = Functional([system.phi(pres.multiply(pres.basis_element(j), a))
                          for j in range(pres.dim)])
        chi_a = system.nakayama.apply(a)
        rhs = Functional([system.phi(pres.multiply(chi_a, pres.basis_element(j)))
                          for j in range(pres.dim)])
        if lhs != rhs:
            witness = lhs - rhs
            break
    report.add(f"frobenius:{label}:nakayama-shift", witness is None, witness)
    return report


def nakayama_report(ctx) -> VerificationReport:
    """The closed forms of the Nakayama automorphism and its inverse, plus
    the uniqueness transfer between the left and coopposite systems."""
    pres = ctx.pres
    report = VerificationReport(pres.name)
    left = ctx.frobenius("left")
    # chi(h) = mu(h1) S^2(h2), column by column
    closed = Expression({"h": VAR},
                        [Fn("mu", r("h", 1, 1)), Leg(op("S2", r("h", 1, 2)))]
                        ).evaluate(ctx.ops, None, ctx.lazy_functionals())
    witness = None
    for i in range(pres.dim):
        expected = TensorElement(
            1, pres.dim,
            {(m,): closed.coeff(i, m) for m in range(pres.dim)})
        if expected != left.nakayama.columns[i]:
            witness = expected - left.nakayama.columns[i]
            break
    report.add("nakayama:closed-form", witness is None, witness)

    # chi^-1(h) = mu(Si(u h u^-1)_2) Si(Si(u h u^-1)_1)
    conj_cols = [ctx.s_inv.apply(
        pres.multiply(pres.multiply(ctx.u_el, pres.basis_element(i)), ctx.u_inv))
        for i in range(pres.dim)]
    conj = LinearOperator(pres.dim, conj_cols)
    ops = ctx.ops.with_extra(operators={"C": conj})
    closed_inv = Expression({"h": VAR},
                            [Fn("mu", r("h", 1, "C", 2)),
                             Leg(r("h", 1, "C", 1, "Si"))]).evaluate(
                                 ops, None, ctx.lazy_functionals())
    witness = None
    for i in range(pres.dim):
        expected = TensorElement(
            1, pres.dim,
            {(m,): closed_inv.coeff(i, m) for m in range(pres.dim)})
        if expected != left.nakayama_inv.columns[i]:
            witness = expected - left.nakayama_inv.columns[i]
            break
    report.add("nakayama:inverse-closed-form", witness is None, witness)

    # transferring the left system to the coopposite one reproduces u
    transfer = contract(left.phi, ctx.frobenius("cop").e, 0)
    report.check_zero("frobenius:transfer-is-u", transfer - ctx.u_el)
    return report


# -- antipode images of integrals -------------------------------------------------------


def antipode_on_integrals(ctx) -> tuple[VerificationReport, dict[str, TensorElement]]:
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    report = VerificationReport(pres.name)
    fns = ctx.lazy_functionals()
    base_t = Expression({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r},
                        [Fn("mu", r("q", 2), r("t", 1, 2), r("p", 2)),
                         Leg(r("q", 1), r("t", 1, 1), r("p", 1))]).evaluate(
                             ctx.ops, None, fns)
    base_r = Expression({"q": ctx.q_r, "rr": ctx.r, "p": ctx.p_r},
                        [Fn("mui", r("q", 2), r("rr", 1, 2), r("p", 2)),
                         Leg(r("q", 1), r("rr", 1, 1), r("p", 1))]).evaluate(
                             ctx.ops, None, fns)
    mu_beta = ctx.mu(pres.beta)
    mui_g = ctx.mu_inv(ctx.g_mod)
    mu_ab = ctx.mu(pres.multiply(pres.alpha, pres.beta))
    mu_alpha = ctx.mu(pres.alpha)
    images = {
        "S(t)": base_t.scale(mu_beta.inverse()),
        "Si(t)": base_t.scale(mui_g),
        "S(r)": base_r.scale((mui_g * mu_ab).inverse()),
        "Si(r)": base_r.scale(mu_alpha.inverse()),
    }
    report.check_zero("antipode:S(t)", pres.antipode.apply(ctx.t) - images["S(t)"])
    report.check_zero("antipode:Si(t)", ctx.s_inv.apply(ctx.t) - images["Si(t)"])
    report.check_zero("antipode:S(r)", pres.antipode.apply(ctx.r) - images["S(r)"])
    report.check_zero("antipode:Si(r)", ctx.s_inv.apply(ctx.r) - images["Si(r)"])
    square_scalar = (mui_g * mu_beta).inverse()
    s2 = ctx.s_squared
    report.check_zero("antipode:S2(t)", s2.apply(ctx.t) - ctx.t.scale(square_scalar))
    report.check_zero("antipode:S2(r)", s2.apply(ctx.r) - ctx.r.scale(square_scalar))
    return report, images


# -- fourth power of the antipode ---------------------------------------------------------


def s4_suite(ctx, exhaustive: bool | None = None) -> VerificationReport:
    ctx = _ctx_of(ctx)
    from .canonical import evaluate_identity
    pres = ctx.pres
    report = VerificationReport(pres.name)
    report.check_zero("s4:equiv-version", evaluate_identity(ctx, "s4equivversion", exhaustive))
    s2 = ctx.s_squared
    s4 = s2.compose(s2)
    if is_unimodular(ctx):
        inner = ctx.inner_automorphism(pres.antipode.apply(ctx.g_mod))
        report.add("s4:inner-by-S(g)", s4 == inner,
                   None if s4 == inner else "S^4 differs from Inn_{S(g)}")
        if _proportional_fn(ctx.lam, ctx.big_lam):
            ident = LinearOperator.identity(pres.dim)
            report.add("s4:identity", s4 == ident,
                       None if s4 == ident else "S^4 is not the identity")
    return report


def s4_display_readings(ctx) -> dict[str, bool | None]:
    """The two candidate readings of the inverse twist-functional in the
    fourth-power relation; ``None`` means the candidate is not even defined
    (the element is not invertible)."""
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    fns = ctx.lazy_functionals()
    f_mu = Expression({"f": ctx.f},
                      [Fn("mu", r("f", 1)), Leg(r("f", 2))]).evaluate(ctx.ops, None, fns)
    reading_b = Expression({"g": ctx.f_inv},
                           [Fn("mui", r("g", 1)), Leg(r("g", 2))]).evaluate(
                               ctx.ops, None, fns)
    results: dict[str, bool | None] = {}
    try:
        from .context import _mult_operator
        left = _mult_operator(pres, f_mu, side="left")
        f_mu_inv = invert_operator(left).apply(pres.unit)
    except Exception:
        f_mu_inv = None
    s2 = ctx.s_squared
    s3 = s2.compose(pres.antipode)
    s4 = s2.compose(s2)
    ops = ctx.ops.with_extra(operators={"S4": s4})
    lhs = Expression({"h": VAR},
                     [Fn("mu", r("h", 1, 1)), Fn("mui", r("h", 1, 2, 2)),
                      Leg(op("S4", r("h", 1, 2, 1)))]).evaluate(ops, None, fns)
    s_g = pres.antipode.apply(ctx.g_mod)
    s_g_inv = pres.antipode.apply(ctx.g_mod_inv)
    d_const = s3.apply(f_mu)
    for label, candidate in (("reading-a", f_mu_inv), ("reading-b", reading_b)):
        if candidate is None:
            results[label] = None
            continue
        a_const = s3.apply(candidate)
        rhs = Expression({"h": VAR, "A": a_const, "B": s_g, "C": s_g_inv, "D": d_const},
                         [Leg(r("A"), r("B"), r("h"), r("C"), r("D"))]).evaluate(
                             ctx.ops, None, fns)
        results[label] = (lhs - rhs).is_zero()
    return results


# -- characterization of cointegrals --------------------------------------------------------


def _line_matches(ctx, solutions: list[Functional], reference: Functional) -> bool:
    return len(solutions) == 1 and _proportional_fn(solutions[0], reference)


def _condition_systems(ctx) -> dict[str, tuple[Expression, Expression, bool]]:
    """Single-condition linear systems for the equivalent characterizations;
    the boolean marks systems quantified over h."""
    pres = ctx.pres
    base = {"t": ctx.t, "p": ctx.p_r, "q": ctx.q_r,
            "pl": ctx.p_l, "ql": ctx.q_l,
            "be": pres.beta, "be2": pres.beta,
            "al": pres.alpha, "al2": pres.alpha}

    def pick(names: str, extra: dict | None = None) -> dict:
        out = {n: base[n] for n in names.split()}
        if extra:
            out.update(extra)
        return out

    return {
        "left-ii": (
            Expression(pick("q t p"),
                       [Hole(r("q", 2), r("t", 1, 2), r("p", 2)),
                        Leg(r("q", 1), r("t", 1, 1), r("p", 1))]),
            Expression(pick("be t"),
                       [Fn("mu", r("be")), Hole(r("t")), Leg()]),
            False),
        "left-iii": (
            Expression(pick("t p"),
                       [Hole(r("t", 1, 2), r("p", 2)),
                        Leg(r("t", 1, 1), r("p", 1))]),
            Expression(pick("be t be2"),
                       [Fn("mu", r("be")), Hole(r("t")), Leg(r("be2"))]),
            False),
        "left-iv": (
            Expression(pick("t p", {"h": VAR}),
                       [Hole(r("h"), r("t", 1, 2), r("p", 2)),
                        Leg(r("t", 1, 1), r("p", 1))]),
            Expression(pick("be t be2", {"h": VAR}),
                       [Fn("mu", r("be")), Hole(r("t")),
                        Leg(r("be2"), S(r("h")))]),
            True),
        # The right-hand conditions are the left ones transported through the
        # coopposite algebra, which turns the beta-scalars into mui(beta) and
        # Si(beta); checked exactly on every built-in example.
        "right-i": (
            Expression(pick("ql t pl"),
                       [Hole(r("ql", 1), r("t", 1, 1), r("pl", 1)),
                        Leg(r("ql", 2), r("t", 1, 2), r("pl", 2))]),
            Expression(pick("be t"),
                       [Fn("mui", r("be")), Hole(r("t")), Leg()]),
            False),
        "right-ii": (
            Expression(pick("t pl"),
                       [Hole(r("t", 1, 1), r("pl", 1)),
                        Leg(r("t", 1, 2), r("pl", 2))]),
            Expression(pick("be t be2"),
                       [Fn("mui", r("be")), Hole(r("t")), Leg(Si(r("be2")))]),
            False),
        "right-iii": (
            Expression(pick("t pl", {"h": VAR}),
                       [Hole(r("h"), r("t", 1, 1), r("pl", 1)),
                        Leg(r("t", 1, 2), r("pl", 2))]),
            Expression(pick("be t be2", {"h": VAR}),
                       [Fn("mui", r("be")), Hole(r("t")),
                        Leg(Si(r("h"), r("be2")))]),
            True),
    }


def solve_condition(ctx, name: str) -> list[Functional]:
    """Solve one single-condition characterization as a linear system."""
    lhs, rhs, quantified = _condition_systems(ctx)[name]
    pres = ctx.pres
    n = pres.dim
    fns = ctx.lazy_functionals()

    def rows():
        bindings_list = ([{"h": pres.basis_element(i)} for i in range(n)]
                         if quantified else [{}])
        for binding in bindings_list:
            table = lhs.evaluate(ctx.ops, binding, fns) - rhs.evaluate(ctx.ops, binding, fns)
            for m in range(n):
                yield [table.coeff(a, m) for a in range(n)]

    return [Functional(vec) for vec in solve_constraints(rows(), n)]


def characterization_suite(ctx, exhaustive: bool | None = None) -> VerificationReport:
    """Every equivalent characterization, evaluated on the actual cointegrals
    and re-solved as an independent system whose line must be the solver's."""
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    report = VerificationReport(pres.name)
    fns = ctx.lazy_functionals()
    systems = _condition_systems(ctx)
    for name, (lhs, rhs, quantified) in systems.items():
        functional = ctx.lam if name.startswith("left") else ctx.big_lam
        hole_fill = {"lam-fill": functional}
        witness = None
        bindings_list = ([{"h": pres.basis_element(i)} for i in range(pres.dim)]
                         if quantified else [{}])
        for binding in bindings_list:
            table = (lhs.evaluate(ctx.ops, binding, fns)
                     - rhs.evaluate(ctx.ops, binding, fns))
            # contract the hole leg with the actual cointegral
            residual = contract(functional, table, 0)
            if not residual.is_zero():
                witness = residual
                break
        report.add(f"characterization:{name}", witness is None, witness)
        solved = solve_condition(ctx, name)
        reference = ctx.lam if name.startswith("left") else ctx.big_lam
        report.add(f"characterization:{name}:line", _line_matches(ctx, solved, reference),
                   None if _line_matches(ctx, solved, reference)
                   else f"solution space has dimension {len(solved)}")
    from .canonical import evaluate_identity
    report.check_zero("characterization:qqt-left", evaluate_identity(ctx, "qqt-left"))
    report.check_zero("characterization:qqt-right", evaluate_identity(ctx, "qqt-right"))
    if is_unimodular(ctx):
        lhs = Expression({"t": ctx.t},
                         [Fn("lam", r("t", 1, 2)), Leg(r("t", 1, 1))]).evaluate(
                             ctx.ops, None, fns)
        rhs = Expression({"t": ctx.t, "be": pres.beta, "al": pres.alpha},
                         [Fn("lam", r("t")), Leg(r("be"), r("al"))]).evaluate(
                             ctx.ops, None, fns)
        report.check_zero("characterization:unimodular-shortcut", lhs - rhs)
    return report


# -- dual coactions and the Frobenius isomorphism ---------------------------------------------


def dual_coactions(ctx) -> tuple[TensorElement, TensorElement]:
    """Coordinate tables of the two coactions on the dual:

    * left table  T[i, a, m]: the left coaction sends e^a to
      sum T[i, a, m] e_m x e^i  in H x H*;
    * right table R[i, a, m]: the right coaction sends e^a to
      sum R[i, a, m] e^i x e_m  in H* x H.

    Both are built from the twist/p/q combinations directly (pre-merged into
    constant pairs), independently of the solver's own combinations.
    """
    ctx = _ctx_of(ctx)
    pair_a, pair_b = ctx._get("rc_pairs", lambda: _rc_pairs(ctx))
    left = Expression({"ei": VAR, "A": pair_a, "B": pair_b},
                      [VarIdx("ei"),
                       Hole(r("A", 1), r("ei", 1, 1), r("B", 1)),
                       Leg(r("A", 2), r("ei", 1, 2), r("B", 2))]).evaluate(ctx.ops)
    pair_c = Expression({"f": ctx.f, "p": ctx.p_r},
                        [Leg(Si(r("f", 1), r("p", 1))),
                         Leg(Si(r("f", 2), r("p", 2)))]).evaluate(ctx.ops)
    pair_d = Expression({"g": ctx.f_inv, "q": ctx.q_r},
                        [Leg(r("g", 2), S(r("q", 1))),
                         Leg(r("g", 1), S(r("q", 2)))]).evaluate(ctx.ops)
    right = Expression({"ei": VAR, "C": pair_c, "D": pair_d},
                       [VarIdx("ei"),
                        Hole(r("C", 1), r("ei", 1, 2), r("D", 1)),
                        Leg(r("C", 2), r("ei", 1, 1), r("D", 2))]).evaluate(ctx.ops)
    return left, right


def coinvariants_via_rho(ctx) -> list[Functional]:
    """Solve the coinvariance condition directly from the right-coaction
    table (an independent code path from the cointegral solver)."""
    pres = ctx.pres
    n = pres.dim
    _, rho = dual_coactions(ctx)
    _, rhs_expr = _left_coint_system(ctx)
    fns = ctx.lazy_functionals()

    def rows():
        for h_idx in range(n):
            rhs = rhs_expr.evaluate(ctx.ops, {"h": pres.basis_element(h_idx)}, fns)
            for m in range(n):
                yield [rho.coeff(h_idx, a, m) - rhs.coeff(a, m) for a in range(n)]

    return [Functional(vec) for vec in solve_constraints(rows(), n)]


def coaction_report(ctx) -> VerificationReport:
    pres = ctx.pres
    n = pres.dim
    report = VerificationReport(pres.name)
    via_rho = coinvariants_via_rho(ctx)
    ok = _line_matches(ctx, via_rho, ctx.lam)
    report.add("coaction:rho-coinvariants-equal-left-cointegrals", ok,
               None if ok else f"coinvariant space dimension {len(via_rho)}")
    # the left coaction applied to the right cointegral reproduces the
    # direct right-cointegral relation
    left_table, _ = dual_coactions(ctx)
    applied_all = contract(ctx.big_lam, left_table, 1)
    lhs_expr, rhs_expr = _right_coint_direct_system(ctx)
    fns = ctx.lazy_functionals()
    witness = None
    for h_idx in range(n):
        applied = contract(Functional.dual_basis(n, h_idx), applied_all, 0)
        rhs = rhs_expr.evaluate(ctx.ops, {"h": pres.basis_element(h_idx)}, fns)
        expected = contract(ctx.big_lam, rhs, 0)
        if applied != expected:
            witness = applied - expected
            break
    report.add("coaction:left-applied-to-right-cointegral", witness is None, witness)
    return report


def xi_operator(ctx) -> LinearOperator:
    """The Frobenius isomorphism from the dual to the algebra,
    xi(h^*) = h^*(S(q2 t2 p2)) q1 t1 p1, as a dim x dim matrix on
    dual-basis coordinates."""
    table = Expression({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r},
                       [Hole(S(r("q", 2), r("t", 1, 2), r("p", 2))),
                        Leg(r("q", 1), r("t", 1, 1), r("p", 1))]).evaluate(ctx.ops)
    n = ctx.pres.dim
    cols = [TensorElement(1, n, {(m,): table.coeff(a, m) for m in range(n)})
            for a in range(n)]
    return LinearOperator(n, cols)


def xi_report(ctx) -> VerificationReport:
    pres = ctx.pres
    n = pres.dim
    report = VerificationReport(pres.name)
    xi = xi_operator(ctx)
    phi = _compose_functional(ctx, ctx.lam, ctx.s_inv)
    # claimed inverse: h |-> h -> (lam o Si), i.e. coords a of the functional
    inv_cols = []
    for j in range(n):
        e_j = pres.basis_element(j)
        coords = [phi(pres.multiply(pres.basis_element(a), e_j)) for a in range(n)]
        inv_cols.append(TensorElement.vector(coords))
    xi_inv = LinearOperator(n, inv_cols)
    ident = LinearOperator.identity(n)
    ok = xi.compose(xi_inv) == ident and xi_inv.compose(xi) == ident
    report.add("xi:bijective-with-stated-inverse", ok)
    report.add("xi:normalization", xi_inv.apply(pres.unit) ==
               TensorElement.vector(list(phi.coords)) and
               xi.apply(TensorElement.vector(list(phi.coords))) == pres.unit)
    return report


def s_mu_operator(ctx) -> LinearOperator:
    """S_mu(h) := mu(S(h)_1) S(h)_2."""
    table = Expression({"h": VAR},
                       [Fn("mu", r("h", 1, "S", 1)), Leg(r("h", 1, "S", 2))]
                       ).evaluate(ctx.ops, None, ctx.lazy_functionals())
    n = ctx.pres.dim
    cols = [TensorElement(1, n, {(m,): table.coeff(i, m) for m in range(n)})
            for i in range(n)]
    return LinearOperator(n, cols)


# -- umbrella report ---------------------------------------------------------------------------


def integral_report(ctx, exhaustive: bool | None = None) -> VerificationReport:
    ctx = _ctx_of(ctx)
    pres = ctx.pres
    n = pres.dim
    report = VerificationReport(pres.name)
    data = ctx.integral_data
    report.add("integrals:left-dimension-one", True)
    report.add("integrals:right-dimension-one", True)

    witness = None
    for i in range(n):
        h = pres.basis_element(i)
        if pres.multiply(ctx.t, h) != ctx.t.scale(ctx.mu(h)):
            witness = pres.multiply(ctx.t, h) - ctx.t.scale(ctx.mu(h))
            break
    report.add("integrals:t*h=mu(h)t", witness is None, witness)
    witness = None
    for i in range(n):
        h = pres.basis_element(i)
        if pres.multiply(h, ctx.r) != ctx.r.scale(ctx.mu_inv(h)):
            witness = pres.multiply(h, ctx.r) - ctx.r.scale(ctx.mu_inv(h))
            break
    report.add("integrals:h*r=mui(h)r", witness is None, witness)

    witness = None
    for i in range(n):
        for j in range(n):
            prod = pres.multiply(pres.basis_element(i), pres.basis_element(j))
            if ctx.mu(prod) != ctx.mu(pres.basis_element(i)) * ctx.mu(pres.basis_element(j)):
                witness = ctx.mu(prod) - ctx.mu(pres.basis_element(i)) * ctx.mu(pres.basis_element(j))
                break
        if witness is not None:
            break
    report.add("integrals:mu-is-algebra-map", witness is None, witness)

    mu_si = _compose_functional(ctx, ctx.mu, ctx.s_inv)
    report.add("integrals:mui=mu.S=mu.Si",
               data.mu_inv == mu_si and data.mu_inv ==
               _compose_functional(ctx, ctx.mu, pres.antipode))
    conv_ok = True
    for i in range(n):
        d = pres.coproduct.apply(pres.basis_element(i))
        expected = pres.counit(pres.basis_element(i))
        if (ctx.mu(contract(ctx.mu_inv, d, 1)) != expected
                or ctx.mu_inv(contract(ctx.mu, d, 1)) != expected):
            conv_ok = False
            break
    report.add("integrals:mu-convolution-inverse", conv_ok)

    from .canonical import evaluate_identity
    report.check_zero("integrals:mu(ab)mui(ab)=1", evaluate_identity(ctx, "mumuinv"))

    unimod = is_unimodular(ctx)
    spans_equal = _proportional_el(ctx.t, ctx.r)
    report.add("integrals:unimodular-iff-mu-is-eps", unimod == spans_equal,
               None if unimod == spans_equal else
               f"mu==eps is {unimod} but span equality is {spans_equal}")

    report.add("cointegrals:lambda(Si(t))=1",
               ctx.lam(ctx.s_inv.apply(ctx.t)) == ONE)
    report.add("cointegrals:mu(beta)lambda(t)=1",
               ctx.mu(pres.beta) * ctx.lam(ctx.t) == ONE)
    report.add("cointegrals:Lambda(S(t))=1",
               ctx.big_lam(pres.antipode.apply(ctx.t)) == ONE)
    report.add("cointegrals:lambda(r)!=0", not ctx.lam(ctx.r).is_zero())

    report.extend(characterization_suite(ctx, exhaustive))

    gmod, gmod_inv = ctx.g_mod, ctx.g_mod_inv
    report.check_zero("modular:g*ginv", pres.multiply(gmod, gmod_inv) - pres.unit)
    report.check_zero("modular:lam-Si", evaluate_identity(ctx, "firstRad-fn", exhaustive))
    report.check_zero("modular:lam-Sm2", evaluate_identity(ctx, "lamSm2", exhaustive))
    report.check_zero("modular:lamSi=Lam<-u", evaluate_identity(ctx, "qtr-fn", exhaustive))
    report.check_zero("modular:lamS=Lam<-v", evaluate_identity(ctx, "lamS-v", exhaustive))
    if _proportional_fn(ctx.lam, ctx.big_lam):
        scalar = ctx.mu(pres.beta) * ctx.mu_inv(pres.beta).inverse()
        report.check_zero("modular:g=mu(beta)mui(beta)^-1 u",
                          gmod - ctx.u_el.scale(scalar))

    left_sys = ctx.frobenius("left")
    report.extend(verify_frobenius(ctx, left_sys, "left"))
    report.extend(verify_frobenius(ctx, ctx.frobenius("cop"), "cop"))
    report.extend(verify_frobenius(ctx, ctx.frobenius("op"), "op"))
    report.extend(nakayama_report(ctx))

    anti_report, _ = antipode_on_integrals(ctx)
    report.extend(anti_report)
    report.extend(s4_suite(ctx, exhaustive))
    report.extend(coaction_report(ctx))
    report.extend(xi_report(ctx))
    return report


def _proportional_el(a: TensorElement, b: TensorElement) -> bool:
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    key = min(a.entries)
    if min(b.entries) != key:
        return False
    ratio = b.entries[key] / a.entries[key]
    return b == a.scale(ratio)
