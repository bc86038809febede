"""Integrals, cointegrals, modular data, Frobenius systems and the
antipode-power laws.

Integral spaces are found as exact nullspaces of the defining linear
systems; cointegrals come from the full coinvariance relation (a system of
dim^2 scalar equations), with every shortcut characterization kept as an
independent cross-check rather than used for solving.  A relation that
must hold for every h leaves h a free variable: one evaluation of each side
gives a table whose first leg is h's index, and ``columns_of`` splits it
into one table per basis element, in basis order, which a row compares
(reading scalars with ``coeff``) or whose rows, read sparsely with
``columns_of`` again, go straight to ``multilinear.solve_constraints``.

Every expression is a formula in the grammar of :mod:`expr`, parsed when
this module is imported (:data:`FORMS`).  The letters are those of
``canonical.LETTERS``; the few others (pre-merged pairs, constants, a
Frobenius element) are declared with their number of legs beside the
formula that uses them.  The argument leg of an unknown functional, the
"hole" of a linear system, is an ordinary leg.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import _bind_all, _value, evaluate_identity, parse
from .exactnum import ONE, Scalar
from .expr import VAR, AlgebraOps, Expression
from .multilinear import (Functional, LinearOperator, SingularOperator, TensorElement,
                          columns_of, contract, invert_operator, multiplication_operator,
                          permute_legs, solve_constraints)
from .qha import _compose_functional
from .report import VerificationReport, first_difference


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


# -- the formulas ----------------------------------------------------------------

FORMS: dict[str, tuple[Expression, ...]] = {
    # the coinvariance relation of a left cointegral, with its hole leg
    "left-coint": parse("V2 h_2 U2 x V1 h_1 U1 = mu(x1) h S(x2) x x3"),
    # the direct relation of a right cointegral over the pre-merged pairs
    # A = S(pl2) f1 x S(pl1) f2 and B = Si(ql2 g2) x Si(ql1 g1)
    "right-coint": parse("A1 h_1 B1 x A2 h_2 B2 = mu(X3) h Si(X2) x X1", A=2, B=2),
    "pair-A": parse("S(pl2) f1 x S(pl1) f2"),
    "pair-B": parse("Si(ql2 g2) x Si(ql1 g1)"),
    # the right coaction over the pre-merged pairs C and D
    "rho": parse("C1 h_2 D1 x C2 h_1 D2", C=2, D=2),
    "pair-C": parse("Si(f1 p1) x Si(f2 p2)"),
    "pair-D": parse("g2 S(q1) x g1 S(q2)"),
    # the modular element and its inverse, from lambda
    "gmod": parse("lam(Si(q2 t_2 p2)) Si(q1 t_1 p1)"),
    "gmod^-1": parse("lam(q1 t_1 p1) S(q2 t_2 p2)"),
    # the comparison elements, before their scalars
    "u": parse("mu(V1) S2(V2)"),
    "u^-1": parse("mui(q1_2 g2 S(q2)) S(q1_1 g1)"),
    "v": parse("mu(S(p2) f1) S(p1) f2"),
    "v^-1": parse("mu(beta q2 g1 S(q1_2)) g2 S(q1_1)"),
    "d": parse("mui(pl1) Si2(pl2)"),
    # the Frobenius elements e; d is the comparison element mui(pl1) Si2(pl2)
    "e-left": parse("q1 t_1 p1 x S(q2 t_2 p2)"),
    "e-cop": parse("ql1 t_1 pl1 x S(ql2 t_2 pl2)"),
    "e-op": parse("Si(q2 r_2 p2) d x q1 r_1 p1", d=1),
    # the Nakayama automorphism and its inverse, mu(C(h)_2) Si(C(h)_1) with
    # C(h) = Si(u h u^-1) = Si(u^-1) Si(h) Si(u)
    "nakayama": parse("mu(h_1) S2(h_2)"),
    "nakayama^-1": parse("mu(Si(u^-1)_2 Si(h)_2 Si(u)_2) Si(Si(u^-1)_1 Si(h)_1 Si(u)_1)"),
    # the antipode images of t and r, before their scalars
    "S(t)": parse("mu(q2 t_2 p2) q1 t_1 p1"),
    "S(r)": parse("mui(q2 r_2 p2) q1 r_1 p1"),
    # the fourth-power relation, S^4 = S2(S2( )); A, B, C, D are the
    # constant factors of its right side
    "f-mu": parse("mu(f1) f2"),
    "reading-b": parse("mui(g1) g2"),
    "S4": parse("mu(h_1) mui(h_22) S2(S2(h_21))"),
    "S4-rhs": parse("A B h C D", A=1, B=1, C=1, D=1),
    # the single-condition characterizations of cointegrals.  The right-hand
    # ones are the left ones transported through the coopposite algebra,
    # which turns the beta-scalars into mui(beta) and Si(beta); checked
    # exactly on every built-in example.
    "left-ii": parse("q2 t_2 p2 x q1 t_1 p1 = mu(beta) t x 1"),
    "left-iii": parse("t_2 p2 x t_1 p1 = mu(beta) t x beta'"),
    "left-iv": parse("h t_2 p2 x t_1 p1 = mu(beta) t x beta' S(h)"),
    "right-i": parse("ql1 t_1 pl1 x ql2 t_2 pl2 = mui(beta) t x 1"),
    "right-ii": parse("t_1 pl1 x t_2 pl2 = mui(beta) t x Si(beta')"),
    "right-iii": parse("h t_1 pl1 x t_2 pl2 = mui(beta) t x Si(h beta')"),
    "unimodular-shortcut": parse("lam(t_2) t_1 = lam(t) beta alpha"),
    # the Frobenius isomorphism, with the dual-basis coordinate as its hole
    "xi": parse("S(q2 t_2 p2) x q1 t_1 p1"),
    "S_mu": parse("mu(S(h)_1) S(h)_2"),
    # the integral spaces, with the candidate integral on h'
    "integral-left": parse("h h' = eps(h) h'"),
    "integral-right": parse("h' h = eps(h) h'"),
    # the rows of integral_report on the integrals and mu
    "t*h": parse("t h = mu(h) t"),
    "h*r": parse("h r = mui(h) r"),
    "mu-algebra-map": parse("mu(h h') = mu(h) mu(h')"),
    "mu-convolution": parse("mu(h_1) mui(h_2) = mui(h_1) mu(h_2) = eps(h)"),
    # a Frobenius system (phi, E), with phi bound to the letter lam: the
    # Nakayama automorphism chi(h) = (h -> phi)(E1) E2 and its inverse
    # (phi <- h)(E2) E1, the centrality of E and h -> phi = phi <- chi(h)
    "chi": parse("lam(E1 h) E2", E=2),
    "chi^-1": parse("lam(h E2) E1", E=2),
    "centrality": parse("h E1 x E2 = E1 x E2 h", E=2),
    "nakayama-shift": parse("lam(h' h) = lam(E1 h) lam(E2 h')", E=2),
    # the inverse of xi, h |-> h -> (lam o Si), on dual-basis coordinates h'
    "xi^-1": parse("lam(Si(h' h))"),
}
CONDITIONS = ("left-ii", "left-iii", "left-iv", "right-i", "right-ii", "right-iii")


# -- integrals -------------------------------------------------------------------


def _for_every_h(ctx, sides: tuple[Expression, ...], **tensors: TensorElement | Functional
                 ) -> list[tuple[TensorElement, ...]]:
    """Each side bound to ``ctx`` (and ``tensors``), evaluated once and split
    along the index leg of h: one tuple of sides per h, in basis order."""
    return list(zip(*(columns_of(side.evaluate(ctx.ops))
                      for side in _bind_all(ctx, sides, **tensors))))


def _nullspace(n: int, tables) -> list[list[Scalar]]:
    """The x with sum_a x_a table[a, m] = 0 for every m of every (a, m)
    table: row m of a table is one equation."""
    return solve_constraints((row for table in tables
                              for row in columns_of(permute_legs(table, (1, 0)))), n)


def integral_space(pres, side: str) -> list[TensorElement]:
    """Basis of { t : h t = eps(h) t } (left) or { t : t h = eps(h) t }:
    one table [t-coordinate, m] of equations per basis element h."""
    ops = AlgebraOps(pres.dim, pres.mult, pres.unit, pres.coproduct)
    lhs, rhs = (form.bind({"eps": pres.counit}).evaluate(ops)
                for form in FORMS[f"integral-{side}"])
    return [TensorElement.vector(vec) for vec in _nullspace(pres.dim, columns_of(lhs - rhs))]


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
    for prod in multiplication_operator(pres.mult, t, "left").columns:
        coords.append(prod.coeff(*anchor) / t.coeff(*anchor))
        # consistency across every coordinate of t
        if prod != t.scale(coords[-1]):
            raise DimensionNotOne(f"{pres.name}: t*h is not proportional to t")
    mu = Functional(coords)
    return IntegralData(left_basis=t, right_basis=right[0], mu=mu,
                        mu_inv=_compose_functional(mu, pres.antipode))


def is_unimodular(ctx) -> bool:
    return ctx.mu == ctx.pres.counit


# -- cointegrals -------------------------------------------------------------------


def _left_coint_system(ctx):
    """The coinvariance relation with a hole leg over the free variable h:
    each side evaluates to an (h, functional-argument, output-leg) table."""
    return _bind_all(ctx, FORMS["left-coint"])


def _rc_pairs(ctx) -> tuple[TensorElement, TensorElement]:
    """The constant two-leg combinations A and B of the right cointegral
    relation, pre-merged so the per-basis-h system stays small on large
    algebras."""
    return _value(ctx, *FORMS["pair-A"]), _value(ctx, *FORMS["pair-B"])


def _right_coint_direct_system(ctx):
    pair_a, pair_b = ctx._get("rc_pairs", lambda: _rc_pairs(ctx))
    return _bind_all(ctx, FORMS["right-coint"], A=pair_a, B=pair_b)


def _per_h(expr: Expression, table: TensorElement) -> list[TensorElement]:
    """``table`` split along the index leg of the variable h, in basis
    order, when ``expr`` has h; else ``table`` alone."""
    return columns_of(table) if expr.sources.get("h") == VAR else [table]


def _solve_hole_system(ctx, lhs: Expression, rhs: Expression) -> list[Functional]:
    """The functionals that make both sides agree, for every basis element
    h when the sides have the variable h: one evaluation per side, and one
    table of equations per h."""
    difference = lhs.evaluate(ctx.ops) - rhs.evaluate(ctx.ops)
    return [Functional(vec) for vec in _nullspace(ctx.pres.dim, _per_h(lhs, difference))]


def cointegral_space(ctx, side: str) -> list[Functional]:
    """Solver line of left (resp. right) cointegrals, solved once per
    context and side; right cointegrals come from the coopposite algebra
    and are cross-checked against the direct relation stated over the
    original structure maps."""
    return ctx._get(f"cointegral_space:{side}", lambda: _solve_cointegral_space(ctx, side))


def _solve_cointegral_space(ctx, side: str) -> list[Functional]:
    if side == "left":
        return _solve_hole_system(ctx, *_left_coint_system(ctx))
    via_cop = cointegral_space(ctx.variant_ctx("cop"), "left")
    direct = _solve_hole_system(ctx, *_right_coint_direct_system(ctx))
    if len(via_cop) != len(direct) or not all(
            _proportional_fn(a, b) for a, b in zip(via_cop, direct)):
        raise CrossCheckMismatch(
            f"{ctx.pres.name}: right cointegrals via the coopposite algebra "
            f"disagree with the direct relation")
    return via_cop


def _proportional_fn(a: Functional, b: Functional) -> bool:
    return _proportional_el(TensorElement.vector(a.coords), TensorElement.vector(b.coords))


def cointegral_residual(ctx, functional: Functional, side: str = "left") -> TensorElement:
    """Residual of the defining relation for a candidate cointegral at the
    first basis element h where it fails; zero exactly when the functional
    satisfies it for every basis element."""
    lhs, rhs = (_left_coint_system(ctx) if side == "left"
                else _right_coint_direct_system(ctx))
    witness = first_difference(_filled(ctx, lhs, rhs, functional), lambda pair: [pair])
    return TensorElement.zero(1, ctx.pres.dim) if witness is None else witness


def _filled(ctx, lhs: Expression, rhs: Expression,
            functional: Functional) -> list[tuple[TensorElement, TensorElement]]:
    """Both sides of a hole system with the hole leg paired against
    ``functional``: one pair per basis element h, in basis order, when the
    sides have the variable h, else one pair."""
    hole = 1 if lhs.sources.get("h") == VAR else 0
    return list(zip(*(_per_h(lhs, contract(functional, side.evaluate(ctx.ops), hole))
                      for side in (lhs, rhs))))


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

    # the context's own lam is what is being computed
    g_mod, g_inv = (_value(ctx, *FORMS[name], lam=lam) for name in ("gmod", "gmod^-1"))
    if pres.multiply(g_mod, g_inv) != pres.unit or pres.multiply(g_inv, g_mod) != pres.unit:
        raise DegeneratePairing(f"{pres.name}: modular element is not invertible")
    return CointegralData(left_basis=lam, right_basis=big_lam,
                          g_modular=g_mod, g_modular_inv=g_inv)


def comparison_elements(ctx) -> ComparisonElements:
    pres = ctx.pres
    u, u_inv = _value(ctx, *FORMS["u"]), _value(ctx, *FORMS["u^-1"])
    if pres.multiply(u, u_inv) != pres.unit or pres.multiply(u_inv, u) != pres.unit:
        raise FrobeniusCheckFailed(f"{pres.name}: u * u_inv != 1")
    scalar = ctx.mu_inv(ctx.g_mod) * ctx.mu(pres.beta)
    v = _value(ctx, *FORMS["v"]).scale(scalar.inverse())
    v_inv = _value(ctx, *FORMS["v^-1"]).scale(ctx.mu_inv(ctx.g_mod))
    if pres.multiply(v, v_inv) != pres.unit or pres.multiply(v_inv, v) != pres.unit:
        raise FrobeniusCheckFailed(f"{pres.name}: v * v_inv != 1")
    return ComparisonElements(u=u, u_inv=u_inv, v=v, v_inv=v_inv, d=_value(ctx, *FORMS["d"]))


# -- Frobenius systems ---------------------------------------------------------------


def frobenius_system(ctx, which: str = "left") -> FrobeniusSystem:
    pres = ctx.pres
    if which == "left":
        phi = _compose_functional(ctx.lam, ctx.s_inv)
        e = _value(ctx, *FORMS["e-left"])
    elif which == "cop":
        phi = ctx.big_lam
        e = _value(ctx, *FORMS["e-cop"])
    elif which == "op":
        scale = ctx.lam(ctx.r)
        if scale.is_zero():
            raise DegeneratePairing(f"{pres.name}: lambda(r) = 0")
        lam_op = ctx.lam.scale(scale.inverse())
        phi = _compose_functional(lam_op, pres.antipode)
        # transporting the opposite-algebra system back swaps the two legs
        # and lands the comparison element at the end of the first one
        e = _value(ctx, *FORMS["e-op"], d=ctx.comparison.d)
    else:
        raise ValueError(f"unknown Frobenius system {which!r}")
    chi, chi_inv = (LinearOperator(pres.dim, columns_of(side.evaluate(ctx.ops)))
                    for side in _bind_all(ctx, FORMS["chi"] + FORMS["chi^-1"], E=e, lam=phi))
    return FrobeniusSystem(phi=phi, e=e, nakayama=chi, nakayama_inv=chi_inv)


def verify_frobenius(ctx, system: FrobeniusSystem, label: str) -> VerificationReport:
    pres = ctx.pres
    report = VerificationReport(pres.name)
    report.check_all(f"frobenius:{label}:centrality",
                     _for_every_h(ctx, FORMS["centrality"], E=system.e), lambda pair: [pair])
    report.check_zero(f"frobenius:{label}:phi(e1)e2=1",
                      contract(system.phi, system.e, 0) - pres.unit)
    report.check_zero(f"frobenius:{label}:phi(e2)e1=1",
                      contract(system.phi, system.e, 1) - pres.unit)
    ident = LinearOperator.identity(pres.dim)
    report.add(f"frobenius:{label}:nakayama-invertible",
               system.nakayama.compose(system.nakayama_inv) == ident
               and system.nakayama_inv.compose(system.nakayama) == ident)
    report.check_all(f"frobenius:{label}:nakayama-shift",
                     _for_every_h(ctx, FORMS["nakayama-shift"], E=system.e, lam=system.phi),
                     lambda pair: [pair])
    return report


def nakayama_report(ctx) -> VerificationReport:
    """The closed forms of the Nakayama automorphism and its inverse, plus
    the uniqueness transfer between the left and coopposite systems."""
    pres = ctx.pres
    report = VerificationReport(pres.name)
    left = ctx.frobenius("left")
    # chi(h) = mu(h1) S^2(h2), column by column
    expected = columns_of(_value(ctx, *FORMS["nakayama"]))
    report.check_all("nakayama:closed-form", range(pres.dim),
                     lambda i: [(expected[i], left.nakayama.columns[i])])

    # chi^-1(h) = mu(Si(u h u^-1)_2) Si(Si(u h u^-1)_1)
    expected_inv = columns_of(_value(ctx, *FORMS["nakayama^-1"]))
    report.check_all("nakayama:inverse-closed-form", range(pres.dim),
                     lambda i: [(expected_inv[i], left.nakayama_inv.columns[i])])

    # transferring the left system to the coopposite one reproduces u
    transfer = contract(left.phi, ctx.frobenius("cop").e, 0)
    report.check_zero("frobenius:transfer-is-u", transfer - ctx.u_el)
    return report


# -- antipode images of integrals -------------------------------------------------------


def antipode_on_integrals(ctx) -> tuple[VerificationReport, dict[str, TensorElement]]:
    pres = ctx.pres
    report = VerificationReport(pres.name)
    base_t, base_r = _value(ctx, *FORMS["S(t)"]), _value(ctx, *FORMS["S(r)"])
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


def s4_suite(ctx) -> VerificationReport:
    pres = ctx.pres
    report = VerificationReport(pres.name)
    report.check_zero("s4:equiv-version", evaluate_identity(ctx, "s4equivversion"))
    s2 = ctx.s_squared
    s4 = s2.compose(s2)
    if is_unimodular(ctx):
        # Inn_S(g) = L_S(g) R_S(g)^-1, and S(g)^-1 = S(g^-1): S is a unital anti-morphism
        s_g, s_g_inv = (pres.antipode.apply(g) for g in (ctx.g_mod, ctx.g_mod_inv))
        inner = multiplication_operator(pres.mult, s_g, "left").compose(
            multiplication_operator(pres.mult, s_g_inv, "right"))
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
    pres = ctx.pres
    f_mu, reading_b = _value(ctx, *FORMS["f-mu"]), _value(ctx, *FORMS["reading-b"])
    results: dict[str, bool | None] = {}
    try:
        f_mu_inv = invert_operator(
            multiplication_operator(pres.mult, f_mu, "left")).apply(pres.unit)
    except SingularOperator:
        f_mu_inv = None
    s2 = ctx.s_squared
    s3 = s2.compose(pres.antipode)
    lhs = _value(ctx, *FORMS["S4"])
    s_g = pres.antipode.apply(ctx.g_mod)
    s_g_inv = pres.antipode.apply(ctx.g_mod_inv)
    d_const = s3.apply(f_mu)
    for label, candidate in (("reading-a", f_mu_inv), ("reading-b", reading_b)):
        if candidate is None:
            results[label] = None
            continue
        rhs = _value(ctx, *FORMS["S4-rhs"], A=s3.apply(candidate), B=s_g, C=s_g_inv, D=d_const)
        results[label] = (lhs - rhs).is_zero()
    return results


# -- characterization of cointegrals --------------------------------------------------------


def _line_matches(ctx, solutions: list[Functional], reference: Functional) -> bool:
    return len(solutions) == 1 and _proportional_fn(solutions[0], reference)


def _condition_systems(ctx) -> dict[str, tuple[Expression, Expression]]:
    """Single-condition linear systems for the equivalent characterizations;
    those of the form "for every h" have the variable h."""
    return {name: _bind_all(ctx, FORMS[name]) for name in CONDITIONS}


def solve_condition(ctx, name: str) -> list[Functional]:
    """Solve one single-condition characterization as a linear system."""
    return _solve_hole_system(ctx, *_bind_all(ctx, FORMS[name]))


def characterization_suite(ctx) -> VerificationReport:
    """Every equivalent characterization, evaluated on the actual cointegrals
    and re-solved as an independent system whose line must be the solver's."""
    pres = ctx.pres
    report = VerificationReport(pres.name)
    for name, (lhs, rhs) in _condition_systems(ctx).items():
        # the hole leg is paired with the actual cointegral
        functional = ctx.lam if name.startswith("left") else ctx.big_lam
        report.check_all(f"characterization:{name}", _filled(ctx, lhs, rhs, functional),
                         lambda pair: [pair])
        solved = _solve_hole_system(ctx, lhs, rhs)
        report.add(f"characterization:{name}:line", _line_matches(ctx, solved, functional),
                   None if _line_matches(ctx, solved, functional)
                   else f"solution space has dimension {len(solved)}")
    report.check_zero("characterization:qqt-left", evaluate_identity(ctx, "qqt-left"))
    report.check_zero("characterization:qqt-right", evaluate_identity(ctx, "qqt-right"))
    if is_unimodular(ctx):
        lhs, rhs = (side.evaluate(ctx.ops)
                    for side in _bind_all(ctx, FORMS["unimodular-shortcut"]))
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
    constant pairs), independently of the solver's own combinations.  The
    left table is the left side of the direct right-cointegral relation.
    """
    left = _right_coint_direct_system(ctx)[0].evaluate(ctx.ops)
    right = _value(ctx, *FORMS["rho"], C=_value(ctx, *FORMS["pair-C"]),
                   D=_value(ctx, *FORMS["pair-D"]))
    return left, right


def coinvariants_via_rho(ctx) -> list[Functional]:
    """Solve the coinvariance condition directly from the right-coaction
    table (an independent code path from the cointegral solver)."""
    _, rho = dual_coactions(ctx)
    _, rhs_expr = _left_coint_system(ctx)
    # rho's (h, a, m) table less the relation's other side, one table per h
    return [Functional(vec) for vec in _nullspace(ctx.pres.dim, columns_of(
        rho - rhs_expr.evaluate(ctx.ops)))]


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
    _, rhs_expr = _right_coint_direct_system(ctx)
    rhs_table = rhs_expr.evaluate(ctx.ops)
    applied, direct = (columns_of(contract(ctx.big_lam, table, 1))
                       for table in (left_table, rhs_table))
    report.check_all("coaction:left-applied-to-right-cointegral", range(n), lambda h: [
        (applied[h], direct[h])])
    return report


def xi_operator(ctx) -> LinearOperator:
    """The Frobenius isomorphism from the dual to the algebra,
    xi(h^*) = h^*(S(q2 t2 p2)) q1 t1 p1, as a dim x dim matrix on
    dual-basis coordinates."""
    return LinearOperator(ctx.pres.dim, columns_of(_value(ctx, *FORMS["xi"])))


def xi_report(ctx) -> VerificationReport:
    pres = ctx.pres
    n = pres.dim
    report = VerificationReport(pres.name)
    xi = xi_operator(ctx)
    phi = TensorElement.vector(_compose_functional(ctx.lam, ctx.s_inv).coords)
    xi_inv = LinearOperator(n, columns_of(_value(ctx, *FORMS["xi^-1"])))
    ident = LinearOperator.identity(n)
    ok = xi.compose(xi_inv) == ident and xi_inv.compose(xi) == ident
    report.add("xi:bijective-with-stated-inverse", ok)
    report.add("xi:normalization", xi_inv.apply(pres.unit) == phi and xi.apply(phi) == pres.unit)
    return report


def s_mu_operator(ctx) -> LinearOperator:
    """S_mu(h) := mu(S(h)_1) S(h)_2."""
    return LinearOperator(ctx.pres.dim, columns_of(_value(ctx, *FORMS["S_mu"])))


# -- umbrella report ---------------------------------------------------------------------------


def integral_report(ctx) -> VerificationReport:
    pres = ctx.pres
    report = VerificationReport(pres.name)
    report.add("integrals:left-dimension-one", True)
    report.add("integrals:right-dimension-one", True)

    for row, form in (("integrals:t*h=mu(h)t", "t*h"), ("integrals:h*r=mui(h)r", "h*r")):
        report.check_all(row, _for_every_h(ctx, FORMS[form]), lambda pair: [pair])
    report.check_all("integrals:mu-is-algebra-map", _for_every_h(ctx, FORMS["mu-algebra-map"]),
                     lambda pair: list(zip(*(side.coords() for side in pair))))

    report.add("integrals:mui=mu.S=mu.Si",
               ctx.mu_inv == _compose_functional(ctx.mu, ctx.s_inv) and ctx.mu_inv ==
               _compose_functional(ctx.mu, pres.antipode))

    report.check_all("integrals:mu-convolution-inverse",
                     _for_every_h(ctx, FORMS["mu-convolution"]),
                     lambda sides: [(side.coeff(), sides[2].coeff()) for side in sides[:2]])

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

    report.extend(characterization_suite(ctx))

    gmod, gmod_inv = ctx.g_mod, ctx.g_mod_inv
    report.check_zero("modular:g*ginv", pres.multiply(gmod, gmod_inv) - pres.unit)
    report.check_zero("modular:lam-Si", evaluate_identity(ctx, "firstRad-fn"))
    report.check_zero("modular:lam-Sm2", evaluate_identity(ctx, "lamSm2"))
    report.check_zero("modular:lamSi=Lam<-u", evaluate_identity(ctx, "qtr-fn"))
    report.check_zero("modular:lamS=Lam<-v", evaluate_identity(ctx, "lamS-v"))
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
    report.extend(s4_suite(ctx))
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
