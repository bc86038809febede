"""Reference builders for the named identities, the canonical elements and
the formulas of ``intcoint``, ``double`` and ``qha``: each side written out
by hand as an ``Expression``, or, for the relations over every h that the
modules once checked one basis element at a time, as that loop
(:class:`Loop`).

This is how those modules built their expressions before every one of them
was parsed from a formula.  It is kept only as the reference the parsed
sides are compared against (``tests/test_expr.py``).  ``REF`` maps each
non-custom identity name to its builder, ctx -> (lhs, rhs); ``REF_FORMS``
maps each canonical element to its closed forms; ``REF_MODULES`` maps
(module, form name) to ctx -> (the tensors of the form's extra letters,
its sides).
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Callable

from quasihopf.exactnum import ONE, Scalar
from quasihopf.expr import VAR, Expression, Fn, Leg, Op, Ref
from quasihopf.multilinear import (Functional, TensorElement, apply_on_leg, contract,
                                   multiplication_operator)
from quasihopf.qha import (_compose_functional, generating_set, hit_functional_left,
                           hit_functional_right)


def r(name: str, comp: int = 1, *tokens: int | str) -> Ref:
    return Ref(name, comp, *tokens)


def S(*items: Ref | Op) -> Op:
    return Op("S", *items)


def Si(*items: Ref | Op) -> Op:
    return Op("Si", *items)


def op(name: str, *items: Ref | Op) -> Op:
    return Op(name, *items)


# the context attribute each functional of the formulas reads
_FUNCTIONALS = {"eps": "pres.counit", "mu": "mu", "mui": "mu_inv", "lam": "lam", "Lam": "big_lam"}


def fns(ctx, *names: str) -> dict[str, Functional]:
    """The functionals ``names`` of ``ctx``: the sources a hand-built
    expression declares for its ``Fn`` slots."""
    return {name: attrgetter(_FUNCTIONALS[name])(ctx) for name in names}


REF: dict[str, Callable] = {}


def _register(name: str, formula: str):
    def wrap(fn):
        REF[name] = fn
        return fn
    return wrap


def _gamma(ctx):
    pres = ctx.pres
    gamma1 = Expression(
        {"x": pres.phi_inv, "X": pres.phi, "a1": pres.alpha, "a2": pres.alpha},
        [Leg(S(r("x", 1), r("X", 2)), r("a1"), r("x", 2), r("X", 3, 1)),
         Leg(S(r("X", 1)), r("a2"), r("x", 3), r("X", 3, 2))])
    gamma2 = Expression(
        {"x": pres.phi_inv, "X": pres.phi, "a1": pres.alpha, "a2": pres.alpha},
        [Leg(S(r("X", 2), r("x", 1, 2)), r("a1"), r("X", 3), r("x", 2)),
         Leg(S(r("X", 1), r("x", 1, 1)), r("a2"), r("x", 3))])
    return gamma1, gamma2


def _delta(ctx):
    pres = ctx.pres
    delta1 = Expression(
        {"x": pres.phi_inv, "X": pres.phi, "b1": pres.beta, "b2": pres.beta},
        [Leg(r("X", 1, 1), r("x", 1), r("b1"), S(r("X", 3))),
         Leg(r("X", 1, 2), r("x", 2), r("b2"), S(r("X", 2), r("x", 3)))])
    delta2 = Expression(
        {"x": pres.phi_inv, "X": pres.phi, "b1": pres.beta, "b2": pres.beta},
        [Leg(r("x", 1), r("b1"), S(r("x", 3, 2), r("X", 3))),
         Leg(r("x", 2), r("X", 1), r("b2"), S(r("x", 3, 1), r("X", 2)))])
    return delta1, delta2


def _twist(ctx):
    pres = ctx.pres
    f_expr = Expression(
        {"x": pres.phi_inv, "g": ctx.gamma, "b": pres.beta},
        [Leg(S(r("x", 1, 2)), r("g", 1), r("x", 2, 1), r("b", 1, 1), r("x", 3, "S", 1)),
         Leg(S(r("x", 1, 1)), r("g", 2), r("x", 2, 2), r("b", 1, 2), r("x", 3, "S", 2))])
    return (f_expr,)


def _twist_inv(ctx):
    pres = ctx.pres
    f_inv_expr = Expression(
        {"x": pres.phi_inv, "d": ctx.delta_el, "a": pres.alpha},
        [Leg(r("x", 1, "S", 1), r("a", 1, 1), r("x", 2, 1), r("d", 1), S(r("x", 3, 2))),
         Leg(r("x", 1, "S", 2), r("a", 1, 2), r("x", 2, 2), r("d", 2), S(r("x", 3, 1)))])
    return (f_inv_expr,)


REF_FORMS: dict[str, Callable] = {
    "gamma": _gamma,
    "delta": _delta,
    "f": _twist,
    "f^-1": _twist_inv,
    "pR": lambda ctx: (Expression(
        {"x": ctx.pres.phi_inv, "b": ctx.pres.beta},
        [Leg(r("x", 1)), Leg(r("x", 2), r("b"), S(r("x", 3)))]),),
    "qR": lambda ctx: (Expression(
        {"X": ctx.pres.phi, "a": ctx.pres.alpha},
        [Leg(r("X", 1)), Leg(Si(r("a"), r("X", 3)), r("X", 2))]),),
    "pL": lambda ctx: (Expression(
        {"X": ctx.pres.phi, "b": ctx.pres.beta},
        [Leg(r("X", 2), Si(r("X", 1), r("b"))), Leg(r("X", 3))]),),
    "qL": lambda ctx: (Expression(
        {"x": ctx.pres.phi_inv, "a": ctx.pres.alpha},
        [Leg(S(r("x", 1)), r("a"), r("x", 2)), Leg(r("x", 3))]),),
    "U": lambda ctx: (Expression(
        {"g": ctx.f_inv, "q": ctx.q_r},
        [Leg(r("g", 1), S(r("q", 2))), Leg(r("g", 2), S(r("q", 1)))]),),
    "V": lambda ctx: (Expression(
        {"f": ctx.f, "p": ctx.p_r},
        [Leg(Si(r("f", 2), r("p", 2))), Leg(Si(r("f", 1), r("p", 1)))]),),
}


def _pq(ctx, names: str) -> dict:
    table = {"f": ctx.f, "F": ctx.f, "g": ctx.f_inv, "G": ctx.f_inv,
             "p": ctx.p_r, "P": ctx.p_r, "pl": ctx.p_l, "Pl": ctx.p_l,
             "q": ctx.q_r, "Q": ctx.q_r, "ql": ctx.q_l, "Ql": ctx.q_l,
             "U": ctx.u_cap, "W": ctx.u_cap, "V": ctx.v_cap,
             "X": ctx.pres.phi, "Y": ctx.pres.phi, "Z": ctx.pres.phi,
             "x": ctx.pres.phi_inv, "y": ctx.pres.phi_inv, "z": ctx.pres.phi_inv,
             "al": ctx.pres.alpha, "be": ctx.pres.beta,
             "gm": ctx.gamma, "dl": ctx.delta_el,
             "t": ctx.t, "rr": ctx.r, "gmod": ctx.g_mod, "gmodi": ctx.g_mod_inv,
             "u": ctx.u_el, "ui": ctx.u_inv, "v": ctx.v_el, "vi": ctx.v_inv}
    return {n: table[n] for n in names.split()}


# --- relations among the p/q elements (no integrals required) -------------------


@_register("qr1", "Delta(h1) pR (1 x S(h2)) = pR (h x 1)")
def _qr1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "p")},
                     [Leg(r("h", 1, 1, 1), r("p", 1)),
                      Leg(r("h", 1, 1, 2), r("p", 2), S(r("h", 1, 2)))])
    rhs = Expression({"h": VAR, **_pq(ctx, "p")},
                     [Leg(r("p", 1), r("h")), Leg(r("p", 2))])
    return lhs, rhs


@_register("qr1a", "(1 x Si(h2)) qR Delta(h1) = (h x 1) qR")
def _qr1a(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "q")},
                     [Leg(r("q", 1), r("h", 1, 1, 1)),
                      Leg(Si(r("h", 1, 2)), r("q", 2), r("h", 1, 1, 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "q")},
                     [Leg(r("h"), r("q", 1)), Leg(r("q", 2))])
    return lhs, rhs


@_register("ql1", "Delta(h2) pL (Si(h1) x 1) = pL (1 x h)")
def _ql1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "pl")},
                     [Leg(r("h", 1, 2, 1), r("pl", 1), Si(r("h", 1, 1))),
                      Leg(r("h", 1, 2, 2), r("pl", 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "pl")},
                     [Leg(r("pl", 1)), Leg(r("pl", 2), r("h"))])
    return lhs, rhs


@_register("ql1a", "(S(h1) x 1) qL Delta(h2) = (1 x h) qL")
def _ql1a(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "ql")},
                     [Leg(S(r("h", 1, 1)), r("ql", 1), r("h", 1, 2, 1)),
                      Leg(r("ql", 2), r("h", 1, 2, 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "ql")},
                     [Leg(r("ql", 1)), Leg(r("h"), r("ql", 2))])
    return lhs, rhs


@_register("pqra", "(1 x Si(p2)) qR Delta(p1) = 1 x 1")
def _pqra(ctx):
    lhs = Expression(_pq(ctx, "p q"),
                     [Leg(r("q", 1), r("p", 1, 1)),
                      Leg(Si(r("p", 2)), r("q", 2), r("p", 1, 2))])
    rhs = _unit2_expr(ctx)
    return lhs, rhs


@_register("pqr", "Delta(q1) pR (1 x S(q2)) = 1 x 1")
def _pqr(ctx):
    lhs = Expression(_pq(ctx, "p q"),
                     [Leg(r("q", 1, 1), r("p", 1)),
                      Leg(r("q", 1, 2), r("p", 2), S(r("q", 2)))])
    return lhs, _unit2_expr(ctx)


@_register("pql", "(S(pl1) x 1) qL Delta(pl2) = 1 x 1")
def _pql(ctx):
    lhs = Expression(_pq(ctx, "pl ql"),
                     [Leg(S(r("pl", 1)), r("ql", 1), r("pl", 2, 1)),
                      Leg(r("ql", 2), r("pl", 2, 2))])
    return lhs, _unit2_expr(ctx)


@_register("pqla", "Delta(ql2) pL (Si(ql1) x 1) = 1 x 1")
def _pqla(ctx):
    lhs = Expression(_pq(ctx, "pl ql"),
                     [Leg(r("ql", 2, 1), r("pl", 1), Si(r("ql", 1))),
                      Leg(r("ql", 2, 2), r("pl", 2))])
    return lhs, _unit2_expr(ctx)


def _unit2_expr(ctx):
    return Expression({}, [Leg(), Leg()])


@_register("pr1", "X1 p1_1 P1 x X2 p1_2 P2 x X3 p2 = x1_1 p1 x ... (twist form)")
def _pr1(ctx):
    lhs = Expression(_pq(ctx, "X p P"),
                     [Leg(r("X", 1), r("p", 1, 1), r("P", 1)),
                      Leg(r("X", 2), r("p", 1, 2), r("P", 2)),
                      Leg(r("X", 3), r("p", 2))])
    rhs = Expression(_pq(ctx, "x p g"),
                     [Leg(r("x", 1, 1), r("p", 1)),
                      Leg(r("x", 1, 2, 1), r("p", 2, 1), r("g", 1), S(r("x", 3))),
                      Leg(r("x", 1, 2, 2), r("p", 2, 2), r("g", 2), S(r("x", 2)))])
    return lhs, rhs


@_register("qr2", "q1 Q1_1 x1 x q2 Q1_2 x2 x Q2 x3 = q1 X1_1 x ... (twist form)")
def _qr2(ctx):
    lhs = Expression(_pq(ctx, "q Q x"),
                     [Leg(r("q", 1), r("Q", 1, 1), r("x", 1)),
                      Leg(r("q", 2), r("Q", 1, 2), r("x", 2)),
                      Leg(r("Q", 2), r("x", 3))])
    rhs = Expression(_pq(ctx, "q f X"),
                     [Leg(r("q", 1), r("X", 1, 1)),
                      Leg(Si(r("f", 2), r("X", 3)), r("q", 2, 1), r("X", 1, 2, 1)),
                      Leg(Si(r("f", 1), r("X", 2)), r("q", 2, 2), r("X", 1, 2, 2))])
    return lhs, rhs


@_register("pl1", "x1 pl1 x x2 pl2_1 Pl1 x x3 pl2_2 Pl2 = X3_(1,1) pl1_1 ... (twist form)")
def _pl1(ctx):
    lhs = Expression(_pq(ctx, "x pl Pl"),
                     [Leg(r("x", 1), r("pl", 1)),
                      Leg(r("x", 2), r("pl", 2, 1), r("Pl", 1)),
                      Leg(r("x", 3), r("pl", 2, 2), r("Pl", 2))])
    rhs = Expression(_pq(ctx, "X pl g"),
                     [Leg(r("X", 3, 1, 1), r("pl", 1, 1), Si(r("X", 2), r("g", 2))),
                      Leg(r("X", 3, 1, 2), r("pl", 1, 2), Si(r("X", 1), r("g", 1))),
                      Leg(r("X", 3, 2), r("pl", 2))])
    return lhs, rhs


@_register("ql2", "Ql1 X1 x ql1 Ql2_1 X2 x ql2 Ql2_2 X3 = S(x2) f1 ql1_1 ... (twist form)")
def _ql2(ctx):
    lhs = Expression(_pq(ctx, "Ql ql X"),
                     [Leg(r("Ql", 1), r("X", 1)),
                      Leg(r("ql", 1), r("Ql", 2, 1), r("X", 2)),
                      Leg(r("ql", 2), r("Ql", 2, 2), r("X", 3))])
    rhs = Expression(_pq(ctx, "x f ql"),
                     [Leg(S(r("x", 2)), r("f", 1), r("ql", 1, 1), r("x", 3, 1, 1)),
                      Leg(S(r("x", 1)), r("f", 2), r("ql", 1, 2), r("x", 3, 1, 2)),
                      Leg(r("ql", 2), r("x", 3, 2))])
    return lhs, rhs


# --- the twist -------------------------------------------------------------------


@_register("ca", "f Delta(S(h)) f^-1 = (S x S)(Delta^cop(h))")
def _ca(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "f g")},
                     [Leg(r("f", 1), r("h", 1, "S", 1), r("g", 1)),
                      Leg(r("f", 2), r("h", 1, "S", 2), r("g", 2))])
    rhs = Expression({"h": VAR},
                     [Leg(S(r("h", 1, 2))), Leg(S(r("h", 1, 1)))])
    return lhs, rhs


@_register("gdf-gamma", "f Delta(alpha) = gamma")
def _gdf_gamma(ctx):
    lhs = Expression(_pq(ctx, "f al"),
                     [Leg(r("f", 1), r("al", 1, 1)), Leg(r("f", 2), r("al", 1, 2))])
    rhs = Expression({"gm": ctx.gamma}, [Leg(r("gm", 1)), Leg(r("gm", 2))])
    return lhs, rhs


@_register("gdf-delta", "Delta(beta) f^-1 = delta")
def _gdf_delta(ctx):
    lhs = Expression(_pq(ctx, "g be"),
                     [Leg(r("be", 1, 1), r("g", 1)), Leg(r("be", 1, 2), r("g", 2))])
    rhs = Expression({"dl": ctx.delta_el}, [Leg(r("dl", 1)), Leg(r("dl", 2))])
    return lhs, rhs


@_register("pf", "f1 X1 x F1 f2_1 X2 x F2 f2_2 X3 = S(X3) f1 F1_1 x S(X2) f2 F1_2 x S(X1) F2")
def _pf(ctx):
    lhs = Expression(_pq(ctx, "f F X"),
                     [Leg(r("f", 1), r("X", 1)),
                      Leg(r("F", 1), r("f", 2, 1), r("X", 2)),
                      Leg(r("F", 2), r("f", 2, 2), r("X", 3))])
    rhs = Expression(_pq(ctx, "f F X"),
                     [Leg(S(r("X", 3)), r("f", 1), r("F", 1, 1)),
                      Leg(S(r("X", 2)), r("f", 2), r("F", 1, 2)),
                      Leg(S(r("X", 1)), r("F", 2))])
    return lhs, rhs


@_register("fgab-beta", "g1 S(g2 alpha) = beta")
def _fgab_beta(ctx):
    lhs = Expression(_pq(ctx, "g al"),
                     [Leg(r("g", 1), S(r("g", 2), r("al")))])
    rhs = Expression({"be": ctx.pres.beta}, [Leg(r("be"))])
    return lhs, rhs


@_register("fgab-alpha", "S(beta f1) f2 = alpha")
def _fgab_alpha(ctx):
    lhs = Expression(_pq(ctx, "f be"),
                     [Leg(S(r("be"), r("f", 1)), r("f", 2))])
    rhs = Expression({"al": ctx.pres.alpha}, [Leg(r("al"))])
    return lhs, rhs


@_register("fgab-salpha", "f1 beta S(f2) = S(alpha)")
def _fgab_salpha(ctx):
    lhs = Expression(_pq(ctx, "f be"),
                     [Leg(r("f", 1), r("be"), S(r("f", 2)))])
    rhs = Expression({"al": ctx.pres.alpha}, [Leg(S(r("al")))])
    return lhs, rhs


@_register("f-counit", "(eps x id)(f) = 1 = (id x eps)(f)")
def _f_counit(ctx):
    lhs = Expression({"f": ctx.f, "F": ctx.f, **fns(ctx, "eps")},
                     [Fn("eps", r("f", 1)), Leg(r("f", 2)),
                      Fn("eps", r("F", 2)), Leg(r("F", 1))])
    rhs = Expression({}, [Leg(), Leg()])
    return lhs, rhs


# --- U and V ---------------------------------------------------------------------


@_register("fu1", "U (1 x S(h)) = Delta(S(h1)) U (h2 x 1)")
def _fu1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "U")},
                     [Leg(r("U", 1)), Leg(r("U", 2), S(r("h")))])
    rhs = Expression({"h": VAR, **_pq(ctx, "U")},
                     [Leg(r("h", 1, 1, "S", 1), r("U", 1), r("h", 1, 2)),
                      Leg(r("h", 1, 1, "S", 2), r("U", 2))])
    return lhs, rhs


@_register("fv1", "(1 x Si(h)) V = (h2 x 1) V Delta(Si(h1))")
def _fv1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "V")},
                     [Leg(r("V", 1)), Leg(Si(r("h")), r("V", 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "V")},
                     [Leg(r("h", 1, 2), r("V", 1), r("h", 1, 1, "Si", 1)),
                      Leg(r("V", 2), r("h", 1, 1, "Si", 2))])
    return lhs, rhs


@_register("qqlv", "qR = (ql2 x 1) V Delta(Si(ql1))")
def _qqlv(ctx):
    lhs = Expression(_pq(ctx, "q"), [Leg(r("q", 1)), Leg(r("q", 2))])
    rhs = Expression(_pq(ctx, "ql V"),
                     [Leg(r("ql", 2), r("V", 1), r("ql", 1, "Si", 1)),
                      Leg(r("V", 2), r("ql", 1, "Si", 2))])
    return lhs, rhs


@_register("pplu", "pR = Delta(S(pl1)) U (pl2 x 1)")
def _pplu(ctx):
    lhs = Expression(_pq(ctx, "p"), [Leg(r("p", 1)), Leg(r("p", 2))])
    rhs = Expression(_pq(ctx, "pl U"),
                     [Leg(r("pl", 1, "S", 1), r("U", 1), r("pl", 2)),
                      Leg(r("pl", 1, "S", 2), r("U", 2))])
    return lhs, rhs


@_register("uvpql-u", "U = ql1_1 p1 x ql1_2 p2 S(ql2)")
def _uvpql_u(ctx):
    lhs = Expression(_pq(ctx, "U"), [Leg(r("U", 1)), Leg(r("U", 2))])
    rhs = Expression(_pq(ctx, "ql p"),
                     [Leg(r("ql", 1, 1), r("p", 1)),
                      Leg(r("ql", 1, 2), r("p", 2), S(r("ql", 2)))])
    return lhs, rhs


@_register("uvpql-v", "V = q1 pl1_1 x Si(pl2) q2 pl1_2")
def _uvpql_v(ctx):
    lhs = Expression(_pq(ctx, "V"), [Leg(r("V", 1)), Leg(r("V", 2))])
    rhs = Expression(_pq(ctx, "q pl"),
                     [Leg(r("q", 1), r("pl", 1, 1)),
                      Leg(Si(r("pl", 2)), r("q", 2), r("pl", 1, 2))])
    return lhs, rhs


@_register("formtplfversusqg", "S(pl2) f1 x S(pl1) f2 = q1 g1_1 x Si(g2) q2 g1_2")
def _formtplf(ctx):
    lhs = Expression(_pq(ctx, "pl f"),
                     [Leg(S(r("pl", 2)), r("f", 1)), Leg(S(r("pl", 1)), r("f", 2))])
    rhs = Expression(_pq(ctx, "q g"),
                     [Leg(r("q", 1), r("g", 1, 1)),
                      Leg(Si(r("g", 2)), r("q", 2), r("g", 1, 2))])
    return lhs, rhs


@_register("fpformula", "S(g1) ql1 g2_1 x ql2 g2_2 = S(p2) f1 x S(p1) f2")
def _fpformula(ctx):
    lhs = Expression(_pq(ctx, "g ql"),
                     [Leg(S(r("g", 1)), r("ql", 1), r("g", 2, 1)),
                      Leg(r("ql", 2), r("g", 2, 2))])
    rhs = Expression(_pq(ctx, "p f"),
                     [Leg(S(r("p", 2)), r("f", 1)), Leg(S(r("p", 1)), r("f", 2))])
    return lhs, rhs


# --- reassociator shuffles used by the double -------------------------------------


@_register("peq", "X1 p1_1 x X2 p1_2 x X3 p2 = x1 x x2_1 p1 x x2_2 p2 S(x3)")
def _peq(ctx):
    lhs = Expression(_pq(ctx, "X p"),
                     [Leg(r("X", 1), r("p", 1, 1)),
                      Leg(r("X", 2), r("p", 1, 2)),
                      Leg(r("X", 3), r("p", 2))])
    rhs = Expression(_pq(ctx, "x p"),
                     [Leg(r("x", 1)),
                      Leg(r("x", 2, 1), r("p", 1)),
                      Leg(r("x", 2, 2), r("p", 2), S(r("x", 3)))])
    return lhs, rhs


@_register("qlqr", "X1 x S(X2) ql1 X3_1 x ql2 X3_2 = q1 x1_1 x S(q2 x1_2) x2 x x3")
def _qlqr(ctx):
    lhs = Expression(_pq(ctx, "X ql"),
                     [Leg(r("X", 1)),
                      Leg(S(r("X", 2)), r("ql", 1), r("X", 3, 1)),
                      Leg(r("ql", 2), r("X", 3, 2))])
    rhs = Expression(_pq(ctx, "q x"),
                     [Leg(r("q", 1), r("x", 1, 1)),
                      Leg(S(r("q", 2), r("x", 1, 2)), r("x", 2)),
                      Leg(r("x", 3))])
    return lhs, rhs


@_register("tplvspr", "x1 x x2 S(x3_1 pl1) x x3_2 pl2 = X1_1 p1 x X1_2 p2 S(X2) x X3")
def _tplvspr(ctx):
    lhs = Expression(_pq(ctx, "x pl"),
                     [Leg(r("x", 1)),
                      Leg(r("x", 2), S(r("x", 3, 1), r("pl", 1))),
                      Leg(r("x", 3, 2), r("pl", 2))])
    rhs = Expression(_pq(ctx, "X p"),
                     [Leg(r("X", 1, 1), r("p", 1)),
                      Leg(r("X", 1, 2), r("p", 2), S(r("X", 2))),
                      Leg(r("X", 3))])
    return lhs, rhs


@_register("fdeltaDrinf", "Delta(h1) delta (S x S)(Delta^cop(h2)) = eps(h) delta")
def _fdeltadrinf(ctx):
    lhs = Expression({"h": VAR, "dl": ctx.delta_el},
                     [Leg(r("h", 1, 1, 1), r("dl", 1), S(r("h", 1, 2, 2))),
                      Leg(r("h", 1, 1, 2), r("dl", 2), S(r("h", 1, 2, 1)))])
    rhs = Expression({"h": VAR, "dl": ctx.delta_el, **fns(ctx, "eps")},
                     [Fn("eps", r("h")), Leg(r("dl", 1)), Leg(r("dl", 2))])
    return lhs, rhs


@_register("foressleftintqd", "Y1 d1 S(Y3_2) x Y2 d2 S(Y3_1) = beta S(pl2) x S(pl1)")
def _foress1(ctx):
    lhs = Expression({"Y": ctx.pres.phi, "dl": ctx.delta_el},
                     [Leg(r("Y", 1), r("dl", 1), S(r("Y", 3, 2))),
                      Leg(r("Y", 2), r("dl", 2), S(r("Y", 3, 1)))])
    rhs = Expression(_pq(ctx, "pl be"),
                     [Leg(r("be"), S(r("pl", 2))), Leg(S(r("pl", 1)))])
    return lhs, rhs


@_register("foressleftintqd2", "z1 pl1 x z2 pl2_1 x z3 pl2_2 = Y2_1 Z2 Si(Y1 Z1 beta) x Y2_2 Z3 x Y3")
def _foress2(ctx):
    lhs = Expression(_pq(ctx, "z pl"),
                     [Leg(r("z", 1), r("pl", 1)),
                      Leg(r("z", 2), r("pl", 2, 1)),
                      Leg(r("z", 3), r("pl", 2, 2))])
    rhs = Expression(_pq(ctx, "Y Z be"),
                     [Leg(r("Y", 2, 1), r("Z", 2), Si(r("Y", 1), r("Z", 1), r("be"))),
                      Leg(r("Y", 2, 2), r("Z", 3)),
                      Leg(r("Y", 3))])
    return lhs, rhs


@_register("foressleftintqd3", "X1 x q1 X2_1 x Si(X3) q2 X2_2 = q1_1 x1 x q1_2 x2 x q2 x3")
def _foress3(ctx):
    lhs = Expression(_pq(ctx, "X q"),
                     [Leg(r("X", 1)),
                      Leg(r("q", 1), r("X", 2, 1)),
                      Leg(Si(r("X", 3)), r("q", 2), r("X", 2, 2))])
    rhs = Expression(_pq(ctx, "x q"),
                     [Leg(r("q", 1, 1), r("x", 1)),
                      Leg(r("q", 1, 2), r("x", 2)),
                      Leg(r("q", 2), r("x", 3))])
    return lhs, rhs


# --- auxiliary element shuffles ------------------------------------------------------


@_register("app2", "X1_1 x1 d1 S(X3_2) x X1_2 x2 d2_1 S(X3_1)_1 x X2 x3 d2_2 S(X3_1)_2 "
                   "= (beta S(X3))_1 g1 S(x3) x (beta S(X3))_2 g2 S(x2) f1 x X1 beta S(x1 X2) f2")
def _app2(ctx):
    lhs = Expression({"X": ctx.pres.phi, "x": ctx.pres.phi_inv, "dl": ctx.delta_el},
                     [Leg(r("X", 1, 1), r("x", 1), r("dl", 1), S(r("X", 3, 2))),
                      Leg(r("X", 1, 2), r("x", 2), r("dl", 2, 1), r("X", 3, 1, "S", 1)),
                      Leg(r("X", 2), r("x", 3), r("dl", 2, 2), r("X", 3, 1, "S", 2))])
    # (beta S(X3))_i expanded through Delta being an algebra morphism; a
    # common rendering of the right side repeats one inverse-reassociator
    # component, which cannot type-check, so this balanced form is used
    rhs = Expression({"X": ctx.pres.phi, "x": ctx.pres.phi_inv,
                      "g": ctx.f_inv, "f": ctx.f, "be": ctx.pres.beta,
                      "b2": ctx.pres.beta},
                     [Leg(r("be", 1, 1), r("X", 3, "S", 1), r("g", 1), S(r("x", 3))),
                      Leg(r("be", 1, 2), r("X", 3, "S", 2), r("g", 2), S(r("x", 2)), r("f", 1)),
                      Leg(r("X", 1), r("b2"), S(r("x", 1), r("X", 2)), r("f", 2))])
    return lhs, rhs


@_register("app2a", "f2 V1 Si(f1)_1 x V2 Si(f1)_2 = qL")
def _app2a(ctx):
    lhs = Expression(_pq(ctx, "f V"),
                     [Leg(r("f", 2), r("V", 1), r("f", 1, "Si", 1)),
                      Leg(r("V", 2), r("f", 1, "Si", 2))])
    rhs = Expression(_pq(ctx, "ql"), [Leg(r("ql", 1)), Leg(r("ql", 2))])
    return lhs, rhs


@_register("app2aa", "S(U1) ql1 U2_1 x ql2 U2_2 = f")
def _app2aa(ctx):
    lhs = Expression(_pq(ctx, "U ql"),
                     [Leg(S(r("U", 1)), r("ql", 1), r("U", 2, 1)),
                      Leg(r("ql", 2), r("U", 2, 2))])
    rhs = Expression(_pq(ctx, "f"), [Leg(r("f", 1)), Leg(r("f", 2))])
    return lhs, rhs


@_register("app2b", "S(p1) F2 f2_2 X3 x S(p2 f1 X1) F1 f2_1 X2 = 1 x alpha")
def _app2b(ctx):
    lhs = Expression(_pq(ctx, "p f F X"),
                     [Leg(S(r("p", 1)), r("F", 2), r("f", 2, 2), r("X", 3)),
                      Leg(S(r("p", 2), r("f", 1), r("X", 1)), r("F", 1), r("f", 2, 1), r("X", 2))])
    rhs = Expression({"al": ctx.pres.alpha}, [Leg(), Leg(r("al"))])
    return lhs, rhs


# --- identities that need integrals and cointegrals --------------------------------


@_register("f2a", "t1 x S(t2) = q1 t1 x S(q2 t2) beta")
def _f2a(ctx):
    lhs = Expression({"t": ctx.t},
                     [Leg(r("t", 1, 1)), Leg(S(r("t", 1, 2)))])
    rhs = Expression(_pq(ctx, "q t be"),
                     [Leg(r("q", 1), r("t", 1, 1)),
                      Leg(S(r("q", 2), r("t", 1, 2)), r("be"))])
    return lhs, rhs


@_register("f2b", "t1 x S(t2) = beta q1 t1 x S(q2 t2)")
def _f2b(ctx):
    lhs = Expression({"t": ctx.t},
                     [Leg(r("t", 1, 1)), Leg(S(r("t", 1, 2)))])
    rhs = Expression(_pq(ctx, "q t be"),
                     [Leg(r("be"), r("q", 1), r("t", 1, 1)),
                      Leg(S(r("q", 2), r("t", 1, 2)))])
    return lhs, rhs


@_register("movingelem1", "t1 p1 h x t2 p2 = mu(h1) t1 p1 x t2 p2 S(h2)")
def _movingelem1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "t p")},
                     [Leg(r("t", 1, 1), r("p", 1), r("h")),
                      Leg(r("t", 1, 2), r("p", 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "t p"), **fns(ctx, "mu")},
                     [Fn("mu", r("h", 1, 1)),
                      Leg(r("t", 1, 1), r("p", 1)),
                      Leg(r("t", 1, 2), r("p", 2), S(r("h", 1, 2)))])
    return lhs, rhs


@_register("f4", "lam(Si(h) h') = mu(h1) lam(h' S(h2))")
def _f4(ctx):
    lhs = Expression({"h": VAR, "hp": VAR, **fns(ctx, "lam")},
                     [Fn("lam", Si(r("h")), r("hp"))])
    rhs = Expression({"h": VAR, "hp": VAR, **fns(ctx, "mu", "lam")},
                     [Fn("mu", r("h", 1, 1)), Fn("lam", r("hp"), S(r("h", 1, 2)))])
    return lhs, rhs


@_register("lcointsimpl",
           "lam(q2 h2 p2 S(h')) q1 h1 p1 = mu(x1) lam(Si(ql1) h S(x2 h'1 pl1)) ql2 x3 h'2 pl2")
def _lcointsimpl(ctx):
    lhs = Expression({"h": VAR, "hp": VAR, **_pq(ctx, "q p"), **fns(ctx, "lam")},
                     [Fn("lam", r("q", 2), r("h", 1, 2), r("p", 2), S(r("hp"))),
                      Leg(r("q", 1), r("h", 1, 1), r("p", 1))])
    rhs = Expression({"h": VAR, "hp": VAR, **_pq(ctx, "x ql pl"), **fns(ctx, "mu", "lam")},
                     [Fn("mu", r("x", 1)),
                      Fn("lam", Si(r("ql", 1)), r("h"),
                         S(r("x", 2), r("hp", 1, 1), r("pl", 1))),
                      Leg(r("ql", 2), r("x", 3), r("hp", 1, 2), r("pl", 2))])
    return lhs, rhs


@_register("prelimpobs", "lam(q2 t2 p2) q1 t1 p1 = mu(beta) lam(t) 1")
def _prelimpobs(ctx):
    lhs = Expression({**_pq(ctx, "q t p"), **fns(ctx, "lam")},
                     [Fn("lam", r("q", 2), r("t", 1, 2), r("p", 2)),
                      Leg(r("q", 1), r("t", 1, 1), r("p", 1))])
    rhs = Expression({"be": ctx.pres.beta, "t": ctx.t, **fns(ctx, "mu", "lam")},
                     [Fn("mu", r("be")), Fn("lam", r("t")), Leg()])
    return lhs, rhs


@_register("qqt-left", "q1 t1 x q2 t2 = ql1 t1 x ql2 t2")
def _qqt_left(ctx):
    lhs = Expression(_pq(ctx, "q t"),
                     [Leg(r("q", 1), r("t", 1, 1)), Leg(r("q", 2), r("t", 1, 2))])
    rhs = Expression(_pq(ctx, "ql t"),
                     [Leg(r("ql", 1), r("t", 1, 1)), Leg(r("ql", 2), r("t", 1, 2))])
    return lhs, rhs


@_register("qqt-right", "r1 p1 x r2 p2 = r1 pl1 x r2 pl2")
def _qqt_right(ctx):
    lhs = Expression(_pq(ctx, "rr p"),
                     [Leg(r("rr", 1, 1), r("p", 1)), Leg(r("rr", 1, 2), r("p", 2))])
    rhs = Expression(_pq(ctx, "rr pl"),
                     [Leg(r("rr", 1, 1), r("pl", 1)), Leg(r("rr", 1, 2), r("pl", 2))])
    return lhs, rhs


@_register("f1", "h q1 t1 x q2 t2 = q1 t1 x Si(h) q2 t2")
def _f1(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "q t")},
                     [Leg(r("h"), r("q", 1), r("t", 1, 1)),
                      Leg(r("q", 2), r("t", 1, 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "q t")},
                     [Leg(r("q", 1), r("t", 1, 1)),
                      Leg(Si(r("h")), r("q", 2), r("t", 1, 2))])
    return lhs, rhs


@_register("elemmovedbyrightint", "r1 p1 h x r2 p2 = r1 p1 x r2 p2 S(h)")
def _elemmoved(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "rr p")},
                     [Leg(r("rr", 1, 1), r("p", 1), r("h")),
                      Leg(r("rr", 1, 2), r("p", 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "rr p")},
                     [Leg(r("rr", 1, 1), r("p", 1)),
                      Leg(r("rr", 1, 2), r("p", 2), S(r("h")))])
    return lhs, rhs


@_register("rint3", "h r1 x r2 = mui(h1 p1) q1 r1 x Si(h2 p2) q2 r2")
def _rint3(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "rr")},
                     [Leg(r("h"), r("rr", 1, 1)), Leg(r("rr", 1, 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "p q rr"), **fns(ctx, "mui")},
                     [Fn("mui", r("h", 1, 1), r("p", 1)),
                      Leg(r("q", 1), r("rr", 1, 1)),
                      Leg(Si(r("h", 1, 2), r("p", 2)), r("q", 2), r("rr", 1, 2))])
    return lhs, rhs


@_register("rint4", "r1 U1 x r2 U2 S(h) = r1 U1 h x r2 U2")
def _rint4(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "rr U")},
                     [Leg(r("rr", 1, 1), r("U", 1)),
                      Leg(r("rr", 1, 2), r("U", 2), S(r("h")))])
    rhs = Expression({"h": VAR, **_pq(ctx, "rr U")},
                     [Leg(r("rr", 1, 1), r("U", 1), r("h")),
                      Leg(r("rr", 1, 2), r("U", 2))])
    return lhs, rhs


@_register("rint5", "V1 r1 x Si(h) V2 r2 = mu(h1) h2 V1 r1 x V2 r2")
def _rint5(ctx):
    lhs = Expression({"h": VAR, **_pq(ctx, "rr V")},
                     [Leg(r("V", 1), r("rr", 1, 1)),
                      Leg(Si(r("h")), r("V", 2), r("rr", 1, 2))])
    rhs = Expression({"h": VAR, **_pq(ctx, "rr V"), **fns(ctx, "mu")},
                     [Fn("mu", r("h", 1, 1)),
                      Leg(r("h", 1, 2), r("V", 1), r("rr", 1, 1)),
                      Leg(r("V", 2), r("rr", 1, 2))])
    return lhs, rhs


@_register("firstRad-fn", "lam o Si = lam <- gmod")
def _firstrad_fn(ctx):
    lhs = Expression({"h": VAR, **fns(ctx, "lam")}, [Fn("lam", Si(r("h")))])
    rhs = Expression({"h": VAR, "gmod": ctx.g_mod, **fns(ctx, "lam")},
                     [Fn("lam", r("gmod"), r("h"))])
    return lhs, rhs


@_register("firstRad-el", "q1 t1 p1 x S(q2 t2 p2) = q2 t2 p2 x gmod^-1 Si(q1 t1 p1)")
def _firstrad_el(ctx):
    lhs = Expression(_pq(ctx, "q t p"),
                     [Leg(r("q", 1), r("t", 1, 1), r("p", 1)),
                      Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))])
    rhs = Expression(_pq(ctx, "q t p gmodi"),
                     [Leg(r("q", 2), r("t", 1, 2), r("p", 2)),
                      Leg(r("gmodi"), Si(r("q", 1), r("t", 1, 1), r("p", 1)))])
    return lhs, rhs


@_register("lamSm2", "lam o S^-2 = S(gmod) -> lam <- gmod")
def _lam_sm2(ctx):
    lhs = Expression({"h": VAR, **fns(ctx, "lam")}, [Fn("lam", op("Si2", r("h")))])
    rhs = Expression({"h": VAR, "gmod": ctx.g_mod, "G2": ctx.g_mod, **fns(ctx, "lam")},
                     [Fn("lam", r("gmod"), r("h"), S(r("G2")))])
    return lhs, rhs


@_register("qtr-fn", "lam o Si = Lam <- u")
def _qtr_fn(ctx):
    lhs = Expression({"h": VAR, **fns(ctx, "lam")}, [Fn("lam", Si(r("h")))])
    rhs = Expression({"h": VAR, "u": ctx.u_el, **fns(ctx, "Lam")}, [Fn("Lam", r("u"), r("h"))])
    return lhs, rhs


@_register("qtr-el", "q1 t1 p1 x S(q2 t2 p2) = ql1 t1 pl1 x u^-1 S(ql2 t2 pl2)")
def _qtr_el(ctx):
    lhs = Expression(_pq(ctx, "q t p"),
                     [Leg(r("q", 1), r("t", 1, 1), r("p", 1)),
                      Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))])
    rhs = Expression(_pq(ctx, "ql t pl ui"),
                     [Leg(r("ql", 1), r("t", 1, 1), r("pl", 1)),
                      Leg(r("ui"), S(r("ql", 2), r("t", 1, 2), r("pl", 2)))])
    return lhs, rhs


@_register("lamS-v", "lam o S = Lam <- v")
def _lams_v(ctx):
    lhs = Expression({"h": VAR, **fns(ctx, "lam")}, [Fn("lam", S(r("h")))])
    rhs = Expression({"h": VAR, "v": ctx.v_el, **fns(ctx, "Lam")}, [Fn("Lam", r("v"), r("h"))])
    return lhs, rhs


@_register("tsFrobelem", "V1 r1 U1 x V2 r2 U2 = Si(q2 t2 p2) x Si(q1 t1 p1) with t = S(r)")
def _tsfrob(ctx):
    t_of_r = ctx.pres.antipode.apply(ctx.r)
    lhs = Expression(_pq(ctx, "V rr U"),
                     [Leg(r("V", 1), r("rr", 1, 1), r("U", 1)),
                      Leg(r("V", 2), r("rr", 1, 2), r("U", 2))])
    rhs = Expression({"t": t_of_r, **_pq(ctx, "q p")},
                     [Leg(Si(r("q", 2), r("t", 1, 2), r("p", 2))),
                      Leg(Si(r("q", 1), r("t", 1, 1), r("p", 1)))])
    return lhs, rhs


@_register("qrpversusqtp",
           "q1 r1 p1 x q2 r2 p2 = mu(ql1) ql2 Si(q2 t2 p2) x Si(q1 t1 p1) with t = S(r)")
def _qrpversusqtp(ctx):
    t_of_r = ctx.pres.antipode.apply(ctx.r)
    lhs = Expression(_pq(ctx, "q rr p"),
                     [Leg(r("q", 1), r("rr", 1, 1), r("p", 1)),
                      Leg(r("q", 2), r("rr", 1, 2), r("p", 2))])
    rhs = Expression({"t": t_of_r, **_pq(ctx, "ql q p"), **fns(ctx, "mu")},
                     [Fn("mu", r("ql", 1)),
                      Leg(r("ql", 2), Si(r("q", 2), r("t", 1, 2), r("p", 2))),
                      Leg(Si(r("q", 1), r("t", 1, 1), r("p", 1)))])
    return lhs, rhs


@_register("app4", "V1 r1 x gmod^-1 V2 r2 = V2 r2 p2 x S^2(V1 r1 p1) alpha")
def _app4(ctx):
    lhs = Expression(_pq(ctx, "V rr gmodi"),
                     [Leg(r("V", 1), r("rr", 1, 1)),
                      Leg(r("gmodi"), r("V", 2), r("rr", 1, 2))])
    rhs = Expression(_pq(ctx, "V rr p al"),
                     [Leg(r("V", 2), r("rr", 1, 2), r("p", 2)),
                      Leg(op("S2", r("V", 1), r("rr", 1, 1), r("p", 1)), r("al"))])
    return lhs, rhs


@_register("app3b", "S(pl2) f1 r1 x gmod^-1 S(pl1) f2 r2 "
                    "= mu(S(p2) f1) S(p1) f2 V2 r2 P2 x S^2(V1 r1 P1) alpha")
def _app3b(ctx):
    lhs = Expression(_pq(ctx, "pl f rr gmodi"),
                     [Leg(S(r("pl", 2)), r("f", 1), r("rr", 1, 1)),
                      Leg(r("gmodi"), S(r("pl", 1)), r("f", 2), r("rr", 1, 2))])
    rhs = Expression(
        {"p": ctx.p_r, "f": ctx.f, "V": ctx.v_cap, "rr": ctx.r,
         "P": ctx.p_r, "al": ctx.pres.alpha, **fns(ctx, "mu")},
        [Fn("mu", S(r("p", 2)), r("f", 1)),
         Leg(S(r("p", 1)), r("f", 2), r("V", 2), r("rr", 1, 2), r("P", 2)),
         Leg(op("S2", r("V", 1), r("rr", 1, 1), r("P", 1)), r("al"))])
    return lhs, rhs


@_register("inchileftcoint",
           "mui(ql1 h1 pl1) lam <- Si(ql2 h2 pl2) = mui(alpha) mu(beta) S(h) -> lam")
def _inchi(ctx):
    lhs = Expression({"h": VAR, "x": VAR, **_pq(ctx, "ql pl"), **fns(ctx, "mui", "lam")},
                     [Fn("mui", r("ql", 1), r("h", 1, 1), r("pl", 1)),
                      Fn("lam", Si(r("ql", 2), r("h", 1, 2), r("pl", 2)), r("x"))])
    rhs = Expression({"h": VAR, "x": VAR, "al": ctx.pres.alpha, "be": ctx.pres.beta,
                      **fns(ctx, "mui", "mu", "lam")},
                     [Fn("mui", r("al")), Fn("mu", r("be")),
                      Fn("lam", r("x"), S(r("h")))])
    return lhs, rhs


@_register("s4equivversion",
           "mu(f1) S^-2(h) Si(gmod^-1) S(f2) = mu(h1 f1) mui(h22) Si(gmod^-1) S(S(h21) f2)")
def _s4equiv(ctx):
    lhs = Expression({"h": VAR, "f": ctx.f, "gmodi": ctx.g_mod_inv, **fns(ctx, "mu")},
                     [Fn("mu", r("f", 1)),
                      Leg(op("Si2", r("h")), Si(r("gmodi")), S(r("f", 2)))])
    rhs = Expression({"h": VAR, "f": ctx.f, "gmodi": ctx.g_mod_inv, **fns(ctx, "mu", "mui")},
                     [Fn("mu", r("h", 1, 1), r("f", 1)),
                      Fn("mui", r("h", 1, 2, 2)),
                      Leg(Si(r("gmodi")), S(S(r("h", 1, 2, 1)), r("f", 2)))])
    return lhs, rhs


@_register("normdefmodelem",
           "lam(Si(f2) h1 g1 S(h')) Si(f1) h2 g2 = mu(F1) mui(U22 W2 alpha) mu(beta) "
           "mu(U1 y12 x2) lam(h S(y3 x32 h'2 pl2)) Si(gmod^-1 y11 x1) S(S(U21 W1 y2 x31 h'1 pl1) F2)")
def _normdef(ctx):
    lhs = Expression({"h": VAR, "hp": VAR, "f": ctx.f, "g": ctx.f_inv, **fns(ctx, "lam")},
                     [Fn("lam", Si(r("f", 2)), r("h", 1, 1), r("g", 1), S(r("hp"))),
                      Leg(Si(r("f", 1)), r("h", 1, 2), r("g", 2))])
    rhs = Expression(
        {"h": VAR, "hp": VAR, "F": ctx.f, "U": ctx.u_cap, "W": ctx.u_cap,
         "y": ctx.pres.phi_inv, "x": ctx.pres.phi_inv, "pl": ctx.p_l,
         "al": ctx.pres.alpha, "be": ctx.pres.beta, "gmodi": ctx.g_mod_inv,
         **fns(ctx, "mu", "mui", "lam")},
        [Fn("mu", r("F", 1)),
         Fn("mui", r("U", 2, 2), r("W", 2), r("al")),
         Fn("mu", r("be")),
         Fn("mu", r("U", 1), r("y", 1, 2), r("x", 2)),
         Fn("lam", r("h"), S(r("y", 3), r("x", 3, 2), r("hp", 1, 2), r("pl", 2))),
         Leg(Si(r("gmodi"), r("y", 1, 1), r("x", 1)),
             S(S(r("U", 2, 1), r("W", 1), r("y", 2), r("x", 3, 1),
                 r("hp", 1, 1), r("pl", 1)), r("F", 2)))])
    return lhs, rhs


@_register("fvfformunim",
           "lam(Si(f2) h1 g1 S(h')) Si(f1) h2 g2 = mu(beta F1) mui(Y3 U2 alpha) "
           "mu(Y1 U11 y21 x1) lam(h S(y3 x3 h'2 pl2)) Si(gmod^-1 y1) S(S(Y2 U12 y22 x2 h'1 pl1) F2)")
def _fvfformunim(ctx):
    lhs = Expression({"h": VAR, "hp": VAR, "f": ctx.f, "g": ctx.f_inv, **fns(ctx, "lam")},
                     [Fn("lam", Si(r("f", 2)), r("h", 1, 1), r("g", 1), S(r("hp"))),
                      Leg(Si(r("f", 1)), r("h", 1, 2), r("g", 2))])
    rhs = Expression(
        {"h": VAR, "hp": VAR, "F": ctx.f, "Y": ctx.pres.phi, "U": ctx.u_cap,
         "y": ctx.pres.phi_inv, "x": ctx.pres.phi_inv, "pl": ctx.p_l,
         "al": ctx.pres.alpha, "be": ctx.pres.beta, "gmodi": ctx.g_mod_inv,
         **fns(ctx, "mu", "mui", "lam")},
        [Fn("mu", r("be"), r("F", 1)),
         Fn("mui", r("Y", 3), r("U", 2), r("al")),
         Fn("mu", r("Y", 1), r("U", 1, 1), r("y", 2, 1), r("x", 1)),
         Fn("lam", r("h"), S(r("y", 3), r("x", 3), r("hp", 1, 2), r("pl", 2))),
         Leg(Si(r("gmodi"), r("y", 1)),
             S(S(r("Y", 2), r("U", 1, 2), r("y", 2, 2), r("x", 2),
                 r("hp", 1, 1), r("pl", 1)), r("F", 2)))])
    return lhs, rhs



# --- the formulas of intcoint, double and qha ------------------------------------------
#
# Each builder is the module's hand-built expression as it was, with the
# tensors of the form's extra letters that both sides are bound to.  Two
# more markers of the old notation appear in them:


def Hole(*items: Ref | Op) -> Leg:
    """The argument leg of an unknown functional: an ordinary leg."""
    return Leg(*items)


class VarIdx:
    """Where a variable's index leg was placed among the output legs."""

    def __init__(self, name: str):
        self.name = name


def _built(sources: dict, outputs: list) -> Expression:
    """The expression without its ``VarIdx`` markers, so that every index
    leg comes first, in the declaration order of the variables, where the
    parsed side has it: the reference's keys reordered to the parsed
    layout."""
    return Expression(sources, [out for out in outputs if not isinstance(out, VarIdx)])


REF_MODULES: dict[tuple[str, str], Callable] = {}
# (module, form) -> ctx -> {name: operator}: the operators a reference used
# beyond the context's, for the two forms that are rewrites, not transcriptions
REF_OPERATORS: dict[tuple[str, str], Callable] = {}


def _module(module: str, *names: str):
    def wrap(fn):
        for name in names:
            REF_MODULES[module, name] = partial(fn, name=name)
        return fn
    return wrap


def _single(sides: dict[str, Expression], name: str, tensors: dict | None = None):
    return tensors or {}, (sides[name],)


@_module("intcoint", "left-coint")
def _left_coint(ctx, name):
    pres = ctx.pres
    lhs = _built({"h": VAR, "V": ctx.v_cap, "U": ctx.u_cap},
                 [Hole(r("V", 2), r("h", 1, 2), r("U", 2)),
                  Leg(r("V", 1), r("h", 1, 1), r("U", 1))])
    rhs = _built({"h": VAR, "x": pres.phi_inv, **fns(ctx, "mu")},
                 [Fn("mu", r("x", 1)),
                  Hole(r("h"), S(r("x", 2))),
                  Leg(r("x", 3))])
    return {}, (lhs, rhs)


def _rc_pairs(ctx) -> dict[str, Expression]:
    return {
        "pair-A": _built({"pl": ctx.p_l, "f": ctx.f},
                         [Leg(S(r("pl", 2)), r("f", 1)),
                          Leg(S(r("pl", 1)), r("f", 2))]),
        "pair-B": _built({"ql": ctx.q_l, "g": ctx.f_inv},
                         [Leg(Si(r("ql", 2), r("g", 2))),
                          Leg(Si(r("ql", 1), r("g", 1)))]),
        "pair-C": _built({"f": ctx.f, "p": ctx.p_r},
                         [Leg(Si(r("f", 1), r("p", 1))),
                          Leg(Si(r("f", 2), r("p", 2)))]),
        "pair-D": _built({"g": ctx.f_inv, "q": ctx.q_r},
                         [Leg(r("g", 2), S(r("q", 1))),
                          Leg(r("g", 1), S(r("q", 2)))]),
    }


@_module("intcoint", "pair-A", "pair-B", "pair-C", "pair-D")
def _pairs(ctx, name):
    return _single(_rc_pairs(ctx), name)


def _pair_tensors(ctx, *names: str) -> dict[str, TensorElement]:
    pairs = _rc_pairs(ctx)
    return {name[-1]: pairs[name].evaluate(ctx.ops) for name in names}


@_module("intcoint", "right-coint")
def _right_coint(ctx, name):
    pres = ctx.pres
    tensors = _pair_tensors(ctx, "pair-A", "pair-B")
    lhs = _built({"h": VAR, "A": tensors["A"], "B": tensors["B"]},
                 [Hole(r("A", 1), r("h", 1, 1), r("B", 1)),
                  Leg(r("A", 2), r("h", 1, 2), r("B", 2))])
    rhs = _built({"h": VAR, "X": pres.phi, **fns(ctx, "mu")},
                 [Fn("mu", r("X", 3)),
                  Hole(r("h"), Si(r("X", 2))),
                  Leg(r("X", 1))])
    return tensors, (lhs, rhs)


@_module("intcoint", "rho")
def _rho(ctx, name):
    tensors = _pair_tensors(ctx, "pair-C", "pair-D")
    right = _built({"ei": VAR, "C": tensors["C"], "D": tensors["D"]},
                   [VarIdx("ei"),
                    Hole(r("C", 1), r("ei", 1, 2), r("D", 1)),
                    Leg(r("C", 2), r("ei", 1, 1), r("D", 2))])
    return tensors, (right,)


@_module("intcoint", "gmod", "gmod^-1", "u", "u^-1", "v", "v^-1", "d")
def _modular_and_comparison(ctx, name):
    pres = ctx.pres
    t = ctx.t
    return _single({
        "gmod": _built({"q": ctx.q_r, "t": t, "p": ctx.p_r, **fns(ctx, "lam")},
                       [Fn("lam", Si(r("q", 2), r("t", 1, 2), r("p", 2))),
                        Leg(Si(r("q", 1), r("t", 1, 1), r("p", 1)))]),
        "gmod^-1": _built({"q": ctx.q_r, "t": t, "p": ctx.p_r, **fns(ctx, "lam")},
                          [Fn("lam", r("q", 1), r("t", 1, 1), r("p", 1)),
                           Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))]),
        "u": _built({"V": ctx.v_cap, **fns(ctx, "mu")},
                    [Fn("mu", r("V", 1)), Leg(op("S2", r("V", 2)))]),
        "u^-1": _built({"q": ctx.q_r, "g": ctx.f_inv, **fns(ctx, "mui")},
                       [Fn("mui", r("q", 1, 2), r("g", 2), S(r("q", 2))),
                        Leg(S(r("q", 1, 1), r("g", 1)))]),
        "v": _built({"p": ctx.p_r, "f": ctx.f, **fns(ctx, "mu")},
                    [Fn("mu", S(r("p", 2)), r("f", 1)),
                     Leg(S(r("p", 1)), r("f", 2))]),
        "v^-1": _built({"q": ctx.q_r, "g": ctx.f_inv, "be": pres.beta, **fns(ctx, "mu")},
                       [Fn("mu", r("be"), r("q", 2), r("g", 1), S(r("q", 1, 2))),
                        Leg(r("g", 2), S(r("q", 1, 1)))]),
        "d": _built({"pl": ctx.p_l, **fns(ctx, "mui")},
                    [Fn("mui", r("pl", 1)), Leg(op("Si2", r("pl", 2)))]),
    }, name)


@_module("intcoint", "e-left", "e-cop", "e-op")
def _frobenius_elements(ctx, name):
    d = ctx.comparison.d
    return _single({
        "e-left": _built({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r},
                         [Leg(r("q", 1), r("t", 1, 1), r("p", 1)),
                          Leg(S(r("q", 2), r("t", 1, 2), r("p", 2)))]),
        "e-cop": _built({"ql": ctx.q_l, "t": ctx.t, "pl": ctx.p_l},
                        [Leg(r("ql", 1), r("t", 1, 1), r("pl", 1)),
                         Leg(S(r("ql", 2), r("t", 1, 2), r("pl", 2)))]),
        "e-op": _built({"q": ctx.q_r, "rr": ctx.r, "p": ctx.p_r, "d": d},
                       [Leg(Si(r("q", 2), r("rr", 1, 2), r("p", 2)), r("d")),
                        Leg(r("q", 1), r("rr", 1, 1), r("p", 1))]),
    }, name, {"d": d} if name == "e-op" else None)


@_module("intcoint", "nakayama", "nakayama^-1", "S(t)", "S(r)", "f-mu", "reading-b", "S4",
         "xi", "S_mu")
def _one_sided(ctx, name):
    return _single({
        "nakayama": _built({"h": VAR, **fns(ctx, "mu")},
                           [Fn("mu", r("h", 1, 1)), Leg(op("S2", r("h", 1, 2)))]),
        "nakayama^-1": _built({"h": VAR, **fns(ctx, "mu")},
                              [Fn("mu", r("h", 1, "C", 2)),
                               Leg(r("h", 1, "C", 1, "Si"))]),
        "S(t)": _built({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r, **fns(ctx, "mu")},
                       [Fn("mu", r("q", 2), r("t", 1, 2), r("p", 2)),
                        Leg(r("q", 1), r("t", 1, 1), r("p", 1))]),
        "S(r)": _built({"q": ctx.q_r, "rr": ctx.r, "p": ctx.p_r, **fns(ctx, "mui")},
                       [Fn("mui", r("q", 2), r("rr", 1, 2), r("p", 2)),
                        Leg(r("q", 1), r("rr", 1, 1), r("p", 1))]),
        "f-mu": _built({"f": ctx.f, **fns(ctx, "mu")}, [Fn("mu", r("f", 1)), Leg(r("f", 2))]),
        "reading-b": _built({"g": ctx.f_inv, **fns(ctx, "mui")},
                            [Fn("mui", r("g", 1)), Leg(r("g", 2))]),
        "S4": _built({"h": VAR, **fns(ctx, "mu", "mui")},
                     [Fn("mu", r("h", 1, 1)), Fn("mui", r("h", 1, 2, 2)),
                      Leg(op("S4", r("h", 1, 2, 1)))]),
        "xi": _built({"q": ctx.q_r, "t": ctx.t, "p": ctx.p_r},
                     [Hole(S(r("q", 2), r("t", 1, 2), r("p", 2))),
                      Leg(r("q", 1), r("t", 1, 1), r("p", 1))]),
        "S_mu": _built({"h": VAR, **fns(ctx, "mu")},
                       [Fn("mu", r("h", 1, "S", 1)), Leg(r("h", 1, "S", 2))]),
    }, name)


def _conjugation(ctx):
    pres = ctx.pres
    return {"C": ctx.s_inv.compose(multiplication_operator(pres.mult, ctx.u_el, "left").compose(
        multiplication_operator(pres.mult, ctx.u_inv, "right")))}


REF_OPERATORS["intcoint", "nakayama^-1"] = _conjugation
REF_OPERATORS["intcoint", "S4"] = lambda ctx: {"S4": ctx.s_squared.compose(ctx.s_squared)}


@_module("intcoint", "S4-rhs")
def _s4_rhs(ctx, name):
    pres = ctx.pres
    s3 = ctx.s_squared.compose(pres.antipode)
    f_mu, reading_b = (_one_sided(ctx, form)[1][0].evaluate(ctx.ops)
                       for form in ("f-mu", "reading-b"))
    tensors = {"A": s3.apply(reading_b), "B": pres.antipode.apply(ctx.g_mod),
               "C": pres.antipode.apply(ctx.g_mod_inv), "D": s3.apply(f_mu)}
    rhs = _built({"h": VAR, **tensors},
                 [Leg(r("A"), r("B"), r("h"), r("C"), r("D"))])
    return tensors, (rhs,)


@_module("intcoint", "left-ii", "left-iii", "left-iv", "right-i", "right-ii", "right-iii")
def _conditions(ctx, name):
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

    return {}, {
        "left-ii": (
            _built(pick("q t p"),
                   [Hole(r("q", 2), r("t", 1, 2), r("p", 2)),
                    Leg(r("q", 1), r("t", 1, 1), r("p", 1))]),
            _built({**pick("be t"), **fns(ctx, "mu")},
                   [Fn("mu", r("be")), Hole(r("t")), Leg()])),
        "left-iii": (
            _built(pick("t p"),
                   [Hole(r("t", 1, 2), r("p", 2)),
                    Leg(r("t", 1, 1), r("p", 1))]),
            _built({**pick("be t be2"), **fns(ctx, "mu")},
                   [Fn("mu", r("be")), Hole(r("t")), Leg(r("be2"))])),
        "left-iv": (
            _built(pick("t p", {"h": VAR}),
                   [Hole(r("h"), r("t", 1, 2), r("p", 2)),
                    Leg(r("t", 1, 1), r("p", 1))]),
            _built({**pick("be t be2", {"h": VAR}), **fns(ctx, "mu")},
                   [Fn("mu", r("be")), Hole(r("t")),
                    Leg(r("be2"), S(r("h")))])),
        "right-i": (
            _built(pick("ql t pl"),
                   [Hole(r("ql", 1), r("t", 1, 1), r("pl", 1)),
                    Leg(r("ql", 2), r("t", 1, 2), r("pl", 2))]),
            _built({**pick("be t"), **fns(ctx, "mui")},
                   [Fn("mui", r("be")), Hole(r("t")), Leg()])),
        "right-ii": (
            _built(pick("t pl"),
                   [Hole(r("t", 1, 1), r("pl", 1)),
                    Leg(r("t", 1, 2), r("pl", 2))]),
            _built({**pick("be t be2"), **fns(ctx, "mui")},
                   [Fn("mui", r("be")), Hole(r("t")), Leg(Si(r("be2")))])),
        "right-iii": (
            _built(pick("t pl", {"h": VAR}),
                   [Hole(r("h"), r("t", 1, 1), r("pl", 1)),
                    Leg(r("t", 1, 2), r("pl", 2))]),
            _built({**pick("be t be2", {"h": VAR}), **fns(ctx, "mui")},
                   [Fn("mui", r("be")), Hole(r("t")),
                    Leg(Si(r("h"), r("be2")))])),
    }[name]


@_module("intcoint", "unimodular-shortcut")
def _unimodular_shortcut(ctx, name):
    pres = ctx.pres
    lhs = _built({"t": ctx.t, **fns(ctx, "lam")},
                 [Fn("lam", r("t", 1, 2)), Leg(r("t", 1, 1))])
    rhs = _built({"t": ctx.t, "be": pres.beta, "al": pres.alpha, **fns(ctx, "lam")},
                 [Fn("lam", r("t")), Leg(r("be"), r("al"))])
    return {}, (lhs, rhs)


class Loop:
    """A side the module computed one basis element h at a time, kept as
    that loop: ``evaluate(ops)`` runs it, with the functionals of the
    context the parsed side is bound to, and stacks the results along h's
    index leg (and h' after it, when there is one)."""

    def __init__(self, run: Callable[[], TensorElement]):
        self.run = run

    def evaluate(self, ops) -> TensorElement:
        return self.run()


def _stacked(n: int, per_h) -> TensorElement:
    """The tensor whose slice at index h is ``per_h[h]``: a tensor, a
    functional (its coordinates) or a scalar."""
    slices = [TensorElement.vector(item.coords) if isinstance(item, Functional)
              else TensorElement(0, n, {(): item}) if isinstance(item, Scalar) else item
              for item in per_h]
    return TensorElement(slices[0].rank + 1, n, {(h, *key): value
                                                 for h, item in enumerate(slices)
                                                 for key, value in item.entries.items()})


@_module("intcoint", "integral-left", "integral-right")
def _integral_spaces(ctx, name):
    """The table of integral_space for every h: [j, m], the e_m coefficient
    of h e_j (left) or e_j h (right), and eps(h) when j = m."""
    pres, n = ctx.pres, ctx.pres.dim
    side = name.split("-")[1]
    identity = TensorElement(2, n, {(j, j): ONE for j in range(n)})
    e = pres.basis_element
    return {}, (
        Loop(lambda: _stacked(n, [_stacked(n, multiplication_operator(
            pres.mult, e(h), side).columns) for h in range(n)])),
        Loop(lambda: _stacked(n, [identity.scale(pres.counit(e(h))) for h in range(n)])))


@_module("intcoint", "t*h", "h*r", "mu-algebra-map", "mu-convolution")
def _integral_rows(ctx, name):
    """The loops of integral_report over the integrals and mu."""
    pres, n = ctx.pres, ctx.pres.dim
    e = pres.basis_element
    t, r = ctx.t, ctx.r
    fn = fns(ctx, "eps", "mu", "mui")

    def convolution(first, second):
        return _stacked(n, [fn[first](contract(fn[second], pres.coproduct.apply(e(i)), 1))
                            for i in range(n)])
    return {}, {
        "t*h": (Loop(lambda: _stacked(n, multiplication_operator(pres.mult, t, "left").columns)),
                Loop(lambda: _stacked(n, [t.scale(fn["mu"](e(i))) for i in range(n)]))),
        "h*r": (Loop(lambda: _stacked(n, multiplication_operator(pres.mult, r, "right").columns)),
                Loop(lambda: _stacked(n, [r.scale(fn["mui"](e(i))) for i in range(n)]))),
        "mu-algebra-map": (
            Loop(lambda: _stacked(n, [hit_functional_right(pres, fn["mu"], e(i))
                                      for i in range(n)])),
            Loop(lambda: _stacked(n, [
                _stacked(n, [fn["mu"](e(i)) * fn["mu"](e(j)) for j in range(n)])
                for i in range(n)]))),
        "mu-convolution": (Loop(lambda: convolution("mu", "mui")),
                           Loop(lambda: convolution("mui", "mu")),
                           Loop(lambda: _stacked(n, [fn["eps"](e(i)) for i in range(n)]))),
    }[name]


@_module("intcoint", "chi", "chi^-1", "centrality", "nakayama-shift", "xi^-1")
def _frobenius_rows(ctx, name):
    """The loops of frobenius_system, verify_frobenius and xi_report, on
    the left Frobenius element E and with lam as the functional phi."""
    pres, n = ctx.pres, ctx.pres.dim
    e = pres.basis_element
    big_e = ctx.frobenius("left").e

    def chi(phi, h):
        return contract(hit_functional_left(pres, h, phi), big_e, 0)

    lam = ctx.lam
    sides = {
        "chi": (Loop(lambda: _stacked(n, [chi(lam, e(h)) for h in range(n)])),),
        "chi^-1": (Loop(lambda: _stacked(n, [
            contract(hit_functional_right(pres, lam, e(h)), big_e, 1) for h in range(n)])),),
        "centrality": (
            Loop(lambda: _stacked(n, [apply_on_leg(multiplication_operator(
                pres.mult, e(i), "left"), big_e, 0) for i in range(n)])),
            Loop(lambda: _stacked(n, [apply_on_leg(multiplication_operator(
                pres.mult, e(i), "right"), big_e, 1) for i in range(n)]))),
        "nakayama-shift": (
            Loop(lambda: _stacked(n, [hit_functional_left(pres, e(i), lam) for i in range(n)])),
            Loop(lambda: _stacked(n, [hit_functional_right(pres, lam, chi(lam, e(i)))
                                      for i in range(n)]))),
        "xi^-1": (Loop(lambda: _stacked(n, [hit_functional_left(
            pres, e(j), _compose_functional(lam, ctx.s_inv)) for j in range(n)])),),
    }
    return ({} if name == "xi^-1" else {"E": big_e}), sides[name]


def _omega(ctx) -> Expression:
    pres = ctx.pres
    return _built(
        {"X": pres.phi, "y": pres.phi_inv, "x": pres.phi_inv, "f": ctx.f},
        [Leg(r("X", 1, 1, 1), r("y", 1), r("x", 1)),
         Leg(r("X", 1, 1, 2), r("y", 2), r("x", 2, 1)),
         Leg(r("X", 1, 2), r("y", 3), r("x", 2, 2)),
         Leg(Si(r("f", 1), r("X", 2), r("x", 3))),
         Leg(Si(r("f", 2), r("X", 3)))])


@_module("double", "omega")
def _double_omega(ctx, name):
    return {}, (_omega(ctx),)


@_module("double", "mult")
def _double_mult(ctx, name):
    omega = _omega(ctx).evaluate(ctx.ops)
    return {"Om": omega}, (_built(
        {"h": VAR, "Om": omega, "xx": VAR},
        [VarIdx("h"),
         Leg(r("Om", 3), r("h", 1, 1, 2)),
         Hole(r("Om", 5), r("xx", 1, 1), r("Om", 1)),
         Hole(Si(r("h", 1, 2)), r("Om", 4), r("xx", 1, 2), r("Om", 2), r("h", 1, 1, 1)),
         VarIdx("xx")]),)


@_module("double", "coproduct", "antipode", "antipode^-1")
def _double_tables(ctx, name):
    H = ctx.pres
    return _single({
        "coproduct": _built(
            {"h": VAR, "X": H.phi, "Y": H.phi, "x": H.phi_inv, "p": ctx.p_r,
             "w": VAR, "z": VAR},
            [VarIdx("h"),
             Leg(r("X", 1), r("Y", 1)),                                  # u
             Leg(r("p", 1, 2), r("x", 2), r("h", 1, 1)),                 # c
             Leg(r("X", 2, 2), r("Y", 3), r("x", 3), r("h", 1, 2)),      # e
             Hole(Si(r("X", 3)), r("z", 1), r("X", 2, 1),
                  r("Y", 2), Si(r("p", 2)), r("w", 1), r("p", 1, 1), r("x", 1)),
             VarIdx("w"), VarIdx("z")]),
        "antipode": _built(
            {"h": VAR, "f": ctx.f, "p": ctx.p_r, "U": ctx.u_cap, "xx": VAR},
            [Leg(S(r("h")), r("f", 1)),                                  # u
             Leg(r("p", 1, 2), r("U", 2)),                               # c
             Hole(Si(r("f", 2), Si(r("p", 2)), r("xx", 1), r("p", 1, 1), r("U", 1))),
             VarIdx("xx")]),
        "antipode^-1": _built(
            {"h": VAR, "f": ctx.f, "p": ctx.p_r, "q": ctx.q_r, "g": ctx.f_inv,
             "xx": VAR},
            [Leg(Si(r("f", 2), r("h", 1))),                             # u
             Leg(r("p", 1, 2), Si(r("q", 1), r("g", 1))),               # c
             Hole(S(Si(r("p", 2), r("f", 1)), r("xx", 1), r("p", 1, 1),
                    Si(r("q", 2), r("g", 2)))),
             VarIdx("xx")]),
    }, name)


@_module("double", "integral", "left-cointegral", "modular", "modular-second",
         "unimodular-conjecture")
def _double_elements(ctx, name):
    base = ctx
    return _single({
        "integral": _built({"ea": VAR, "dl": base.delta_el, **fns(ctx, "mui", "lam")},
                           [VarIdx("ea"),
                            Fn("mui", r("dl", 2)),
                            Fn("lam", r("ea", 1), r("dl", 1))]),
        "left-cointegral": _built({"h": VAR, "pl": base.p_l, "f": base.f,
                                   **fns(ctx, "mu", "mui", "lam")},
                                  [VarIdx("h"),
                                   Fn("mu", r("pl", 1)), Fn("mui", r("f", 1)),
                                   Fn("lam", Si(r("f", 2)), r("h", 1), S(r("pl", 2)))]),
        "modular": _built({"g": base.f_inv, "gi": base.g_mod_inv, **fns(ctx, "mu", "mui")},
                          [Fn("mu", r("g", 1, 1)), Fn("mui", r("g", 2)),
                           Leg(r("g", 1, 2), op("Si2", r("gi")))]),
        "modular-second": _built(
            {"ql": base.q_l, "g": base.f_inv, "pl": base.p_l, **fns(ctx, "mu", "mui")},
            [Fn("mu", r("ql", 1), r("g", 1)),
             Fn("mui", r("pl", 1)),
             Fn("mui", r("g", 2, "Si", 1), r("ql", 2, "Si", 1)),
             Leg(r("g", 2, "Si", 2), r("ql", 2, "Si", 2), r("pl", 2))]),
        "unimodular-conjecture": _built({"dl": base.delta_el, **fns(ctx, "mui")},
                                        [Fn("mui", r("dl", 2)), Leg(r("dl", 1))]),
    }, name)


@_module("double", "two-sided-integral")
def _double_two_sided_integral(ctx, name):
    """The loop of double_report over every h: h T, T h and eps(h) T, with
    the integral t as T."""
    pres, n, big_t = ctx.pres, ctx.pres.dim, ctx.t
    return {"T": big_t}, (
        Loop(lambda: _stacked(n, multiplication_operator(pres.mult, big_t, "right").columns)),
        Loop(lambda: _stacked(n, multiplication_operator(pres.mult, big_t, "left").columns)),
        Loop(lambda: _stacked(n, [big_t.scale(pres.counit.coords[k]) for k in range(n)])))


@_module("qha", "q3", "q5-alpha", "q5-beta", "q6-left", "q6-right")
def _axioms(ctx, name):
    """The axiom sides; q5 runs over the generating set G, the first leg of
    its letter G = sum_g e_g x e_g."""
    pres = ctx.pres
    phi, phi_inv, alpha, beta = pres.phi, pres.phi_inv, pres.alpha, pres.beta
    gens, _ = generating_set(pres)
    domain = TensorElement(2, pres.dim, {(g, g): ONE for g in gens})
    return {"G": domain}, {
        "q3": (_built({"Z": phi, "X": phi, "Y": phi},
                      [Leg(r("X", 1), r("Y", 1)),
                       Leg(r("Z", 1), r("X", 2, 1), r("Y", 2)),
                       Leg(r("Z", 2), r("X", 2, 2), r("Y", 3)),
                       Leg(r("Z", 3), r("X", 3))]),
               _built({"A": phi, "B": phi},
                      [Leg(r("A", 1), r("B", 1, 1)),
                       Leg(r("A", 2), r("B", 1, 2)),
                       Leg(r("A", 3, 1), r("B", 2)),
                       Leg(r("A", 3, 2), r("B", 3))])),
        "q5-alpha": (_built({"G": domain, "a": alpha},
                            [Leg(r("G", 1)), Leg(S(r("G", 2, 1)), r("a"), r("G", 2, 2))]),),
        "q5-beta": (_built({"G": domain, "b": beta},
                           [Leg(r("G", 1)), Leg(r("G", 2, 1), r("b"), S(r("G", 2, 2)))]),),
        "q6-left": (_built({"X": phi, "b": beta, "a": alpha},
                           [Leg(r("X", 1), r("b"), S(r("X", 2)), r("a"), r("X", 3))]),),
        "q6-right": (_built({"x": phi_inv, "a": alpha, "b": beta},
                            [Leg(S(r("x", 1)), r("a"), r("x", 2), r("b"), S(r("x", 3)))]),),
    }[name]
