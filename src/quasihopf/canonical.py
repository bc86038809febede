"""Canonical two-leg elements of a quasi-Hopf algebra and the registry of
named tensor identities relating them.

Everything here is computed from structure constants through the expression
evaluator; each constructor double-checks itself (both closed forms of
the gamma/delta elements, invertibility of the twist) and the registry
evaluates every identity to an exact residual tensor.

Every closed form and every identity is written once, as a formula in the
grammar of :mod:`expr`, and parsed when this module is imported; the text
``quasihopf identities`` prints is the text that is evaluated.  The letters
of the formulas are the table :data:`LETTERS`: each maps to the context
attribute it reads (X, Y, Z to phi, x, y, z to phi^-1, g and G to f^-1, and
so on) and to its number of legs.  Binding a formula to a context reads
only the attributes of the letters it uses, so an identity among p_R and
q_R computes no integral.  Every function here takes the context, and
every bound formula is evaluated with ``ctx.ops``, which reads the
functionals eps, mu, mui, lam and Lam from the context when a formula
names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

from .exactnum import ONE
from .expr import VAR, Expression, ExpressionError
from .multilinear import TensorElement, mult_pointwise, tensor_product
from .report import VerificationReport

class InternalIdentityFailure(ArithmeticError):
    pass


class TwistNotInvertible(ArithmeticError):
    pass


class UnknownIdentity(KeyError):
    pass


@dataclass(frozen=True)
class CanonicalElements:
    gamma: TensorElement
    delta: TensorElement
    f: TensorElement
    f_inv: TensorElement
    p_r: TensorElement
    q_r: TensorElement
    p_l: TensorElement
    q_l: TensorElement
    u_cap: TensorElement  # U
    v_cap: TensorElement  # V


# -- the letters of the formulas ---------------------------------------------------

# letter -> (the context attribute it reads, its number of legs).  A second
# independent copy of an element is a second letter for the same attribute.
# h and h' are the free variables, in this order.
LETTERS: dict[str, tuple[str, int]] = {
    **dict.fromkeys("XYZ", ("pres.phi", 3)), **dict.fromkeys("xyz", ("pres.phi_inv", 3)),
    "f": ("f", 2), "F": ("f", 2), "g": ("f_inv", 2), "G": ("f_inv", 2),
    "p": ("p_r", 2), "P": ("p_r", 2), "pl": ("p_l", 2), "Pl": ("p_l", 2),
    "q": ("q_r", 2), "Q": ("q_r", 2), "ql": ("q_l", 2), "Ql": ("q_l", 2),
    "U": ("u_cap", 2), "W": ("u_cap", 2), "V": ("v_cap", 2),
    "gamma": ("gamma", 2), "delta": ("delta_el", 2),
    "alpha": ("pres.alpha", 1), "alpha'": ("pres.alpha", 1),
    "beta": ("pres.beta", 1), "beta'": ("pres.beta", 1),
    "t": ("t", 1), "r": ("r", 1),
    "gmod": ("g_mod", 1), "gmod'": ("g_mod", 1), "gmod^-1": ("g_mod_inv", 1),
    "u": ("u_el", 1), "u^-1": ("u_inv", 1), "v": ("v_el", 1), "v^-1": ("v_inv", 1),
}
_RANKS = {"h": VAR, "h'": VAR, **{letter: rank for letter, (_, rank) in LETTERS.items()}}


def _parse(name: str, formula: str, sides: Sequence[str],
           letters: dict[str, int | str] = _RANKS) -> tuple[Expression, ...]:
    try:
        return tuple(Expression.parse(side, letters) for side in sides)
    except ExpressionError as err:
        raise ExpressionError(f"{name} {formula!r}: {err}") from None


def parse(formula: str, **extra: int | str) -> tuple[Expression, ...]:
    """The sides of ``formula``, split at `` = ``, in the letters of
    :data:`LETTERS`, the variables h and h', and ``extra``: the letters of
    this formula alone, each with its number of legs or :data:`VAR`.  An
    extra letter replaces a letter of the table, and the extra variables
    come first among the index legs, in the order given."""
    letters = {**extra, **{name: rank for name, rank in _RANKS.items() if name not in extra}}
    return _parse("formula", formula, formula.split(" = "), letters)


def _bind(ctx, side: Expression, **tensors: TensorElement) -> Expression:
    """``side`` with each letter it uses bound to ``tensors`` or else to its
    context attribute; no other attribute is read."""
    return side.bind({name: tensors[name] if name in tensors
                      else attrgetter(LETTERS[name][0])(ctx)
                      for name, src in side.sources.items() if src != VAR})


def _bind_all(ctx, sides: Sequence[Expression], **tensors: TensorElement
              ) -> tuple[Expression, ...]:
    return tuple(_bind(ctx, side, **tensors) for side in sides)


def _value(ctx, side: Expression, **tensors: TensorElement) -> TensorElement:
    """``side`` bound to ``ctx`` (and ``tensors``) and evaluated on it."""
    return _bind(ctx, side, **tensors).evaluate(ctx.ops)


# -- constructors ----------------------------------------------------------------

# closed forms of the canonical elements; gamma and delta have two each
FORMS = {name: _parse(name, " = ".join(texts), texts) for name, texts in {
    "gamma": ("S(x1 X2) alpha x2 X3_1 x S(X1) alpha' x3 X3_2",
              "S(X2 x1_2) alpha X3 x2 x S(X1 x1_1) alpha' x3"),
    "delta": ("X1_1 x1 beta S(X3) x X1_2 x2 beta' S(X2 x3)",
              "x1 beta S(x3_2 X3) x x2 X1 beta' S(x3_1 X2)"),
    "f": ("S(x1_2) gamma1 x2_1 beta_1 S(x3)_1 x S(x1_1) gamma2 x2_2 beta_2 S(x3)_2",),
    "f^-1": ("S(x1)_1 alpha_1 x2_1 delta1 S(x3_2) x S(x1)_2 alpha_2 x2_2 delta2 S(x3_1)",),
    "pR": ("x1 x x2 beta S(x3)",),
    "qR": ("X1 x Si(alpha X3) X2",),
    "pL": ("X2 Si(X1 beta) x X3",),
    "qL": ("S(x1) alpha x2 x x3",),
    "U": ("g1 S(q2) x g2 S(q1)",),
    "V": ("Si(f2 p2) x Si(f1 p1)",),
}.items()}


def gamma_delta(ctx) -> tuple[TensorElement, TensorElement]:
    """Both closed forms of each element are evaluated; a mismatch means
    the presentation is corrupted."""
    elements = []
    for name in ("gamma", "delta"):
        first, second = (_value(ctx, side) for side in FORMS[name])
        if first != second:
            raise InternalIdentityFailure(f"{ctx.pres.name}: the two {name} forms disagree")
        elements.append(first)
    return elements[0], elements[1]


def drinfeld_twist(ctx) -> tuple[TensorElement, TensorElement]:
    pres = ctx.pres
    f, f_inv = _value(ctx, *FORMS["f"]), _value(ctx, *FORMS["f^-1"])
    unit2 = tensor_product(pres.unit, pres.unit)
    if (mult_pointwise(pres.mult, f, f_inv) != unit2
            or mult_pointwise(pres.mult, f_inv, f) != unit2):
        raise TwistNotInvertible(f"{pres.name}: twist times its inverse is not 1 x 1")
    return f, f_inv


def pq_elements(ctx) -> tuple[TensorElement, TensorElement, TensorElement, TensorElement]:
    return tuple(_value(ctx, *FORMS[name]) for name in ("pR", "qR", "pL", "qL"))


def uv_elements(ctx) -> tuple[TensorElement, TensorElement]:
    return _value(ctx, *FORMS["U"]), _value(ctx, *FORMS["V"])


def canonical_elements(ctx) -> CanonicalElements:
    return CanonicalElements(
        gamma=ctx.gamma, delta=ctx.delta_el, f=ctx.f, f_inv=ctx.f_inv,
        p_r=ctx.p_r, q_r=ctx.q_r, p_l=ctx.p_l, q_l=ctx.q_l,
        u_cap=ctx.u_cap, v_cap=ctx.v_cap)


# -- the identity registry --------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """A named identity and the formula it is parsed from.  A custom one
    computes its own residual from the context and its parsed sides."""

    name: str
    formula: str
    sides: tuple[Expression, ...]
    residual: Callable | None = None

    @property
    def custom(self) -> bool:
        return self.residual is not None

    def build(self, ctx):
        """(lhs, rhs) bound to ``ctx``, or the residual if custom."""
        if self.custom:
            return self.residual(ctx, *self.sides)
        return tuple(_bind(ctx, side) for side in self.sides)


# name -> one named identity
IdentityRegistry = dict[str, Identity]

REGISTRY: IdentityRegistry = {}

# grouped spellings accepted wherever a registry name is expected
ALIASES: dict[str, tuple[str, ...]] = {
    "f2": ("f2a", "f2b"),
    "qqt": ("qqt-left", "qqt-right"),
    "gdf": ("gdf-gamma", "gdf-delta"),
    "fgab": ("fgab-beta", "fgab-alpha", "fgab-salpha"),
    "uvpql": ("uvpql-u", "uvpql-v"),
    "firstRadformforquasi": ("firstRad-fn", "firstRad-el"),
    "qtrversustqlattpla": ("qtr-fn", "qtr-el"),
}


def resolve_names(names) -> list[str]:
    out: list[str] = []
    for name in names:
        if name in ALIASES:
            out.extend(ALIASES[name])
        else:
            out.append(name)
    return out


def _identity(name: str, formula: str) -> None:
    """Parse ``formula`` now, so that a malformed one fails at import."""
    sides = formula.split(" = ")
    if len(sides) != 2:
        raise ExpressionError(f"{name} {formula!r}: not one equation")
    REGISTRY[name] = Identity(name, formula, _parse(name, formula, sides))


# --- relations among the p/q elements (no integrals required) -------------------

_identity("qr1", "h_11 p1 x h_12 p2 S(h_2) = p1 h x p2")
_identity("qr1a", "q1 h_11 x Si(h_2) q2 h_12 = h q1 x q2")
_identity("ql1", "h_21 pl1 Si(h_1) x h_22 pl2 = pl1 x pl2 h")
_identity("ql1a", "S(h_1) ql1 h_21 x ql2 h_22 = ql1 x h ql2")
_identity("pqra", "q1 p1_1 x Si(p2) q2 p1_2 = 1 x 1")
_identity("pqr", "q1_1 p1 x q1_2 p2 S(q2) = 1 x 1")
_identity("pql", "S(pl1) ql1 pl2_1 x ql2 pl2_2 = 1 x 1")
_identity("pqla", "ql2_1 pl1 Si(ql1) x ql2_2 pl2 = 1 x 1")
_identity("pr1", "X1 p1_1 P1 x X2 p1_2 P2 x X3 p2 "
                 "= x1_1 p1 x x1_21 p2_1 g1 S(x3) x x1_22 p2_2 g2 S(x2)")
_identity("qr2", "q1 Q1_1 x1 x q2 Q1_2 x2 x Q2 x3 "
                 "= q1 X1_1 x Si(f2 X3) q2_1 X1_21 x Si(f1 X2) q2_2 X1_22")
_identity("pl1", "x1 pl1 x x2 pl2_1 Pl1 x x3 pl2_2 Pl2 "
                 "= X3_11 pl1_1 Si(X2 g2) x X3_12 pl1_2 Si(X1 g1) x X3_2 pl2")
_identity("ql2", "Ql1 X1 x ql1 Ql2_1 X2 x ql2 Ql2_2 X3 "
                 "= S(x2) f1 ql1_1 x3_11 x S(x1) f2 ql1_2 x3_12 x ql2 x3_2")

# --- the twist -------------------------------------------------------------------

_identity("ca", "f1 S(h)_1 g1 x f2 S(h)_2 g2 = S(h_2) x S(h_1)")
_identity("gdf-gamma", "f1 alpha_1 x f2 alpha_2 = gamma1 x gamma2")
_identity("gdf-delta", "beta_1 g1 x beta_2 g2 = delta1 x delta2")
_identity("pf", "f1 X1 x F1 f2_1 X2 x F2 f2_2 X3 = S(X3) f1 F1_1 x S(X2) f2 F1_2 x S(X1) F2")
_identity("fgab-beta", "g1 S(g2 alpha) = beta")
_identity("fgab-alpha", "S(beta f1) f2 = alpha")
_identity("fgab-salpha", "f1 beta S(f2) = S(alpha)")
_identity("f-counit", "eps(f1) f2 x eps(F2) F1 = 1 x 1")

# --- U and V ---------------------------------------------------------------------

_identity("fu1", "U1 x U2 S(h) = S(h_1)_1 U1 h_2 x S(h_1)_2 U2")
_identity("fv1", "V1 x Si(h) V2 = h_2 V1 Si(h_1)_1 x V2 Si(h_1)_2")
_identity("qqlv", "q1 x q2 = ql2 V1 Si(ql1)_1 x V2 Si(ql1)_2")
_identity("pplu", "p1 x p2 = S(pl1)_1 U1 pl2 x S(pl1)_2 U2")
_identity("uvpql-u", "U1 x U2 = ql1_1 p1 x ql1_2 p2 S(ql2)")
_identity("uvpql-v", "V1 x V2 = q1 pl1_1 x Si(pl2) q2 pl1_2")
_identity("formtplfversusqg", "S(pl2) f1 x S(pl1) f2 = q1 g1_1 x Si(g2) q2 g1_2")
_identity("fpformula", "S(g1) ql1 g2_1 x ql2 g2_2 = S(p2) f1 x S(p1) f2")

# --- reassociator shuffles used by the double -------------------------------------

_identity("peq", "X1 p1_1 x X2 p1_2 x X3 p2 = x1 x x2_1 p1 x x2_2 p2 S(x3)")
_identity("qlqr", "X1 x S(X2) ql1 X3_1 x ql2 X3_2 = q1 x1_1 x S(q2 x1_2) x2 x x3")
_identity("tplvspr", "x1 x x2 S(x3_1 pl1) x x3_2 pl2 = X1_1 p1 x X1_2 p2 S(X2) x X3")
_identity("fdeltaDrinf", "h_11 delta1 S(h_22) x h_12 delta2 S(h_21) = eps(h) delta1 x delta2")
_identity("foressleftintqd", "Y1 delta1 S(Y3_2) x Y2 delta2 S(Y3_1) = beta S(pl2) x S(pl1)")
_identity("foressleftintqd2",
          "z1 pl1 x z2 pl2_1 x z3 pl2_2 = Y2_1 Z2 Si(Y1 Z1 beta) x Y2_2 Z3 x Y3")
_identity("foressleftintqd3", "X1 x q1 X2_1 x Si(X3) q2 X2_2 = q1_1 x1 x q1_2 x2 x q2 x3")

# --- auxiliary element shuffles ------------------------------------------------------

_identity("app2", "X1_1 x1 delta1 S(X3_2) x X1_2 x2 delta2_1 S(X3_1)_1 "
                  "x X2 x3 delta2_2 S(X3_1)_2 = beta_1 S(X3)_1 g1 S(x3) "
                  "x beta_2 S(X3)_2 g2 S(x2) f1 x X1 beta' S(x1 X2) f2")
_identity("app2a", "f2 V1 Si(f1)_1 x V2 Si(f1)_2 = ql1 x ql2")
_identity("app2aa", "S(U1) ql1 U2_1 x ql2 U2_2 = f1 x f2")
_identity("app2b", "S(p1) F2 f2_2 X3 x S(p2 f1 X1) F1 f2_1 X2 = 1 x alpha")

# --- identities that need integrals and cointegrals --------------------------------

_identity("f2a", "t_1 x S(t_2) = q1 t_1 x S(q2 t_2) beta")
_identity("f2b", "t_1 x S(t_2) = beta q1 t_1 x S(q2 t_2)")
_identity("movingelem1", "t_1 p1 h x t_2 p2 = mu(h_1) t_1 p1 x t_2 p2 S(h_2)")
_identity("f4", "lam(Si(h) h') = mu(h_1) lam(h' S(h_2))")
_identity("lcointsimpl", "lam(q2 h_2 p2 S(h')) q1 h_1 p1 "
                         "= mu(x1) lam(Si(ql1) h S(x2 h'_1 pl1)) ql2 x3 h'_2 pl2")
_identity("prelimpobs", "lam(q2 t_2 p2) q1 t_1 p1 = mu(beta) lam(t) 1")
_identity("qqt-left", "q1 t_1 x q2 t_2 = ql1 t_1 x ql2 t_2")
_identity("qqt-right", "r_1 p1 x r_2 p2 = r_1 pl1 x r_2 pl2")
_identity("f1", "h q1 t_1 x q2 t_2 = q1 t_1 x Si(h) q2 t_2")
_identity("elemmovedbyrightint", "r_1 p1 h x r_2 p2 = r_1 p1 x r_2 p2 S(h)")
_identity("rint3", "h r_1 x r_2 = mui(h_1 p1) q1 r_1 x Si(h_2 p2) q2 r_2")
_identity("rint4", "r_1 U1 x r_2 U2 S(h) = r_1 U1 h x r_2 U2")
_identity("rint5", "V1 r_1 x Si(h) V2 r_2 = mu(h_1) h_2 V1 r_1 x V2 r_2")
_identity("firstRad-fn", "lam(Si(h)) = lam(gmod h)")
_identity("firstRad-el", "q1 t_1 p1 x S(q2 t_2 p2) = q2 t_2 p2 x gmod^-1 Si(q1 t_1 p1)")
_identity("lamSm2", "lam(Si2(h)) = lam(gmod h S(gmod'))")
_identity("qtr-fn", "lam(Si(h)) = Lam(u h)")
_identity("qtr-el", "q1 t_1 p1 x S(q2 t_2 p2) = ql1 t_1 pl1 x u^-1 S(ql2 t_2 pl2)")
_identity("lamS-v", "lam(S(h)) = Lam(v h)")
_identity("tsFrobelem", "V1 r_1 U1 x V2 r_2 U2 = Si(q2 S(r)_2 p2) x Si(q1 S(r)_1 p1)")
_identity("qrpversusqtp",
          "q1 r_1 p1 x q2 r_2 p2 = mu(ql1) ql2 Si(q2 S(r)_2 p2) x Si(q1 S(r)_1 p1)")
_identity("app4", "V1 r_1 x gmod^-1 V2 r_2 = V2 r_2 p2 x S2(V1 r_1 p1) alpha")
_identity("app3b", "S(pl2) f1 r_1 x gmod^-1 S(pl1) f2 r_2 "
                   "= mu(S(p2) f1) S(p1) f2 V2 r_2 P2 x S2(V1 r_1 P1) alpha")
_identity("inchileftcoint",
          "mui(ql1 h_1 pl1) lam(Si(ql2 h_2 pl2) h') = mui(alpha) mu(beta) lam(h' S(h))")
_identity("s4equivversion", "mu(f1) Si2(h) Si(gmod^-1) S(f2) "
                            "= mu(h_1 f1) mui(h_22) Si(gmod^-1) S(S(h_21) f2)")
_identity("normdefmodelem",
          "lam(Si(f2) h_1 g1 S(h')) Si(f1) h_2 g2 = mu(F1) mui(U2_2 W2 alpha) mu(beta) "
          "mu(U1 y1_2 x2) lam(h S(y3 x3_2 h'_2 pl2)) Si(gmod^-1 y1_1 x1) "
          "S(S(U2_1 W1 y2 x3_1 h'_1 pl1) F2)")
_identity("fvfformunim",
          "lam(Si(f2) h_1 g1 S(h')) Si(f1) h_2 g2 = mu(beta F1) mui(Y3 U2 alpha) "
          "mu(Y1 U1_1 y2_1 x1) lam(h S(y3 x3 h'_2 pl2)) Si(gmod^-1 y1) "
          "S(S(Y2 U1_2 y2_2 x2 h'_1 pl1) F2)")

# --- custom identities ----------------------------------------------------------------


def _mumuinv(ctx):
    ab = ctx.pres.multiply(ctx.pres.alpha, ctx.pres.beta)
    value = ctx.mu(ab) * ctx.mu_inv(ab)
    return TensorElement(0, ctx.pres.dim, {(): value - ONE})


REGISTRY["mumuinv"] = Identity("mumuinv", "mu(alpha beta) mui(alpha beta) = 1", (), _mumuinv)


def _cop_identity(name: str, letter: str, expected: str) -> None:
    """The element ``letter`` of H^cop against its closed form in H, the
    parsed ``expected``."""
    formula = f"{letter}1 x {letter}2 of H^cop = {expected}"
    cop_element = attrgetter(LETTERS[letter][0])

    def residual(ctx, side: Expression) -> TensorElement:
        return cop_element(ctx.variant_ctx("cop")) - _value(ctx, side)
    REGISTRY[name] = Identity(name, formula, _parse(name, formula, [expected]), residual)


_cop_identity("cop-gamma", "gamma", "Si(gamma1) x Si(gamma2)")
_cop_identity("cop-f", "f", "Si(f1) x Si(f2)")
_cop_identity("cop-pr", "p", "pl2 x pl1")
_cop_identity("cop-qr", "q", "ql2 x ql1")


# -- running the registry -----------------------------------------------------------


def evaluate_identity(ctx, name: str) -> TensorElement:
    """Residual of a registered identity: the zero tensor when it holds,
    else lhs - rhs.  Each free variable contributes an index leg, so one
    evaluation of each side covers every basis element."""
    ident = REGISTRY.get(name)
    if ident is None:
        raise UnknownIdentity(name)
    if ident.custom:
        return ident.build(ctx)
    left, right = (side.evaluate(ctx.ops) for side in ident.build(ctx))
    return TensorElement.zero(0, ctx.pres.dim) if left == right else left - right


def check_identity(ctx, name: str):
    residual = evaluate_identity(ctx, name)
    report = VerificationReport(ctx.pres.name)
    row = report.check_zero(f"identity:{name}", residual)
    return row


def identity_suite(ctx, names: list[str] | None = None) -> VerificationReport:
    """Evaluate every registered identity (or the given subset) exactly."""
    report = VerificationReport(ctx.pres.name)
    selected = sorted(REGISTRY) if names is None else resolve_names(names)
    for name in selected:
        if name not in REGISTRY:
            raise UnknownIdentity(name)
        report.check_zero(f"identity:{name}", evaluate_identity(ctx, name))
    return report
