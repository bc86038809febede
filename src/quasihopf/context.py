"""Per-algebra workspace: lazily computed, cached axiom reports, canonical
elements, integrals, cointegrals and modular data for one presentation.

Everything is a pure function of the presentation; the cache only avoids
recomputation.  Initialization of each entry is guarded by a re-entrant
lock so contexts can be shared between threads.

``ctx.ops`` is what every formula on the algebra is evaluated with: its
table, unit, coproduct, the operators S, Si, S2 and Si2, and the
functionals eps, mu, mui, lam and Lam, which it reads from the context
lazily, so a formula computes only the functionals it names.
"""

from __future__ import annotations

import threading
import weakref
from operator import attrgetter, itemgetter
from typing import Callable

from . import canonical, intcoint
from .expr import AlgebraOps
from .multilinear import (Functional, LinearOperator, TensorElement, invert_operator,
                          multiplication_operator)
from .qha import QhaPresentation, antipode_inverse, variant, verify_axioms
from .report import VerificationReport


# functional name of the formulas -> the context attribute it reads
_FUNCTIONALS = {name: attrgetter(attr) for name, attr in {
    "eps": "pres.counit", "mu": "mu", "mui": "mu_inv", "lam": "lam", "Lam": "big_lam",
}.items()}


class _LazyFunctionals:
    """The functionals of a context by their names in the formulas, each
    read from the context only when an expression asks for it, so a formula
    without ``lam`` computes no cointegral.  The view holds its context
    weakly: the context keeps its ``ops``, and no reference cycle keeps the
    context alive.  So an ``ops`` reads functionals only while its context
    lives."""

    def __init__(self, ctx: "AlgebraContext"):
        self._ctx = weakref.ref(ctx)

    def get(self, name: str) -> Functional | None:
        read = _FUNCTIONALS.get(name)
        return None if read is None else read(self._ctx())


class _Entry:
    """A fact a context caches: ``builder(ctx)`` of ``module``, run once per
    context and kept in its memo under the attribute's name.  The builder is
    looked up through its module each time it runs, so a wrapper put on the
    module sees the call."""

    def __init__(self, module, builder: str):
        self._module, self._builder = module, builder

    def __set_name__(self, owner, name: str):
        self._key = name

    def __get__(self, ctx: "AlgebraContext | None", owner=None):
        if ctx is None:
            return self
        return ctx._get(self._key, lambda: getattr(self._module, self._builder)(ctx))

    def parts(self, *parts: int | str) -> tuple["_Part", ...]:
        """One attribute per part of the entry: an int reads that item of
        the tuple the builder returns, a str that field of its record."""
        return tuple(_Part(self, itemgetter(p) if isinstance(p, int) else attrgetter(p))
                     for p in parts)


class _Part:
    """An attribute that reads one part of an entry."""

    def __init__(self, entry: _Entry, read: Callable[[object], object]):
        self._entry, self._read = entry, read

    def __get__(self, ctx: "AlgebraContext | None", owner=None):
        return self if ctx is None else self._read(self._entry.__get__(ctx))


class AlgebraContext:
    def __init__(self, pres: QhaPresentation):
        self.pres = pres
        self._lock = threading.RLock()
        self._memo: dict[str, object] = {}
        # entries a variant takes from H's context instead of building them
        self._shared: dict[str, Callable[[], object]] = {}

    def _get(self, key: str, build: Callable[[], object]):
        with self._lock:
            if key not in self._memo:
                self._memo[key] = self._shared.get(key, build)()
            return self._memo[key]

    # -- axioms --------------------------------------------------------------

    def axiom_report(self, known: VerificationReport | None = None) -> VerificationReport:
        """``verify_axioms`` of the presentation, run at most once; ``known``
        stores a report the caller has already computed."""
        return self._get("axioms",
                         lambda: known if known is not None else verify_axioms(self.pres))

    # -- operator registry ---------------------------------------------------

    @property
    def s_inv(self) -> LinearOperator:
        return self._get("s_inv", lambda: antipode_inverse(self.pres))

    @property
    def ops(self) -> AlgebraOps:
        def build():
            s = self.pres.antipode
            si = self.s_inv
            return AlgebraOps(
                self.pres.dim, self.pres.mult, self.pres.unit, self.pres.coproduct,
                operators={"S": s, "Si": si,
                           "S2": s.compose(s), "Si2": si.compose(si)},
                functionals=_LazyFunctionals(self))
        return self._get("ops", build)

    # -- canonical elements ----------------------------------------------------

    gamma_delta = _Entry(canonical, "gamma_delta")
    gamma, delta_el = gamma_delta.parts(0, 1)
    twist = _Entry(canonical, "drinfeld_twist")
    f, f_inv = twist.parts(0, 1)
    pq = _Entry(canonical, "pq_elements")
    p_r, q_r, p_l, q_l = pq.parts(0, 1, 2, 3)
    uv = _Entry(canonical, "uv_elements")
    u_cap, v_cap = uv.parts(0, 1)

    # -- integrals, cointegrals and the modular and comparison elements ---------

    integral_data = _Entry(intcoint, "compute_integral_data")
    t, r, mu, mu_inv = integral_data.parts("left_basis", "right_basis", "mu", "mu_inv")
    cointegral_data = _Entry(intcoint, "compute_cointegral_data")
    lam, big_lam, g_mod, g_mod_inv = cointegral_data.parts(
        "left_basis", "right_basis", "g_modular", "g_modular_inv")
    comparison = _Entry(intcoint, "comparison_elements")
    u_el, u_inv, v_el, v_inv = comparison.parts("u", "u_inv", "v", "v_inv")

    def frobenius(self, which: str = "left") -> intcoint.FrobeniusSystem:
        return self._get(f"frobenius:{which}",
                         lambda: intcoint.frobenius_system(self, which))

    # -- variants ----------------------------------------------------------------

    def variant_ctx(self, which: str) -> "AlgebraContext":
        """The context of H^op, H^cop or H^opcop, kept on its presentation.
        It takes from this context what the two share: S^-1 is S after one
        flip and S^-1 after both, and the integral data are H's, with left
        and right and mu and mu^-1 exchanged when op reverses the products.
        The two share one lock, since each reads the other's entries while
        holding it."""
        def build():
            def integral_data():
                d = self.integral_data
                return d if which == "cop" else intcoint.IntegralData(
                    d.right_basis, d.left_basis, d.mu_inv, d.mu)

            ctx = AlgebraContext(variant(self.pres, which))
            ctx._lock = self._lock
            ctx._shared = {"s_inv": lambda: self.s_inv if which == "opcop" else self.pres.antipode,
                           "integral_data": integral_data}
            with _CONTEXTS_LOCK:
                return _hang(ctx)
        return self._get(f"variant:{which}", build)

    # -- misc ---------------------------------------------------------------------

    @property
    def s_squared(self) -> LinearOperator:
        return self.ops.operators["S2"]

    def inner_automorphism(self, a: TensorElement) -> LinearOperator:
        """h |-> a h a^-1, that is L_a o R_(a^-1); the inverse is found by
        exact linear solving."""
        left = multiplication_operator(self.pres.mult, a, "left")
        a_inv = invert_operator(left).apply(self.pres.unit)
        return left.compose(multiplication_operator(self.pres.mult, a_inv, "right"))


# The live contexts that ``get_context`` made, by presentation id.  Each one
# hangs on its presentation, so it lives exactly as long as the presentation
# and this mapping never keeps one alive.
_CONTEXTS: weakref.WeakValueDictionary[int, AlgebraContext] = weakref.WeakValueDictionary()
_CONTEXTS_LOCK = threading.Lock()


def get_context(pres: QhaPresentation) -> AlgebraContext:
    """The one context of a presentation, made on first use and kept on it."""
    with _CONTEXTS_LOCK:
        return pres.__dict__.get("_context") or _hang(AlgebraContext(pres))


def _hang(ctx: AlgebraContext) -> AlgebraContext:
    object.__setattr__(ctx.pres, "_context", ctx)      # the dataclass is frozen
    _CONTEXTS[id(ctx.pres)] = ctx
    return ctx
