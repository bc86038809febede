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
from operator import attrgetter
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

    @property
    def gamma(self) -> TensorElement:
        return self._get("gamma_delta", lambda: canonical.gamma_delta(self))[0]

    @property
    def delta_el(self) -> TensorElement:
        return self._get("gamma_delta", lambda: canonical.gamma_delta(self))[1]

    @property
    def f(self) -> TensorElement:
        return self._get("twist", lambda: canonical.drinfeld_twist(self))[0]

    @property
    def f_inv(self) -> TensorElement:
        return self._get("twist", lambda: canonical.drinfeld_twist(self))[1]

    @property
    def p_r(self) -> TensorElement:
        return self._get("pq", lambda: canonical.pq_elements(self))[0]

    @property
    def q_r(self) -> TensorElement:
        return self._get("pq", lambda: canonical.pq_elements(self))[1]

    @property
    def p_l(self) -> TensorElement:
        return self._get("pq", lambda: canonical.pq_elements(self))[2]

    @property
    def q_l(self) -> TensorElement:
        return self._get("pq", lambda: canonical.pq_elements(self))[3]

    @property
    def u_cap(self) -> TensorElement:
        return self._get("uv", lambda: canonical.uv_elements(self))[0]

    @property
    def v_cap(self) -> TensorElement:
        return self._get("uv", lambda: canonical.uv_elements(self))[1]

    # -- integrals and their modular functional --------------------------------

    @property
    def integral_data(self) -> intcoint.IntegralData:
        return self._get("integral_data", lambda: intcoint.compute_integral_data(self))

    @property
    def t(self) -> TensorElement:
        return self.integral_data.left_basis

    @property
    def r(self) -> TensorElement:
        return self.integral_data.right_basis

    @property
    def mu(self) -> Functional:
        return self.integral_data.mu

    @property
    def mu_inv(self) -> Functional:
        return self.integral_data.mu_inv

    # -- cointegrals and modular elements ---------------------------------------

    @property
    def cointegral_data(self) -> intcoint.CointegralData:
        return self._get("cointegral_data", lambda: intcoint.compute_cointegral_data(self))

    @property
    def lam(self) -> Functional:
        return self.cointegral_data.left_basis

    @property
    def big_lam(self) -> Functional:
        return self.cointegral_data.right_basis

    @property
    def g_mod(self) -> TensorElement:
        return self.cointegral_data.g_modular

    @property
    def g_mod_inv(self) -> TensorElement:
        return self.cointegral_data.g_modular_inv

    @property
    def u_el(self) -> TensorElement:
        return self.comparison.u

    @property
    def u_inv(self) -> TensorElement:
        return self.comparison.u_inv

    @property
    def v_el(self) -> TensorElement:
        return self.comparison.v

    @property
    def v_inv(self) -> TensorElement:
        return self.comparison.v_inv

    @property
    def comparison(self) -> intcoint.ComparisonElements:
        return self._get("comparison", lambda: intcoint.comparison_elements(self))

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
