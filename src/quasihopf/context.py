"""Per-algebra workspace: lazily computed, cached axiom reports, canonical
elements, integrals, cointegrals and modular data for one presentation.

Everything is a pure function of the presentation; the cache only avoids
recomputation.  Initialization of each entry is guarded by a re-entrant
lock so contexts can be shared between threads.
"""

from __future__ import annotations

import threading
from typing import Callable

from . import canonical, intcoint
from .expr import AlgebraOps
from .multilinear import Functional, LinearOperator, TensorElement, invert_operator
from .qha import (QhaPresentation, antipode_inverse, exhaustive_scope, variant,
                  verify_axioms)
from .report import VerificationReport


class _LazyFunctionals:
    """Mapping-ish view that builds integral/cointegral functionals only
    when an expression actually asks for them."""

    def __init__(self, ctx: "AlgebraContext"):
        self._ctx = ctx

    def get(self, name: str) -> Functional | None:
        ctx = self._ctx
        if name == "eps":
            return ctx.pres.counit
        if name == "mu":
            return ctx.mu
        if name == "mui":
            return ctx.mu_inv
        if name == "lam":
            return ctx.lam
        if name == "Lam":
            return ctx.big_lam
        return None


class AlgebraContext:
    def __init__(self, pres: QhaPresentation):
        self.pres = pres
        self._lock = threading.RLock()
        self._memo: dict[str, object] = {}

    def _get(self, key: str, build: Callable[[], object]):
        with self._lock:
            if key not in self._memo:
                self._memo[key] = build()
            return self._memo[key]

    # -- axioms --------------------------------------------------------------

    def axiom_report(self, exhaustive: bool | None = None,
                     known: VerificationReport | None = None) -> VerificationReport:
        """``verify_axioms`` of the presentation, run at most once per resolved
        scope (exhaustive or sampled); ``known`` stores a report the caller
        has already computed for that scope."""
        full = exhaustive_scope(self.pres, exhaustive)
        return self._get(f"axioms:{'exhaustive' if full else 'sampled'}",
                         lambda: known if known is not None else verify_axioms(self.pres, full))

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
                functionals={"eps": self.pres.counit})
        return self._get("ops", build)

    def lazy_functionals(self) -> _LazyFunctionals:
        return _LazyFunctionals(self)

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
        def build():
            return AlgebraContext(variant(self.pres, which))
        return self._get(f"variant:{which}", build)

    # -- misc ---------------------------------------------------------------------

    @property
    def s_squared(self) -> LinearOperator:
        return self._get("s_squared",
                         lambda: self.pres.antipode.compose(self.pres.antipode))

    def inner_automorphism(self, a: TensorElement) -> LinearOperator:
        """h |-> a h a^-1; the inverse is found by exact linear solving."""
        left = _mult_operator(self.pres, a, side="left")
        a_inv_op = invert_operator(left)
        a_inv = a_inv_op.apply(self.pres.unit)
        cols = [self.pres.multiply(self.pres.multiply(a, self.pres.basis_element(i)), a_inv)
                for i in range(self.pres.dim)]
        return LinearOperator(self.pres.dim, cols)


def _mult_operator(pres: QhaPresentation, a: TensorElement, side: str) -> LinearOperator:
    cols = []
    for i in range(pres.dim):
        e = pres.basis_element(i)
        cols.append(pres.multiply(a, e) if side == "left" else pres.multiply(e, a))
    return LinearOperator(pres.dim, cols)


_CONTEXTS: dict[int, AlgebraContext] = {}


def get_context(pres: QhaPresentation) -> AlgebraContext:
    """Process-wide context cache keyed by presentation identity."""
    ctx = _CONTEXTS.get(id(pres))
    if ctx is None or ctx.pres is not pres:
        ctx = AlgebraContext(pres)
        _CONTEXTS[id(pres)] = ctx
    return ctx
