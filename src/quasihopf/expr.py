"""Evaluator for the tensor expressions this package needs.

An :class:`Expression` is a list of output slots over named sources.  A
source is a tensor whose components are summed over (a reassociator, a
canonical two-leg element, a constant, or a free variable standing for an
arbitrary algebra element).  Each slot is an ordered product of atoms; an
atom references one component of one source, transformed by a token path
that interleaves unary operators with coproduct-part selection, or wraps a
whole sub-product in a unary operator.

Output slot kinds:

* ``Leg`` - the product becomes one leg of the resulting tensor;
* ``Fn`` - the product is contracted against a known functional;
* ``Hole`` - the product becomes a leg indexed by the argument of an
  unknown functional (used to assemble linear systems and multiplication
  tables in one pass);
* ``VarIdx`` - the free-variable index of an unbound variable becomes an
  output leg.

Evaluation is greedy: sources are pulled in on first use and every merge
or contraction aggregates immediately, which keeps intermediate supports
small even for the quantum double.  This module only plans the leg
bookkeeping (which named leg sits where); the sparse arithmetic is done by
the kernels of :mod:`multilinear`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exactnum import ONE, Scalar
from .multilinear import (Functional, LinearOperator, MultTable, TensorElement,
                          _contract, _map_leg, _merge, _outer, _permute)


class ExpressionError(ValueError):
    pass


VAR = "__var__"  # sentinel marking a free-variable source


class Ref:
    """Component ``comp`` (1-based) of source ``name`` transformed by
    ``tokens``: an int token 1/2 selects a coproduct part, a str token names
    a unary operator applied at that point."""

    __slots__ = ("name", "comp", "tokens")

    def __init__(self, name: str, comp: int = 1, *tokens: int | str):
        self.name = name
        self.comp = comp
        self.tokens = tuple(tokens)

    def __repr__(self) -> str:
        toks = "".join(f",{t}" for t in self.tokens)
        return f"r({self.name!r},{self.comp}{toks})"


class Op:
    """A unary operator applied to a whole product."""

    __slots__ = ("opname", "items")

    def __init__(self, opname: str, *items: "Ref | Op"):
        self.opname = opname
        self.items = items

    def __repr__(self) -> str:
        return f"{self.opname}({', '.join(map(repr, self.items))})"


def r(name: str, comp: int = 1, *tokens: int | str) -> Ref:
    return Ref(name, comp, *tokens)


def S(*items: Ref | Op) -> Op:
    return Op("S", *items)


def Si(*items: Ref | Op) -> Op:
    return Op("Si", *items)


def op(name: str, *items: Ref | Op) -> Op:
    return Op(name, *items)


class Leg:
    __slots__ = ("items",)

    def __init__(self, *items: Ref | Op):
        self.items = items


class Fn:
    __slots__ = ("functional", "items")

    def __init__(self, functional: str, *items: Ref | Op):
        self.functional = functional
        self.items = items


class Hole:
    __slots__ = ("items",)

    def __init__(self, *items: Ref | Op):
        self.items = items


class VarIdx:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


Output = Leg | Fn | Hole | VarIdx


class AlgebraOps:
    """Everything evaluation needs about one algebra: the multiplication
    table, unit coordinates, the coproduct and a registry of unary operators
    and functionals addressable from expressions."""

    def __init__(self, dim: int, mult: MultTable, unit: TensorElement,
                 coproduct: LinearOperator,
                 operators: Mapping[str, LinearOperator] | None = None,
                 functionals: Mapping[str, Functional] | None = None):
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.coproduct = coproduct
        self.operators = dict(operators or {})
        self.functionals = dict(functionals or {})
        self._delta_cols = coproduct.column_entries()

    def with_extra(self, operators: Mapping[str, LinearOperator] = (),
                   functionals: Mapping[str, Functional] = ()) -> "AlgebraOps":
        ops = dict(self.operators)
        ops.update(operators)
        fns = dict(self.functionals)
        fns.update(functionals)
        return AlgebraOps(self.dim, self.mult, self.unit, self.coproduct, ops, fns)


class _State:
    """Sparse tensor with named legs, replaced step by step during
    evaluation.  Only the leg bookkeeping lives here; every loop over the
    entries is one of :mod:`multilinear`'s kernels."""

    __slots__ = ("ops", "legs", "entries")

    def __init__(self, ops: AlgebraOps):
        self.ops = ops
        self.legs: list[object] = []
        self.entries: dict[tuple[int, ...], Scalar] = {(): ONE}

    def pull(self, tensor: TensorElement, keys: Sequence[object]) -> None:
        self.entries = _outer(self.entries, tensor.entries)
        self.legs.extend(keys)

    def pull_variable(self, idx_key: object, expr_key: object) -> None:
        n = self.ops.dim
        self.entries = {base + (m, m): value for base, value in self.entries.items()
                        for m in range(n)}
        self.legs.extend([idx_key, expr_key])

    def pos(self, key: object) -> int:
        try:
            return self.legs.index(key)
        except ValueError:
            raise ExpressionError(f"unknown leg {key!r}") from None

    def apply_operator(self, key: object, operator: LinearOperator) -> None:
        self.entries = _map_leg(self.entries, operator.column_entries(), self.pos(key))

    def split(self, key: object, key1: object, key2: object) -> None:
        """Replace a leg in place by the two legs of its coproduct."""
        p = self.pos(key)
        self.entries = _map_leg(self.entries, self.ops._delta_cols, p)
        self.legs[p:p + 1] = [key1, key2]

    def merge(self, key_a: object, key_b: object, dest: object) -> None:
        """Multiply leg values a*b into a fresh last leg ``dest``."""
        pa, pb = self.pos(key_a), self.pos(key_b)
        self.entries = _merge(self.entries, self.ops.mult, pa, pb)
        for p in sorted((pa, pb), reverse=True):
            del self.legs[p]
        self.legs.append(dest)

    def contract(self, key: object, functional: Functional) -> None:
        p = self.pos(key)
        self.entries = _contract(self.entries, functional.coords, p)
        del self.legs[p]

    def unit_leg(self, dest: object) -> None:
        self.entries = _outer(self.entries, self.ops.unit.entries)
        self.legs.append(dest)

    def finalize(self, order: Sequence[object]) -> TensorElement:
        if set(order) != set(self.legs) or len(order) != len(self.legs):
            raise ExpressionError(f"leftover legs {self.legs!r} vs outputs {order!r}")
        perm = [self.legs.index(key) for key in order]
        return TensorElement(len(order), self.ops.dim, _permute(self.entries, perm),
                             _trust=True)


class Expression:
    """One tensor formula, transcribed leg by leg.

    ``sources`` maps names to tensors or to :data:`VAR` for free variables.
    Unbound variables contribute an implicit index leg; declare where it
    lands with :class:`VarIdx` (or omit it to have it prepended in variable
    declaration order).
    """

    def __init__(self, sources: Mapping[str, TensorElement | str],
                 outputs: Sequence[Output]):
        self.sources = dict(sources)
        self.outputs = list(outputs)
        self._plans = self._validate()

    # -- validation --------------------------------------------------------

    def _walk(self, items, found: list[Ref]) -> None:
        for item in items:
            if isinstance(item, Ref):
                found.append(item)
            elif isinstance(item, Op):
                self._walk(item.items, found)
            else:
                raise ExpressionError(f"bad expression item {item!r}")

    def _validate(self) -> dict[tuple[str, int], dict]:
        refs: list[Ref] = []
        declared_varidx = set()
        for out in self.outputs:
            if isinstance(out, VarIdx):
                if out.name not in self.sources or self.sources[out.name] != VAR:
                    raise ExpressionError(f"VarIdx({out.name!r}) is not a variable")
                declared_varidx.add(out.name)
            else:
                self._walk(out.items, refs)
        plans: dict[tuple[str, int], dict] = {}
        for ref in refs:
            if ref.name not in self.sources:
                raise ExpressionError(f"unknown source {ref.name!r}")
            node = plans.setdefault((ref.name, ref.comp), {})
            for tok in ref.tokens:
                node = node.setdefault(tok, {})
            if node.setdefault("__leaf__", ref) is not ref:
                raise ExpressionError(f"component {ref.name}^{ref.comp} used twice")
        for (name, comp), tree in plans.items():
            _check_tree(tree, f"{name}^{comp}")
        # every component of every non-variable source must be consumed
        for name, src in self.sources.items():
            if src == VAR:
                if not any((name, c) in plans for c in (1,)):
                    raise ExpressionError(f"variable {name!r} never used")
                continue
            for comp in range(1, src.rank + 1):
                if (name, comp) not in plans:
                    raise ExpressionError(f"component {name}^{comp} unused")
        return plans

    # -- evaluation --------------------------------------------------------

    def evaluate(self, ops: AlgebraOps,
                 bindings: Mapping[str, TensorElement] | None = None,
                 functionals: Mapping[str, Functional] | None = None,
                 ) -> TensorElement:
        bindings = dict(bindings or {})

        def lookup_fn(name: str) -> Functional | None:
            if functionals is not None:
                found = functionals.get(name)
                if found is not None:
                    return found
            return ops.functionals.get(name)

        state = _State(ops)
        pulled: set[str] = set()
        prepared: set[tuple[str, int]] = set()
        unbound: list[str] = []

        def pull(name: str) -> None:
            if name in pulled:
                return
            pulled.add(name)
            src = self.sources[name]
            if src == VAR:
                bound = bindings.get(name)
                if bound is None:
                    state.pull_variable(("idx", name), ("raw", name, 1))
                    unbound.append(name)
                else:
                    if bound.rank != 1:
                        raise ExpressionError(f"binding for {name!r} must be rank 1")
                    state.pull(bound, [("raw", name, 1)])
            else:
                state.pull(src, [("raw", name, c) for c in range(1, src.rank + 1)])

        def prepare(name: str, comp: int) -> None:
            """Apply the token tree for one component: ops and splits."""
            if (name, comp) in prepared:
                return
            prepared.add((name, comp))
            tree = self._plans.get((name, comp))
            if tree is None:
                raise ExpressionError(f"component {name}^{comp} unused")
            _expand(state, ("raw", name, comp), (), tree, ops, name, comp)

        def leg_of(item: Ref | Op, counter: list[int]) -> object:
            if isinstance(item, Ref):
                pull(item.name)
                prepare(item.name, item.comp)
                return ("leaf", item.name, item.comp, item.tokens)
            # an Op node: evaluate inner product to one leg, then transform
            inner = merge_product(item.items, counter)
            operator = ops.operators.get(item.opname)
            if operator is None:
                raise ExpressionError(f"unknown operator {item.opname!r}")
            state.apply_operator(inner, operator)
            return inner

        def merge_product(items: Sequence[Ref | Op], counter: list[int]) -> object:
            if not items:
                counter[0] += 1
                dest = ("unit", counter[0])
                state.unit_leg(dest)
                return dest
            acc = leg_of(items[0], counter)
            for item in items[1:]:
                nxt = leg_of(item, counter)
                counter[0] += 1
                dest = ("prod", counter[0])
                state.merge(acc, nxt, dest)
                acc = dest
            return acc

        counter = [0]
        final_order: list[object] = []
        seen_varidx: set[str] = set()
        for out in self.outputs:
            if isinstance(out, VarIdx):
                pull(out.name)
                if out.name in bindings:
                    raise ExpressionError(f"VarIdx({out.name!r}) on a bound variable")
                final_order.append(("idx", out.name))
                seen_varidx.add(out.name)
                continue
            leg = merge_product(out.items, counter)
            if isinstance(out, Fn):
                functional = lookup_fn(out.functional)
                if functional is None:
                    raise ExpressionError(f"unknown functional {out.functional!r}")
                state.contract(leg, functional)
            else:  # Leg or Hole
                final_order.append(leg)
        # Implicit index legs for unbound variables without an explicit
        # VarIdx, prepended in source declaration order so both sides of an
        # identity agree on the layout.
        implicit = [("idx", name) for name, src in self.sources.items()
                    if src == VAR and name in unbound and name not in seen_varidx]
        return state.finalize(implicit + final_order)


def _check_tree(tree: dict, label: str) -> None:
    keys = [k for k in tree if k != "__leaf__"]
    if "__leaf__" in tree and keys:
        raise ExpressionError(f"{label}: used both split and unsplit")
    if not keys:
        return
    numeric = [k for k in keys if isinstance(k, int)]
    named = [k for k in keys if isinstance(k, str)]
    if numeric and named:
        raise ExpressionError(f"{label}: mixed operator and split at one level")
    if numeric:
        if sorted(numeric) != [1, 2]:
            raise ExpressionError(f"{label}: splits must use both parts 1 and 2")
    elif len(named) != 1:
        raise ExpressionError(f"{label}: ambiguous operators {named}")
    for k in keys:
        _check_tree(tree[k], f"{label}.{k}")


def _expand(state: _State, key: object, prefix: tuple, tree: dict,
            ops: AlgebraOps, name: str, comp: int) -> None:
    keys = [k for k in tree if k != "__leaf__"]
    if not keys:
        # rename to the canonical leaf key
        p = state.pos(key)
        state.legs[p] = ("leaf", name, comp, prefix)
        return
    if isinstance(keys[0], str):
        opname = keys[0]
        operator = ops.operators.get(opname)
        if operator is None:
            raise ExpressionError(f"unknown operator {opname!r}")
        state.apply_operator(key, operator)
        _expand(state, key, prefix + (opname,), tree[opname], ops, name, comp)
        return
    k1 = ("tmp", name, comp, prefix + (1,))
    k2 = ("tmp", name, comp, prefix + (2,))
    state.split(key, k1, k2)
    _expand(state, k1, prefix + (1,), tree[1], ops, name, comp)
    _expand(state, k2, prefix + (2,), tree[2], ops, name, comp)
