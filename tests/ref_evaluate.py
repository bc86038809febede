"""Reference evaluator for ``Expression``: pull on first use, in slot order.

This is the evaluation order ``expr`` used before its contraction planner.
One tensor holds everything: each source is outer-multiplied into it the
first time one of its components is used, a component's whole token tree
(operators and splits) is applied at that point, and every product is merged
left to right.  It is kept only as the reference the planner is compared
against; it uses the same kernels, so the two differ only in the order of
the steps.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from quasihopf.expr import VAR, Expression, ExpressionError, Fn, Op, Ref
from quasihopf.multilinear import (Functional, LinearOperator, Num, TensorElement, _basis_sum,
                                   _lift, _lift_table, _lower, _map_leg, _merge, _outer)


def ref_evaluate(expr: Expression, ops, bindings: Mapping[str, TensorElement] | None = None,
                 functionals: Mapping[str, Functional] | None = None) -> TensorElement:
    bindings = dict(bindings or {})

    def lookup_fn(name: str) -> Functional | None:
        if functionals is not None:
            found = functionals.get(name)
            if found is not None:
                return found
        return ops.functionals.get(name)

    run = _Evaluation(expr, ops, bindings)
    final_order: list[object] = []
    for out in expr.outputs:
        leg = run.merge_product(out.items)
        if isinstance(out, Fn):
            functional = lookup_fn(out.functional)
            if functional is None:
                raise ExpressionError(f"unknown functional {out.functional!r}")
            run.state.contract(leg, functional)
        else:
            final_order.append(leg)
    implicit = [("idx", name) for name, src in expr.sources.items()
                if src == VAR and name in run.unbound]
    return run.state.finalize(implicit + final_order)


class _State:
    """One sparse tensor with named legs, replaced step by step; its number
    of legs is the number the kernels are told."""

    def __init__(self, ops):
        self.ops = ops
        self.n = ops.dim
        self.legs: list[object] = []
        self.t: Num = _basis_sum([()], self.n)

    def pull(self, tensor: TensorElement, keys: Sequence[object]) -> None:
        self.t = _outer(self.t, _lift(tensor.entries, self.n), self.n, tensor.rank)
        self.legs.extend(keys)

    def pull_variable(self, idx_key: object, expr_key: object) -> None:
        n = self.n
        self.t = _outer(self.t, _basis_sum(((m, m) for m in range(n)), n), n, 2)
        self.legs.extend([idx_key, expr_key])

    def pos(self, key: object) -> int:
        try:
            return self.legs.index(key)
        except ValueError:
            raise ExpressionError(f"unknown leg {key!r}") from None

    def apply_operator(self, key: object, operator: LinearOperator) -> None:
        self.t = _map_leg(self.t, operator.numerator_columns(), len(self.legs), self.pos(key))

    def split(self, key: object, key1: object, key2: object) -> None:
        p = self.pos(key)
        self.t = _map_leg(self.t, self.ops.coproduct.numerator_columns(), len(self.legs), p)
        self.legs[p:p + 1] = [key1, key2]

    def merge(self, key_a: object, key_b: object, dest: object) -> None:
        pa, pb = self.pos(key_a), self.pos(key_b)
        self.t = _merge(self.t, _lift_table(self.ops.mult, self.n), len(self.legs), pa, pb)
        for p in sorted((pa, pb), reverse=True):
            del self.legs[p]
        self.legs.append(dest)

    def contract(self, key: object, functional: Functional) -> None:
        p = self.pos(key)
        self.t = _map_leg(self.t, functional.numerator_columns(), len(self.legs), p)
        del self.legs[p]

    def unit_leg(self, dest: object) -> None:
        self.t = _outer(self.t, _lift(self.ops.unit.entries, self.n), self.n, 1)
        self.legs.append(dest)

    def finalize(self, order: Sequence[object]) -> TensorElement:
        if set(order) != set(self.legs) or len(order) != len(self.legs):
            raise ExpressionError(f"leftover legs {self.legs!r} vs outputs {order!r}")
        perm = [self.legs.index(key) for key in order]
        t, self.t = self.t, None
        return TensorElement(len(order), self.n, _lower(t, self.n, len(self.legs), perm),
                             _trust=True)


class _Evaluation:
    def __init__(self, expr: Expression, ops, bindings: Mapping[str, TensorElement]):
        self.expr = expr
        self.ops = ops
        self.bindings = bindings
        self.state = _State(ops)
        self.pulled: set[str] = set()
        self.prepared: set[tuple[str, int]] = set()
        self.unbound: list[str] = []
        self.counter = 0

    def pull(self, name: str) -> None:
        if name in self.pulled:
            return
        self.pulled.add(name)
        src = self.expr.sources[name]
        if src == VAR:
            bound = self.bindings.get(name)
            if bound is None:
                self.state.pull_variable(("idx", name), ("raw", name, 1))
                self.unbound.append(name)
            else:
                if bound.rank != 1:
                    raise ExpressionError(f"binding for {name!r} must be rank 1")
                self.state.pull(bound, [("raw", name, 1)])
        else:
            self.state.pull(src, [("raw", name, c) for c in range(1, src.rank + 1)])

    def prepare(self, name: str, comp: int) -> None:
        if (name, comp) in self.prepared:
            return
        self.prepared.add((name, comp))
        tree = self.expr._trees.get((name, comp))
        if tree is None:
            raise ExpressionError(f"component {name}^{comp} unused")
        _expand(self.state, ("raw", name, comp), (), tree, self.ops, name, comp)

    def leg_of(self, item: Ref | Op) -> object:
        if isinstance(item, Ref):
            self.pull(item.name)
            self.prepare(item.name, item.comp)
            return ("leaf", item.name, item.comp, item.tokens)
        inner = self.merge_product(item.items)
        operator = self.ops.operators.get(item.opname)
        if operator is None:
            raise ExpressionError(f"unknown operator {item.opname!r}")
        self.state.apply_operator(inner, operator)
        return inner

    def merge_product(self, items: Sequence[Ref | Op]) -> object:
        if not items:
            self.counter += 1
            dest = ("unit", self.counter)
            self.state.unit_leg(dest)
            return dest
        acc = self.leg_of(items[0])
        for item in items[1:]:
            nxt = self.leg_of(item)
            self.counter += 1
            dest = ("prod", self.counter)
            self.state.merge(acc, nxt, dest)
            acc = dest
        return acc


def _expand(state: _State, key: object, prefix: tuple, tree: dict,
            ops, name: str, comp: int) -> None:
    keys = [k for k in tree if k != "__leaf__"]
    if not keys:
        state.legs[state.pos(key)] = ("leaf", name, comp, prefix)
        return
    if isinstance(keys[0], str):
        operator = ops.operators.get(keys[0])
        if operator is None:
            raise ExpressionError(f"unknown operator {keys[0]!r}")
        state.apply_operator(key, operator)
        _expand(state, key, prefix + (keys[0],), tree[keys[0]], ops, name, comp)
        return
    k1 = ("tmp", name, comp, prefix + (1,))
    k2 = ("tmp", name, comp, prefix + (2,))
    state.split(key, k1, k2)
    _expand(state, k1, prefix + (1,), tree[1], ops, name, comp)
    _expand(state, k2, prefix + (2,), tree[2], ops, name, comp)
