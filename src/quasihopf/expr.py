"""Evaluator for the tensor expressions this package needs.

An :class:`Expression` is a list of output slots over named sources.  A
source is a tensor whose components are summed over (a reassociator, a
canonical two-leg element, a constant, or a free variable).  A variable is
never bound to one element: it is the identity tensor sum_m e_m (x) e_m,
whose first leg, the variable's index leg, becomes an output leg, so one
evaluation covers every basis element at once and
``multilinear.columns_of`` splits the result along that leg.  Each slot is
an ordered product of atoms; an atom references one component of one
source, transformed by a token path that interleaves unary operators with
coproduct-part selection, or wraps a whole sub-product in a unary operator.

Output slot kinds:

* ``Leg`` - the product becomes one leg of the resulting tensor;
* ``Fn`` - the product is contracted against a known functional.

The result's legs are the index legs first, in the declaration order of the
variables, then one leg per ``Leg`` slot, in slot order.  The argument leg
of an unknown functional (a "hole", used to assemble linear systems and
multiplication tables in one pass) is an ordinary leg.

Evaluation contracts the expression as a tensor network.  Every source
(and every variable, as the identity tensor on its index leg) is a
component of its own, with its own tensor and named legs.  Steps that
cannot grow a tensor run as soon as their legs exist: an operator token,
a merge of two adjacent factors within one component, an operator on a
finished sub-product and a functional on a finished slot.  Otherwise one
greedy choice, in the spirit of the greedy path search of opt_einsum
(Smith & Gray, JOSS 3(26), 2018), picks the growth step whose result has
the smallest estimated support: a coproduct split, or a merge of two
adjacent factors that joins two components, fused so that their outer
product is never built.  Products are associative but not commutative, so
any adjacent pair of ready factors may merge, in order.  Components that
still have output legs are outer-multiplied at the end and permuted once.
This module only plans the leg bookkeeping (which named leg sits where);
the sparse arithmetic is done by the kernels of :mod:`multilinear`.

Grammar
-------
:meth:`Expression.parse` reads one side of a formula in the leg notation of
Hausser and Nill (arXiv:math/9904164) and maps it one to one onto ``Leg``,
``Fn``, ``Op`` and ``Ref``:

* legs are separated by `` x ``; ``1`` alone is an empty leg (the unit);
* a factor is a letter, declared with its number of legs.  A letter with
  more than one leg is followed by its component digit (``X3``); a one-leg
  letter has none (``h``, ``t``, ``gmod^-1``).  Then ``_`` and a split path
  of 1s and 2s may follow: ``X3_12`` is ``Ref("X", 3, 1, 2)`` and ``h_21``
  is ``Ref("h", 1, 2, 1)``;
* ``S( )``, ``Si( )``, ``S2( )`` and ``Si2( )`` around a product give an
  ``Op``.  Around one factor and followed by ``_path`` they are a token of
  that factor instead: ``S(x3)_1`` is ``Ref("x", 3, "S", 1)``;
* ``eps( ) mu( ) mui( ) lam( ) Lam( )`` around a product give an ``Fn``
  slot; the functionals of a leg come before it, in text order.  A side
  whose only slot holds no factor is a scalar;
* the free variables (letters declared :data:`VAR`) become sources in the
  order of the declaration, the other letters in the order they first
  appear.  A parsed expression is bound to tensors by
  :meth:`Expression.bind`.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .multilinear import (Functional, LinearOperator, Num, TensorElement, _join, _lift,
                          _lift_table, _lower, _map_leg, _merge, _outer, _permute)


class ExpressionError(ValueError):
    pass


VAR = "__var__"  # sentinel marking a free-variable source
OPERATORS = ("S", "Si", "S2", "Si2")
FUNCTIONALS = ("eps", "mu", "mui", "lam", "Lam")
_TOKEN = re.compile(r"\w+\(|\)(?:_\w*)?|\(|[^\s()]+")
_FACTOR = re.compile(r"([A-Za-z]+(?:\^-1)?'?)(\d*)(?:_(\w*))?")
_UNIT = "1"


class Unbound:
    """A source of a parsed expression, known by its rank until bound."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = rank


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


class Leg:
    __slots__ = ("items",)

    def __init__(self, *items: Ref | Op):
        self.items = items


class Fn:
    __slots__ = ("functional", "items")

    def __init__(self, functional: str, *items: Ref | Op):
        self.functional = functional
        self.items = items


Output = Leg | Fn


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


class Expression:
    """One tensor formula, transcribed leg by leg.

    ``sources`` maps names to tensors or to :data:`VAR` for free variables.
    Every variable contributes an index leg that runs over the basis; the
    index legs come first, in the order the variables are declared.
    """

    def __init__(self, sources: Mapping[str, TensorElement | str],
                 outputs: Sequence[Output]):
        self.sources = dict(sources)
        self.outputs = list(outputs)
        self._plans = self._validate()

    @classmethod
    def parse(cls, text: str, letters: Mapping[str, int | str]) -> "Expression":
        """One side of a formula in the grammar of the module docstring.
        ``letters`` maps each letter to its number of legs, or to
        :data:`VAR` for a free variable; every other source is
        :class:`Unbound` until :meth:`bind`."""
        reader = _Reader(text, letters)
        outputs = reader.side()
        variables = [name for name in reader.used if letters[name] == VAR]
        variables.sort(key=list(letters).index)
        sources = dict.fromkeys(variables, VAR)
        sources.update((name, Unbound(letters[name])) for name in reader.used
                       if name not in sources)
        return cls(sources, outputs)

    def bind(self, tensors: Mapping[str, TensorElement]) -> "Expression":
        """This expression with every :class:`Unbound` source replaced by
        the tensor of the same name."""
        bound = object.__new__(type(self))
        bound.sources = dict(self.sources)
        for name, src in self.sources.items():
            if type(src) is Unbound:
                tensor = bound.sources[name] = tensors[name]
                if tensor.rank != src.rank:
                    raise ExpressionError(f"{name!r} bound to a rank {tensor.rank} tensor, "
                                          f"expected rank {src.rank}")
        bound.outputs, bound._plans = self.outputs, self._plans
        return bound

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
        for out in self.outputs:
            self._walk(out.items, refs)
        plans: dict[tuple[str, int], dict] = {}
        for ref in refs:
            if ref.name not in self.sources:
                raise ExpressionError(f"unknown source {ref.name!r}")
            node = plans.setdefault((ref.name, ref.comp), {})
            for tok in ref.tokens:
                node = node.setdefault(tok, {})
            if node.setdefault("__leaf__", ref) is not ref:
                raise ExpressionError(f"{_label((ref.name, ref.comp, *ref.tokens))}: used twice")
        for node, tree in plans.items():
            _check_tree(tree, node)
        # every component of every non-variable source must be consumed
        for name, src in self.sources.items():
            if src == VAR:
                if (name, 1) not in plans:
                    raise ExpressionError(f"variable {name!r} never used")
                continue
            for comp in range(1, src.rank + 1):
                if (name, comp) not in plans:
                    raise ExpressionError(f"component {name}^{comp} unused")
        return plans

    # -- evaluation --------------------------------------------------------

    def evaluate(self, ops: AlgebraOps,
                 functionals: Mapping[str, Functional] | None = None,
                 ) -> TensorElement:
        net = _Network(self, ops)
        legs: list[object] = []         # the index legs, then one per Leg slot
        for name, src in self.sources.items():
            if src == VAR:
                net.add_variable(name)
                legs.append(("idx", name))
            elif type(src) is Unbound:
                raise ExpressionError(f"source {name!r} is unbound")
            elif (name, 1) in self._plans:
                net.add_source(name, src)
        for out in self.outputs:
            functional = None
            if isinstance(out, Fn):
                if functionals is not None:
                    functional = functionals.get(out.functional)
                if functional is None:
                    functional = ops.functionals.get(out.functional)
                if functional is None:
                    raise ExpressionError(f"unknown functional {out.functional!r}")
            product = net.product(out.items, None, functional)
            if functional is None:
                legs.append(product)
        net.contract()
        return net.finalize([leg.leg if isinstance(leg, _Product) else leg for leg in legs])


class _Reader:
    """Recursive descent over the tokens of one side (see the grammar of
    the module docstring); ``used`` collects the letters in the order they
    first appear."""

    def __init__(self, text: str, letters: Mapping[str, int | str]):
        self.text = text
        self.letters = letters
        self.tokens = _TOKEN.findall(text)[::-1]    # next token last
        self.used: dict[str, None] = {}

    def error(self, what: str, token: str) -> ExpressionError:
        return ExpressionError(f"{what}: {token!r} in {self.text!r}")

    def side(self) -> list[Output]:
        slots = []
        while True:
            fns: list[Fn] = []
            slots.append((fns, self.product(fns)))
            if not self.tokens:
                break
            token = self.tokens.pop()
            if token != "x":
                raise self.error("unbalanced parenthesis", token)
        outputs: list[Output] = []
        for fns, items in slots:
            outputs += fns
            if _UNIT in items:
                if len(items) > 1:
                    raise self.error("1 must stand alone in its leg", _UNIT)
                outputs.append(Leg())
            elif items:
                outputs.append(Leg(*items))
            elif len(slots) > 1 or not fns:
                raise self.error("empty leg next to", "x" if len(slots) > 1 else "")
        return outputs

    def product(self, fns: list[Fn] | None) -> list:
        """Factors up to the closing parenthesis or, at the top of a leg
        (where ``fns`` collects the functionals), up to `` x ``."""
        items: list = []
        tokens = self.tokens
        stop = ")" if fns is None else "x"
        while tokens and tokens[-1] != stop and tokens[-1][0] != ")":
            token = tokens.pop()
            if token[-1] == "(":
                self.call(token, fns, items)
            elif token == _UNIT and fns is not None:
                items.append(_UNIT)
            else:
                items.append(self.factor(token))
        return items

    def call(self, token: str, fns: list[Fn] | None, items: list) -> None:
        name = token[:-1]
        inner = self.product(None)
        if not self.tokens:
            raise self.error("unbalanced parenthesis", token)
        close = self.tokens.pop()
        path = close[2:] if len(close) > 1 else None
        whole = f"{token}...{close}"
        if name in FUNCTIONALS and fns is not None and path is None:
            fns.append(Fn(name, *inner))
        elif name in FUNCTIONALS:
            raise self.error("a functional takes no _path and stands at the top of a leg", whole)
        elif name not in OPERATORS:
            raise self.error("unknown operator or functional", token)
        elif path is None:
            items.append(Op(name, *inner))
        elif len(inner) != 1 or type(inner[0]) is not Ref:
            raise self.error("_path after an operator on more than one factor", whole)
        else:
            ref = inner[0]
            items.append(Ref(ref.name, ref.comp, *ref.tokens, name, *self.path(path, whole)))

    def factor(self, token: str) -> Ref:
        match = _FACTOR.fullmatch(token)
        if match is None:
            raise self.error("bad token", token)
        name, comp, path = match.groups()
        rank = self.letters.get(name)
        if rank is None:
            raise self.error("unknown letter", token)
        legs = 1 if type(rank) is str else rank        # a variable has one leg
        if not comp:
            if legs > 1:
                raise self.error(f"{name} has {legs} legs and no component", token)
            comp = 1
        elif legs == 1:
            raise self.error("component on a one-leg letter", token)
        elif not 1 <= int(comp) <= legs:
            raise self.error(f"component above the {legs} legs of {name}", token)
        else:
            comp = int(comp)
        self.used[name] = None
        if path is None:
            return Ref(name, comp)
        return Ref(name, comp, *self.path(path, token))

    def path(self, path: str, token: str) -> tuple[int, ...]:
        if not path or path.strip("12"):
            raise self.error("split digit other than 1 or 2", token)
        return tuple(map(int, path))


class _Component:
    """One connected part of the network: a sparse tensor in numerator form
    and the names of its legs, in key order."""

    __slots__ = ("t", "legs")

    def __init__(self, t: Num, legs: list[object]):
        self.t = t
        self.legs = legs


class _Product:
    """An ordered product still to be formed.  A factor is a leg name or a
    nested product under an operator; once the factors are one leg, the
    operator or the functional is applied to it and ``leg`` is set."""

    __slots__ = ("factors", "operator", "functional", "leg")

    def __init__(self, factors: list, operator: LinearOperator | None,
                 functional: Functional | None):
        self.factors = factors
        self.operator = operator
        self.functional = functional
        self.leg: object = None


class _Network:
    """One run of :meth:`Expression.evaluate`: the components, the open
    products and the splits still to come, contracted in the order the
    module docstring gives.  Only the leg bookkeeping lives here; every
    loop over the entries is one of :mod:`multilinear`'s kernels.  The
    state holds no reference cycle, so a run is freed by reference
    counting alone."""

    def __init__(self, expr: Expression, ops: AlgebraOps):
        self.expr = expr
        self.ops = ops
        self.components: list[_Component] = []
        self.owner: dict[object, _Component] = {}
        self.splits: dict[object, dict] = {}    # leg -> token tree below its split
        self.open: list[_Product] = []          # nested products before their parent
        self.counter = 0

    # -- building --------------------------------------------------------

    def _add(self, t: Num, legs: list[object]) -> _Component:
        comp = _Component(t, legs)
        self.components.append(comp)
        for leg in legs:
            self.owner[leg] = comp
        return comp

    def add_source(self, name: str, tensor: TensorElement) -> None:
        legs = [(name, c, ()) for c in range(1, tensor.rank + 1)]
        comp = self._add(_lift(tensor.entries), legs)
        for leg in legs:
            self._expand(comp, leg, self.expr._plans[leg[:2]])

    def add_variable(self, name: str) -> None:
        """A variable: the identity tensor sum_m e_m (x) e_m, whose first
        leg is the variable's index."""
        leg = (name, 1, ())
        comp = self._add(({(m, m): 1 for m in range(self.ops.dim)}, 1, False),
                         [("idx", name), leg])
        self._expand(comp, leg, self.expr._plans[(name, 1)])

    def _operator(self, opname: str) -> LinearOperator:
        operator = self.ops.operators.get(opname)
        if operator is None:
            raise ExpressionError(f"unknown operator {opname!r}")
        return operator

    def _expand(self, comp: _Component, leg: tuple, tree: dict) -> None:
        """Apply the operator tokens below ``leg`` now; a split waits for
        its turn.  A leg's name is its source, component and token path."""
        while True:
            keys = [k for k in tree if k != "__leaf__"]
            if not keys:
                return
            if not isinstance(keys[0], str):
                self.splits[leg] = tree
                return
            p = comp.legs.index(leg)
            comp.t = _map_leg(comp.t, self._operator(keys[0]).numerator_columns(), p)
            del self.owner[leg]
            leg = leg[:2] + (leg[2] + (keys[0],),)
            comp.legs[p] = leg
            self.owner[leg] = comp
            tree = tree[keys[0]]

    def product(self, items: Sequence[Ref | Op], operator: LinearOperator | None,
                functional: Functional | None) -> _Product:
        factors: list = []
        for item in items:
            if isinstance(item, Ref):
                factors.append((item.name, item.comp, item.tokens))
            else:
                factors.append(self.product(item.items, self._operator(item.opname), None))
        if not items:
            self.counter += 1
            leg = ("unit", self.counter)
            self._add(_lift(self.ops.unit.entries), [leg])
            factors.append(leg)
        prod = _Product(factors, operator, functional)
        self.open.append(prod)
        return prod

    # -- contracting -----------------------------------------------------

    def contract(self) -> None:
        while True:
            self._settle()
            if not self.open:
                return
            if not self._grow():
                raise ExpressionError("a product never became ready")

    def _settle(self) -> None:
        """Run every step that cannot grow a tensor.  Nested products come
        before their parent, so one pass finishes a sub-product before its
        parent reads it; no other step makes a further one free."""
        owner = self.owner
        still_open = []
        for prod in self.open:
            factors = prod.factors
            i = 0
            while i < len(factors):
                f = factors[i]
                if type(f) is _Product:
                    if f.leg is None:
                        i += 1
                        continue
                    factors[i] = f = f.leg
                if i and f in owner and owner.get(factors[i - 1]) is owner[f]:
                    factors[i - 1:i + 1] = [self._merge_legs(factors[i - 1], f)]
                    continue
                i += 1
            if len(factors) == 1 and factors[0] in owner:
                self._finish(prod, factors[0])
            else:
                still_open.append(prod)
        self.open = still_open

    def _finish(self, prod: _Product, leg: object) -> None:
        comp = self.owner[leg]
        p = comp.legs.index(leg)
        if prod.operator is not None:
            comp.t = _map_leg(comp.t, prod.operator.numerator_columns(), p)
        elif prod.functional is not None:
            comp.t = _map_leg(comp.t, prod.functional.numerator_columns(), p)
            del comp.legs[p]
            del self.owner[leg]
        prod.leg = leg

    def _merge_legs(self, a: object, b: object) -> object:
        """Multiply leg values a*b within one component into a fresh last leg."""
        comp = self.owner.pop(a)
        del self.owner[b]
        pa, pb = comp.legs.index(a), comp.legs.index(b)
        comp.t = _merge(comp.t, _lift_table(self.ops.mult), pa, pb)
        comp.legs = [leg for leg in comp.legs if leg != a and leg != b]
        self.counter += 1
        dest = ("prod", self.counter)
        comp.legs.append(dest)
        self.owner[dest] = comp
        return dest

    def _grow(self) -> bool:
        """Run the split or joining merge with the smallest estimated result:
        |C| times the mean coproduct column for a split of C, |A| |B| for a
        join, each capped by n to the number of legs of the result."""
        n = self.ops.dim
        owner = self.owner
        best, best_size, best_at = None, None, 0
        if self.splits:
            columns = self.ops.coproduct.numerator_columns()
            fanout = sum(map(len, columns.form(columns.qi))) / n
        for leg in self.splits:
            comp = owner[leg]
            size = min(len(comp.t[0]) * fanout, n ** (len(comp.legs) + 1))
            if best_size is None or size < best_size:
                best, best_size = leg, size
        for prod in self.open:
            factors = prod.factors
            for i in range(1, len(factors)):
                ca, cb = owner.get(factors[i - 1]), owner.get(factors[i])
                if ca is None or cb is None:
                    continue
                size = min(len(ca.t[0]) * len(cb.t[0]),
                           n ** (len(ca.legs) + len(cb.legs) - 1))
                if best_size is None or size < best_size:
                    best, best_size, best_at = prod, size, i
        if best is None:
            return False
        if type(best) is _Product:
            factors = best.factors
            factors[best_at - 1:best_at + 1] = [self._join_legs(*factors[best_at - 1:best_at + 1])]
        else:
            self._split_leg(best)
        return True

    def _split_leg(self, leg: tuple) -> None:
        """Replace a leg in place by the two legs of its coproduct."""
        tree = self.splits.pop(leg)
        comp = self.owner.pop(leg)
        p = comp.legs.index(leg)
        comp.t = _map_leg(comp.t, self.ops.coproduct.numerator_columns(), p)
        halves = [leg[:2] + (leg[2] + (part,),) for part in (1, 2)]
        comp.legs[p:p + 1] = halves
        for part, half in zip((1, 2), halves):
            self.owner[half] = comp
            self._expand(comp, half, tree[part])

    def _join_legs(self, a: object, b: object) -> object:
        """Multiply leg values a*b of two components into one component."""
        ca, cb = self.owner.pop(a), self.owner.pop(b)
        pa, pb = ca.legs.index(a), cb.legs.index(b)
        t = _join(ca.t, cb.t, _lift_table(self.ops.mult), pa, pb)
        self.counter += 1
        dest = ("prod", self.counter)
        legs = ca.legs[:pa] + ca.legs[pa + 1:] + cb.legs[:pb] + cb.legs[pb + 1:] + [dest]
        self.components = [c for c in self.components if c is not ca and c is not cb]
        self._add(t, legs)
        return dest

    def finalize(self, order: Sequence[object]) -> TensorElement:
        """Outer-multiply the components and permute their legs once."""
        if not self.components:
            self._add(({(): 1}, 1, False), [])
        t, legs = self.components[0].t, list(self.components[0].legs)
        for comp in self.components[1:]:
            t = _outer(t, comp.t)
            legs += comp.legs
        self.components = []            # so the parts are freed below
        self.owner.clear()
        if set(order) != set(legs) or len(order) != len(legs):
            raise ExpressionError(f"leftover legs {legs!r} vs outputs {order!r}")
        perm = [legs.index(key) for key in order]
        nums, den, qi = t
        t = None
        nums = _permute(nums, perm)
        return TensorElement(len(order), self.ops.dim, _lower((nums, den, qi)), _trust=True)


def _check_tree(tree: dict, node: tuple) -> None:
    """``node`` is (source, component, *tokens) of ``tree``, named only in
    an error."""
    if len(tree) == 1 and "__leaf__" in tree:
        return
    keys = [k for k in tree if k != "__leaf__"]
    numeric = [k for k in keys if type(k) is int]
    if "__leaf__" in tree:
        error = "used both split and unsplit"
    elif numeric and len(numeric) < len(keys):
        error = "mixed operator and split at one level"
    elif numeric and sorted(numeric) != [1, 2]:
        error = "splits must use both parts 1 and 2"
    elif not numeric and len(keys) != 1:
        error = f"ambiguous operators {keys}"
    else:
        for k in keys:
            _check_tree(tree[k], node + (k,))
        return
    raise ExpressionError(f"{_label(node)}: {error}")


def _label(node: tuple) -> str:
    """(source, component, *tokens) as ``source^component.token...``."""
    return f"{node[0]}^{node[1]}" + "".join(f".{k}" for k in node[2:])
