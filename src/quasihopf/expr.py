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
cannot add a leg run as soon as their legs exist: an operator token, a
merge of two adjacent factors within one component, a join of two
adjacent factors when one of their components has a single leg, an
operator on a finished sub-product and a functional on a finished slot.
The other steps, coproduct splits and joins of two adjacent factors in
two components (fused so that their outer product is never built), are
ordered by an exact search over the whole sequence, in the spirit of the
exact contraction-order search of Pfeifer, Haegeman and Verstraete (Phys.
Rev. E 90, 033315, 2014) and the optimal paths of opt_einsum (Smith &
Gray, JOSS 3(26), 2018).  It minimises the summed estimated kernel work of
every step: a join costs |A| |B| times one plus the multiplication fanout
(the mean support of a product of two basis elements; this is the work of
a loop over every pair of entries, an upper bound on the two-step join
kernel of :mod:`multilinear`, which contracts A with the multiplication
table before it meets B), a merge, operator
or split costs its input support times one plus its column fanout (1 for
a functional), and each support is estimated as the product of the source
supports and the fanouts that went into it, capped by n to the number of
its legs.  These estimates depend only on which steps a component has
seen, not on their order, so each state of the search is solved once
(dynamic programming).  Products are associative but not commutative, so
any adjacent pair of ready factors may merge, in order.  Components that
still have output legs are outer-multiplied at the end and permuted once.
The states and the steps between them depend only on the formula, so a
parsed expression builds their graph on its first evaluation, with each
estimate written as a product of named quantities (n, the unit support,
the fanouts, the supports of the sources).  A graph with a single route
takes it without pricing.  Any other graph searches each set of values of
those quantities once and keeps the cheapest route, for at most
:data:`ROUTES` sets, after which its table starts again empty; the kernel
steps of each route taken are kept too.  Nothing is keyed by the entries
of a tensor.  A bound tensor keeps the integer form it is first lifted
into, so evaluations after the first on the same tensors lift nothing.
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
from array import array
from typing import Mapping, Sequence

from .multilinear import (Functional, LinearOperator, TensorElement, _basis_sum, _join,
                          _lift_kept, _lift_table, _lower, _map_leg, _merge, _outer)


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
    a unary operator applied at that point.  ``legs`` is the number of legs
    of the letter when it is known (0 otherwise); the repr is the grammar's
    spelling, which leaves out the component of a one-leg letter."""

    __slots__ = ("name", "comp", "tokens", "legs")

    def __init__(self, name: str, comp: int = 1, *tokens: int | str, legs: int = 0):
        self.name = name
        self.comp = comp
        self.tokens = tuple(tokens)
        self.legs = legs

    def __repr__(self) -> str:
        text, path = self.name if self.legs == 1 else f"{self.name}{self.comp}", ""
        for tok in self.tokens:
            if type(tok) is int:
                path += str(tok)
            else:
                text, path = f"{tok}({text}{'_' + path if path else ''})", ""
        return f"{text}_{path}" if path else text


class Op:
    """A unary operator applied to a whole product."""

    __slots__ = ("opname", "items")

    def __init__(self, opname: str, *items: "Ref | Op"):
        self.opname = opname
        self.items = items

    def __repr__(self) -> str:
        return f"{self.opname}({' '.join(map(repr, self.items))})"


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
    and functionals addressable from expressions.  The functionals are any
    mapping with ``get``, kept as given, so a lazy one builds only the
    functionals an expression asks for."""

    def __init__(self, dim: int, mult: MultTable, unit: TensorElement,
                 coproduct: LinearOperator,
                 operators: Mapping[str, LinearOperator] | None = None,
                 functionals: Mapping[str, Functional] | None = None):
        self.dim = dim
        self.mult = mult
        self.unit = unit
        self.coproduct = coproduct
        self.operators = dict(operators or {})
        self.functionals = {} if functionals is None else functionals
        self._profile: dict | None = None

    def profile(self) -> dict[tuple, float]:
        """What the plan search reads of the algebra, by the name it has in
        a plan: n, the support of the unit, and the mean column support of
        the coproduct, of the multiplication table (over all n^2 pairs) and
        of each operator (a functional keeps the support, fanout 1)."""
        if self._profile is None:
            n = self.dim
            mean = lambda columns: sum(len(c.entries) for c in columns) / n
            profile = {("n",): n, ("unit",): len(self.unit.entries), ("fn",): 1.0,
                       ("split",): mean(self.coproduct.columns),
                       ("mult",): sum(map(len, self.mult.values())) / (n * n)}
            profile.update((("op", name), mean(op.columns))
                           for name, op in self.operators.items())
            self._profile = profile
        return self._profile


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
        self._trees = self._validate()
        self._planner = _Planner()

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
        bound.outputs, bound._trees, bound._planner = self.outputs, self._trees, self._planner
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
        trees: dict[tuple[str, int], dict] = {}
        for ref in refs:
            if ref.name not in self.sources:
                raise ExpressionError(f"unknown source {ref.name!r}")
            node = trees.setdefault((ref.name, ref.comp), {})
            for tok in ref.tokens:
                node = node.setdefault(tok, {})
            if node.setdefault("__leaf__", ref) is not ref:
                raise ExpressionError(f"{_label((ref.name, ref.comp, *ref.tokens))}: used twice")
        for node, tree in trees.items():
            _check_tree(tree, node)
        # every component of every non-variable source must be consumed
        for name, src in self.sources.items():
            if src == VAR:
                if (name, 1) not in trees:
                    raise ExpressionError(f"variable {name!r} never used")
                continue
            for comp in range(1, src.rank + 1):
                if (name, comp) not in trees:
                    raise ExpressionError(f"component {name}^{comp} unused")
        return trees

    # -- evaluation --------------------------------------------------------

    def evaluate(self, ops: AlgebraOps) -> TensorElement:
        for name, src in self.sources.items():
            if type(src) is Unbound:
                raise ExpressionError(f"source {name!r} is unbound")
        fns = []
        for out in self.outputs:
            if isinstance(out, Fn):
                functional = ops.functionals.get(out.functional)
                if functional is None:
                    raise ExpressionError(f"unknown functional {out.functional!r}")
                fns.append(functional)
        return self._planner.plan(self, ops).run(self.sources, ops, fns)


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
            items.append(Ref(ref.name, ref.comp, *ref.tokens, name, *self.path(path, whole),
                             legs=ref.legs))

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
        return Ref(name, comp, *(() if path is None else self.path(path, token)), legs=legs)

    def path(self, path: str, token: str) -> tuple[int, ...]:
        if not path or path.strip("12"):
            raise self.error("split digit other than 1 or 2", token)
        return tuple(map(int, path))


# the quantities every plan search names, by number; then one object for
# each name of a quantity and for each kernel step, shared by all plans
_QN, _QFN, _QMULT, _QSPLIT, _QUNIT = range(5)
_NAMES: dict[tuple, tuple] = {}
_STEPS: dict[tuple, tuple] = {}

# the most sets of priced quantities one graph keeps the route of; a warm
# catalog-verify op meets at most a few per parsed side
ROUTES = 64


class _Shape:
    """One planning problem: the layout :meth:`_Network.start` records and
    the quantities its estimates are products of.  ``init`` names the
    source each register starts from (None for a unit), ``place`` gives
    each original factor's product and index in it, ``finish`` the step
    that ends each product (None, ("op", name) or ("fn", slot)), ``parent``
    the product a nested one is a factor of and ``order`` the result's
    legs.  ``names`` numbers the quantities (the keys of
    :meth:`AlgebraOps.profile`, and ("src", name) for the support of a
    source).  A size is a product of quantities: ``sizes`` numbers each
    by its sorted tuple of them, ``products[s]`` is that tuple and
    ``made`` numbers it by each (a, b, q) that gave it; ``recipes[s]`` =
    (a, b, q) gives size
    s as size a times size b times quantity q (size 0 is the empty
    product).  ``ests`` numbers the estimated supports the search meets: a
    size and a number of legs, n to which caps it."""

    __slots__ = ("trees", "init", "place", "finish", "parent", "order", "names", "sizes",
                 "products", "made", "recipes", "ests")

    def __init__(self, trees: dict[tuple[str, int], dict]):
        self.trees = trees
        self.init: list[str | None] = []
        self.place: dict[tuple, tuple[int, int]] = {}
        self.finish: list[tuple | None] = []
        self.parent: dict[int, int] = {}
        self.order: list[tuple] = []
        self.names: dict[tuple, int] = {("n",): _QN, ("fn",): _QFN, ("mult",): _QMULT,
                                        ("split",): _QSPLIT, ("unit",): _QUNIT}
        self.sizes: dict[tuple, int] = {(): 0}
        self.products: list[tuple] = [()]
        self.made: dict[tuple[int, int, int], int] = {}
        self.recipes: list[tuple[int, int, int]] = [(0, 0, _QFN)]
        self.ests: dict[tuple, int] = {(0, 0): 0}       # 1, the factor a map step lacks

    def var(self, name: tuple) -> int:
        return self.names.setdefault(name, len(self.names))

    def times(self, a: int, b: int, q: int) -> int:
        """The number of size a times size b times quantity q."""
        s = self.made.get((a, b, q))
        if s is None:
            product = tuple(sorted(self.products[a] + self.products[b] + (q,)))
            s = self.sizes.get(product)
            if s is None:
                s = self.sizes[product] = len(self.products)
                self.products.append(product)
                self.recipes.append((a, b, q))
            self.made[a, b, q] = s
        return s

    def est(self, size: int, legs: int) -> int:
        ests = self.ests
        return ests.setdefault((size, legs), len(ests))


class _Network:
    """The leg bookkeeping of one evaluation order, with estimated supports
    instead of tensors.  A component is a register number with its legs,
    in key order, and its ``size``: the product of its sources' supports
    and of the fanout of every step that went into it, numbered in the
    :class:`_Shape`.  ``splits`` holds the legs still to split and ``factors``
    the factors of every open product, nested ones first: a leg name, or
    the number of a nested product not yet finished.  A leg is named by
    what it holds, so two orders that reach the same state reach the same
    :meth:`key`.  Each step appends its kernel work to ``terms``, as
    (fanout, a, b): one plus the fanout times the estimates a and b, and
    writes the kernel step to ``steps`` when it is a list."""

    __slots__ = ("shape", "legs", "size", "owner", "splits", "factors", "next", "terms",
                 "steps")

    def child(self, step) -> "_Network":
        """The state after ``step``, with the work of reaching it from this
        one in ``terms``; it writes no steps."""
        net = object.__new__(_Network)
        net.shape, net.next = self.shape, self.next
        net.legs, net.size, net.owner = dict(self.legs), dict(self.size), dict(self.owner)
        net.splits, net.factors = self.splits, dict(self.factors)
        net.terms, net.steps = [], None
        net.grow(step)
        return net

    def key(self) -> tuple:
        return tuple(self.factors.values()), frozenset(self.splits)

    # -- building --------------------------------------------------------

    @classmethod
    def start(cls, expr: "Expression") -> "_Network":
        """The components of ``expr``'s sources (a variable is the identity
        tensor sum_m e_m (x) e_m, whose first leg is its index), then its
        products, nested ones first, and every step that is free before
        the first growth step."""
        net = object.__new__(cls)
        net.shape = shape = _Shape(expr._trees)
        net.terms, net.steps = [], []
        net.legs, net.size, net.owner, net.factors = {}, {}, {}, {}
        net.splits = ()
        for name, src in expr.sources.items():
            if src == VAR:
                shape.order.append(("idx", name))
                net._add(name, _QN, [("idx", name), (name, 1, ())])
            elif (name, 1) in expr._trees:
                net._add(name, shape.var(("src", name)),
                         [(name, c, ()) for c in range(1, src.rank + 1)])
        slot = 0
        for out in expr.outputs:
            if isinstance(out, Fn):
                net._product(out.items, ("fn", slot))
                slot += 1
            else:
                shape.order.append(("out", net._product(out.items, None)))
        net.next = len(shape.init)
        net._settle(set(net.factors))
        return net

    def _add(self, name: str | None, quantity: int, legs: list[tuple]) -> None:
        cid = len(self.shape.init)
        self.shape.init.append(name)
        self.legs[cid], self.size[cid] = tuple(legs), self.shape.times(0, 0, quantity)
        for leg in legs:
            self.owner[leg] = cid
            if len(leg) == 3:
                self._expand(leg, self.shape.trees[leg[:2]])

    def _product(self, items: Sequence[Ref | Op], finish: tuple | None) -> int:
        """Number the product of ``items`` after its nested products;
        ``finish`` is the step that ends it."""
        shape = self.shape
        factors: list = []
        for item in items:
            if isinstance(item, Ref):
                factors.append((item.name, item.comp, item.tokens))
            else:
                factors.append(self._product(item.items, ("op", item.opname)))
        if not items:
            leg = ("unit", len(shape.init))
            self._add(None, _QUNIT, [leg])
            factors.append(leg)
        pid = len(shape.finish)
        shape.finish.append(finish)
        for i, f in enumerate(factors):
            if type(f) is int:
                shape.parent[f] = pid
                f = ("out", f)
            shape.place[f] = (pid, i)
        self.factors[pid] = tuple(factors)
        return pid

    # -- the steps -------------------------------------------------------

    def _estimate(self, cid: int) -> int:
        """The support of a component: its size, capped by n to the number
        of its legs."""
        return self.shape.est(self.size[cid], len(self.legs[cid]))

    def _map(self, leg: tuple, step: tuple, fanout: int, image: tuple) -> int:
        """Map ``leg`` through the columns ``step`` names; the legs of
        ``image`` take its place.  Costs the input times one plus the
        fanout."""
        cid = self.owner.pop(leg)
        legs = self.legs[cid]
        p = legs.index(leg)
        self.terms.append((fanout, self._estimate(cid), 0))
        if fanout != _QFN:
            self.size[cid] = self.shape.times(self.size[cid], 0, fanout)
        self.legs[cid] = legs[:p] + image + legs[p + 1:]
        for new in image:
            self.owner[new] = cid
        if self.steps is not None:
            self.steps.append((step[0], cid, p, step[1]))
        return cid

    def _expand(self, leg: tuple, tree: dict) -> tuple:
        """Apply the operator tokens below ``leg`` now; a split waits for
        its turn.  A leg's name is its source, component and token path;
        the name it ends with is returned."""
        while True:
            keys = [k for k in tree if k != "__leaf__"]
            if not keys:
                return leg
            if not isinstance(keys[0], str):
                self.splits += (leg,)
                return leg
            new = leg[:2] + (leg[2] + (keys[0],),)
            self._map(leg, ("op", keys[0]), self.shape.var(("op", keys[0])), (new,))
            leg, tree = new, tree[keys[0]]

    def _split(self, leg: tuple) -> set[int]:
        """Replace a leg in place by the two legs of its coproduct; the
        products they are factors of are returned."""
        self.splits = tuple(x for x in self.splits if x != leg)
        tree = self.shape.trees[leg[:2]]
        for tok in leg[2]:
            tree = tree[tok]
        halves = tuple(leg[:2] + (leg[2] + (part,),) for part in (1, 2))
        self._map(leg, ("split", None), _QSPLIT, halves)
        place = self.shape.place
        ends = [self._expand(half, tree[part]) for part, half in zip((1, 2), halves)]
        return {place[end][0] for end in ends if end in place}

    def _multiply(self, pid: int, i: int) -> int:
        """Multiply factors i-1 and i of product ``pid`` into one leg: a
        merge within one component, or a join of two into a new one, fused
        so that their outer product is never built.  The leg is named by
        the factors it spans."""
        shape, owner = self.shape, self.owner
        factors = self.factors[pid]
        a, b = factors[i - 1], factors[i]
        dest = ("prod", pid, a[2] if len(a) == 4 else shape.place[a][1],
                b[3] if len(b) == 4 else shape.place[b][1])
        self.factors[pid] = factors[:i - 1] + (dest,) + factors[i + 1:]
        ca, cb = owner.pop(a), owner.pop(b)
        la, lb = self.legs[ca], self.legs[cb]
        pa, pb = la.index(a), lb.index(b)
        est = shape.est
        if ca == cb:
            self.terms.append((_QMULT, est(self.size[ca], len(la)), 0))
            self.size[ca] = shape.times(self.size[ca], 0, _QMULT)
            lo, hi = (pa, pb) if pa < pb else (pb, pa)
            self.legs[ca] = la[:lo] + la[lo + 1:hi] + la[hi + 1:] + (dest,)
            owner[dest] = ca
            if self.steps is not None:
                self.steps.append(("merge", ca, pa, pb))
            return ca
        self.terms.append((_QMULT, est(self.size[ca], len(la)), est(self.size[cb], len(lb))))
        cid, self.next = self.next, self.next + 1
        legs = self.legs[cid] = la[:pa] + la[pa + 1:] + lb[:pb] + lb[pb + 1:] + (dest,)
        self.size[cid] = shape.times(self.size.pop(ca), self.size.pop(cb), _QMULT)
        del self.legs[ca], self.legs[cb]
        for leg in legs:
            owner[leg] = cid
        if self.steps is not None:
            self.steps.append(("join", ca, pa, cb, pb))
        return cid

    def _finish(self, pid: int, leg: tuple) -> set[int]:
        """End product ``pid``, whose factors are the one leg ``leg``: its
        operator or functional is applied, and what is left is the leg
        ("out", pid), in place of the product among its parent's factors.
        The products this may make a step free in are returned."""
        finish = self.shape.finish[pid]
        out = ("out", pid)
        del self.factors[pid]
        if finish is None:
            cid = self.owner.pop(leg)
            self.legs[cid] = tuple(out if x == leg else x for x in self.legs[cid])
            self.owner[out] = cid
            return set()
        if finish[0] == "fn":
            return self._shrunk(self._map(leg, finish, _QFN, ()))
        self._map(leg, finish, self.shape.var(("op", finish[1])), (out,))
        parent = self.shape.parent[pid]
        self.factors[parent] = tuple(out if f == pid else f for f in self.factors[parent])
        return {parent}

    def _settle(self, todo: set[int]) -> None:
        """Run every step that cannot add a leg, until none is left: two
        adjacent ready factors in one component merge, and in two
        components they join when one of the two has a single leg; a
        product that is one leg is finished.  ``todo`` holds the products
        to look at, nested ones before their parent; a step adds those it
        may have made a step free in."""
        owner, legs, factors_of = self.owner, self.legs, self.factors
        while todo:
            pid = min(todo)
            todo.remove(pid)
            factors = factors_of.get(pid)
            if factors is None:
                continue
            i, ca = 1, owner.get(factors[0])
            while i < len(factors):
                cb = owner.get(factors[i])
                if (ca is not None and cb is not None
                        and (ca == cb or len(legs[ca]) == 1 or len(legs[cb]) == 1)):
                    todo |= self._shrunk(self._multiply(pid, i))
                    factors = factors_of[pid]
                    i = max(i - 1, 1)
                    ca = owner.get(factors[i - 1])
                else:
                    i, ca = i + 1, cb
            if len(factors) == 1 and factors[0] in owner:
                todo |= self._finish(pid, factors[0])

    def _products(self, cid: int) -> set[int]:
        """The open products with a factor among the legs of ``cid``."""
        place = self.shape.place
        return {leg[1] if len(leg) == 4 else place[leg][0]
                for leg in self.legs[cid] if len(leg) == 4 or leg in place}

    def _shrunk(self, cid: int) -> set[int]:
        """The products a step that took a leg from ``cid`` may have made
        a join free in: those of its last leg, if it has one left.  Its
        other legs stay where they were."""
        return self._products(cid) if len(self.legs[cid]) == 1 else set()

    # -- the search ------------------------------------------------------

    def growth(self) -> list:
        """The steps that may add a leg: a pending split (named by its
        leg), or a join of two adjacent ready factors (pid, i)."""
        options: list = list(self.splits)
        owner = self.owner
        for pid, factors in self.factors.items():
            options += [(pid, i) for i in range(1, len(factors))
                        if factors[i - 1] in owner and factors[i] in owner]
        return options

    def grow(self, step) -> None:
        """Run a growth step and every step it makes free: after a split,
        in the products of the new legs; after a join, in those with a
        factor in each of the two components."""
        if type(step[0]) is int:
            pid, i = step
            a, b = self.factors[pid][i - 1:i + 1]
            both = self._products(self.owner[a]) & self._products(self.owner[b])
            self._settle(both | self._shrunk(self._multiply(pid, i)))
        else:
            self._settle(self._split(step))

    def plan(self) -> "_Plan":
        """The finished network as a plan: the surviving components are
        outer-multiplied in register order and permuted once."""
        order = self.shape.order
        final = sorted(self.legs)
        legs = [leg for cid in final for leg in self.legs[cid]]
        if set(order) != set(legs) or len(order) != len(legs):
            raise ExpressionError(f"leftover legs {legs!r} vs outputs {order!r}")
        return _Plan(tuple(self.shape.init), tuple(_STEPS.setdefault(s, s) for s in self.steps),
                     tuple(final), tuple(legs.index(key) for key in order))


class _Graph:
    """Every state the growth steps reach from the start of one
    expression.  A state depends only on the formula, so the graph is built
    once, and priced once for each set of values of the quantities it names
    (``names``, of which ``operators`` are the operators).  States are
    numbered so that a state comes after every state it leads to; the start
    is the last.  The
    edges out of state s are ``first[s]:first[s + 1]``: edge e runs the
    growth step ``steps[e]`` to state ``to[e]``, and its kernel work on
    the way is work w = ``via[e]``: the terms numbered
    ``work[1][work[0][w]:work[0][w + 1]]``.  Term t is (``terms[0][t]``,
    ``terms[1][t]``, ``terms[2][t]``) = (fanout, a, b): one plus the
    fanout times the estimates a and b (see :class:`_Network`), and
    estimate i is the size ``ests[0][i]`` capped
    by n to the ``ests[1][i]`` legs, and size s > 0 is the product of size
    ``recipes[0][s - 1]``, size ``recipes[1][s - 1]`` and quantity
    ``recipes[2][s - 1]`` (see :class:`_Shape`).  A graph with one route
    keeps only that route, in ``fixed``, its names and the number of its
    ``states``."""

    __slots__ = ("states", "names", "operators", "fixed", "routes", "recipes", "ests", "legs",
                 "terms", "work", "first", "steps", "to", "via")

    def __init__(self, expr: "Expression"):
        start = _Network.start(expr)
        # the states by key, the work and one object per step, numbered as
        # they are met; then the edges out of each state
        found: tuple[dict, ...] = ({}, {}, {})
        edges: list[dict] = []
        _solve(start, found, edges)
        self.states = len(edges)
        shape = start.shape
        self.names = tuple(_NAMES.setdefault(name, name) for name in shape.names)
        self.operators = tuple(name for name in self.names if name[0] == "op")
        if all(len(out) <= 1 for out in edges):
            route, sid = [], len(edges) - 1
            while edges[sid]:
                ((sid, _), step), = edges[sid].items()
                route.append(step)
            self.fixed = tuple(route)
            return
        self.fixed = None
        self.routes: dict[tuple, tuple] = {}
        self.recipes = [array("H", column) for column in zip(*shape.recipes[1:])]
        self.ests = [array("H", column) for column in zip(*shape.ests)]
        self.legs = max(self.ests[1])
        terms: dict[tuple, int] = {}
        self.work = array("H", [0]), array("H")
        for done in found[1]:
            self.work[1].extend(terms.setdefault(term, len(terms)) for term in done)
            self.work[0].append(len(self.work[1]))
        self.terms = [array("H", column) for column in zip(*terms)]
        self.first, self.to, self.via = array("H", [0]), array("H"), array("H")
        steps = []
        for out in edges:
            for (to, via), step in out.items():
                self.to.append(to)
                self.via.append(via)
                steps.append(step)
            self.first.append(len(steps))
        self.steps = tuple(steps)

    def route(self, expr: "Expression", ops: AlgebraOps) -> tuple:
        """The growth steps of least total estimated work for ``ops`` and
        the supports of ``expr``'s sources: the one route of a single-route
        graph, else the route :meth:`search` finds for these quantities,
        kept in ``routes``.  When ``routes`` holds ``ROUTES`` of them it
        starts again empty, so a lost race only searches twice."""
        profile = ops.profile()
        for name in self.operators:
            if name not in profile:
                raise ExpressionError(f"unknown operator {name[1]!r}")
        if self.fixed is not None:
            return self.fixed
        sources = expr.sources
        values = tuple(len(sources[name[1]].entries) if name[0] == "src" else profile[name]
                       for name in self.names)
        route = self.routes.get(values)
        if route is None:
            route = self.search(values)
            routes = self.routes
            if len(routes) >= ROUTES:
                routes = self.routes = {}
            routes[values] = route
        return route

    def search(self, values: tuple) -> tuple:
        """The route of least total estimated work when the quantities
        ``names`` have ``values``, by dynamic programming: the work to
        finish from a state does not depend on how it was reached."""
        n = values[_QN]
        weight = [1 + value for value in values]
        size = [1.0]
        for a, b, q in zip(*self.recipes):
            size.append(size[a] * size[b] * values[q])
        cap = [n ** legs for legs in range(self.legs + 1)]
        est = [min(size[s], cap[legs]) for s, legs in zip(*self.ests)]
        term = [weight[f] * est[a] * est[b] for f, a, b in zip(*self.terms)]
        bounds, done = self.work
        cost = [sum([term[t] for t in done[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]
        first, to, via = self.first, self.to, self.via
        best: list[float] = []
        choice: list[int] = []
        for sid in range(len(first) - 1):
            lo, hi = first[sid], first[sid + 1]
            if lo == hi:
                best.append(0.0)
                choice.append(-1)
                continue
            totals = [best[child] + cost[w] for child, w in zip(to[lo:hi], via[lo:hi])]
            least = min(totals)
            best.append(least)
            choice.append(lo + totals.index(least))
        route, sid = [], len(first) - 2
        while (e := choice[sid]) >= 0:
            route.append(self.steps[e])
            sid = to[e]
        return tuple(route)


def _solve(net: _Network, found: tuple[dict, ...], edges: list[dict]) -> int:
    """The number of ``net``'s state, numbered (and its edges, as
    {(state, work): step}, appended to ``edges``) after every state it
    leads to; see :class:`_Graph`."""
    ids, work, named = found
    key = net.key()
    sid = ids.get(key)
    if sid is None:
        out: dict[tuple, tuple] = {}
        for step in net.growth():
            child = net.child(step)
            # steps to one state with the same work are one choice: the first is kept
            out.setdefault((_solve(child, found, edges),
                            work.setdefault(tuple(child.terms), len(work))),
                           named.setdefault(step, step))
        if not out and net.factors:
            raise ExpressionError("a product never became ready")
        sid = ids[key] = len(edges)
        edges.append(out)
    return sid


class _Planner:
    """The plan search of one expression, shared by its bound copies: the
    graph of its states, built on first use, and the plan of each route
    taken, at most one per route of the graph.  Each is built whole before
    it is stored, and a lost race only builds one twice."""

    __slots__ = ("graph", "plans")

    def __init__(self):
        self.graph: _Graph | None = None
        self.plans: dict[tuple, _Plan] = {}

    def plan(self, expr: "Expression", ops: AlgebraOps) -> "_Plan":
        graph = self.graph
        if graph is None:
            graph = self.graph = _Graph(expr)
        route = graph.route(expr, ops)
        plan = self.plans.get(route)
        if plan is None:
            net = _Network.start(expr)
            for step in route:
                net.grow(step)
            plan = self.plans[route] = net.plan()
        return plan


class _Plan:
    """The kernel steps of one evaluation order.  ``init`` names the
    source each register starts from (None for the unit); a join appends
    a register.  ``final`` lists the registers outer-multiplied at the end
    and ``perm`` the permutation of their legs."""

    __slots__ = ("init", "steps", "final", "perm")

    def __init__(self, init, steps, final, perm):
        self.init, self.steps, self.final, self.perm = init, steps, final, perm

    def run(self, sources: Mapping[str, TensorElement | str], ops: AlgebraOps,
            functionals: Sequence[Functional]) -> TensorElement:
        """Every loop over the entries is one of :mod:`multilinear`'s kernels,
        told how many legs each register has."""
        n = ops.dim
        table = _lift_table(ops.mult, n)
        regs: list = []
        ranks: list[int] = []
        for name in self.init:
            src = ops.unit if name is None else sources[name]
            if src == VAR:
                regs.append(_basis_sum(((m, m) for m in range(n)), n))
                ranks.append(2)
            else:
                regs.append(_lift_kept(src, n))
                ranks.append(src.rank)
        for step in self.steps:
            kind = step[0]
            if kind == "join":
                _, a, pa, b, pb = step
                regs.append(_join(regs[a], regs[b], table, ranks[a], ranks[b], pa, pb))
                ranks.append(ranks[a] + ranks[b] - 1)
                regs[a] = regs[b] = None
            elif kind == "merge":
                _, r, pa, pb = step
                regs[r] = _merge(regs[r], table, ranks[r], pa, pb)
                ranks[r] -= 1
            else:
                _, r, p, arg = step
                columns = (ops.coproduct if kind == "split" else functionals[arg] if kind == "fn"
                           else ops.operators[arg]).numerator_columns()
                regs[r] = _map_leg(regs[r], columns, ranks[r], p)
                ranks[r] += columns.rank - 1
        if self.final:
            t, rank = regs[self.final[0]], ranks[self.final[0]]
        else:
            t, rank = _basis_sum([()], n), 0
        for r in self.final[1:]:
            t = _outer(t, regs[r], n, ranks[r])
            rank += ranks[r]
        regs = None                     # so the parts are freed below
        return TensorElement(rank, n, _lower(t, n, rank, self.perm), _trust=True)


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
