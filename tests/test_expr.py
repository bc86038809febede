"""The contraction planner of ``Expression.evaluate`` against the reference
evaluation order (pull on first use, in slot order), the largest
intermediate support it reaches and the reach of its search; the grammar
of ``Expression.parse`` and the reprs that spell it."""

from __future__ import annotations

import ast
import gc
import itertools
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import quasihopf.expr as expr
from quasihopf import double, intcoint, qha
from quasihopf.canonical import FORMS, LETTERS, REGISTRY, _bind, _bind_all, parse
from quasihopf.context import AlgebraContext, get_context
from quasihopf.double import build_double, double_integral
from quasihopf.exactnum import ONE
from quasihopf.expr import VAR, AlgebraOps, Expression, ExpressionError, Leg, Op
from quasihopf.intcoint import cointegral_space
from quasihopf.multilinear import TensorElement
from quasihopf.workbench import catalog_build
from ref_evaluate import ref_evaluate
from ref_registry import REF, REF_FORMS, REF_MODULES, REF_OPERATORS

KERNELS = ("_join", "_merge", "_map_leg", "_outer")
MODULES = {"intcoint": intcoint, "double": double, "qha": qha}


def _context(name: str, d2):
    return get_context(d2.presentation if name == "D(H2)" else catalog_build(name))


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_planned_evaluation_matches_reference_on_registry(name, d2):
    """Both sides of every registered identity, variables unbound, give the
    same tensor under the planner as under the reference order."""
    ctx = _context(name, d2)
    compared = 0
    for ident_name in sorted(REGISTRY):
        ident = REGISTRY[ident_name]
        if ident.custom:
            continue
        for side in ident.build(ctx):
            planned = side.evaluate(ctx.ops)
            assert planned == ref_evaluate(side, ctx.ops), ident_name
            compared += 1
    assert compared == 2 * sum(not ident.custom for ident in REGISTRY.values())


def _spelled(outputs) -> list:
    """Outputs as nested tuples of their kinds, names and reprs."""
    def items(seq):
        return tuple((item.opname, items(item.items)) if type(item) is Op else repr(item)
                     for item in seq)
    return [(type(out).__name__, getattr(out, "functional", None), items(out.items))
            for out in outputs]


def test_parse_reads_the_grammar():
    """Each construct of the grammar maps onto its part of an Expression;
    the variables come first, in declaration order, then the letters in
    the order they first appear."""
    letters = {"h": VAR, "h'": VAR, "X": 3, "x": 3, "t": 1}
    side = Expression.parse("mu(h') X1 S(x3)_1 x x1 Si(X3_11 h_21) x X2 x2 S(x3)_2 X3_12 h_22 "
                            "x t S2(X3_2 h_1) x 1", letters)
    assert list(side.sources) == ["h", "h'", "X", "x", "t"]
    assert _spelled(side.outputs) == [
        ("Fn", "mu", ("h'",)),
        ("Leg", None, ("X1", "S(x3)_1")),
        ("Leg", None, ("x1", ("Si", ("X3_11", "h_21")))),
        ("Leg", None, ("X2", "x2", "S(x3)_2", "X3_12", "h_22")),
        ("Leg", None, ("t", ("S2", ("X3_2", "h_1")))),
        ("Leg", None, ())]
    assert _spelled(Expression.parse("lam(h) mu(h')", letters).outputs) == [
        ("Fn", "lam", ("h",)), ("Fn", "mu", ("h'",))]
    assert repr(side.outputs[2].items[1]) == "Si(X3_11 h_21)"


def _parsed_sides() -> dict[str, Expression]:
    """Every side parsed from a formula: the closed forms and identities of
    ``canonical`` and the formulas of ``intcoint``, ``double`` and ``qha``."""
    sides = {f"canonical.{form}[{i}]": side
             for form, parsed in FORMS.items() for i, side in enumerate(parsed)}
    sides.update((f"{ident}[{i}]", side) for ident, entry in REGISTRY.items()
                 for i, side in enumerate(entry.sides))
    sides.update((f"{module}.{form}[{i}]", side) for module, mod in MODULES.items()
                 for form, parsed in mod.FORMS.items() for i, side in enumerate(parsed))
    return sides


def _refs(items) -> list:
    """The (name, comp, tokens) of every Ref among ``items``, in order, and
    the operator of every Op around them."""
    found = []
    for item in items:
        if type(item) is Op:
            found.append((item.opname, _refs(item.items)))
        else:
            found.append((item.name, item.comp, item.tokens))
    return found


def test_reprs_parse_back_to_the_same_refs():
    """Each parsed side, written out again from the reprs of its Refs and
    Ops, parses to the same references: every repr is the grammar's own
    spelling."""
    sides = _parsed_sides()
    assert len(sides) == 207
    for label, side in sides.items():
        letters = {name: VAR if src == VAR else src.rank for name, src in side.sources.items()}
        legs, words = [], []
        for out in side.outputs:
            items = " ".join(map(repr, out.items))
            if isinstance(out, Leg):
                legs.append(" ".join(words + [items or "1"]))
                words = []
            else:
                words.append(f"{out.functional}({items})")
        if words:
            legs.append(" ".join(words))
        again = Expression.parse(" x ".join(legs), letters)
        assert list(again.sources) == list(side.sources), label
        assert ([(type(out), _refs(out.items)) for out in again.outputs]
                == [(type(out), _refs(out.items)) for out in side.outputs]), label


@pytest.fixture
def against_reference(monkeypatch):
    """Every ``Expression.evaluate`` call also runs the reference order and
    must agree with it; the evaluated expressions are recorded."""
    seen: list[Expression] = []
    planned = Expression.evaluate

    def checked(self, ops):
        result = planned(self, ops)
        assert result == ref_evaluate(self, ops)
        seen.append(self)
        return result

    monkeypatch.setattr(Expression, "evaluate", checked)
    return seen


def test_planned_evaluation_matches_reference_in_constructions(h2, h8p, against_reference):
    """The expressions that build the double's tables, its integral and the
    cointegral systems agree with the reference, on fresh contexts so that
    every canonical element is evaluated again."""
    d2 = build_double(h2)
    double_integral(d2)
    for pres in (h8p, d2.presentation):
        ctx = AlgebraContext(pres)
        for side in ("left", "right"):
            assert len(cointegral_space(ctx, side)) == 1
    forms = [double.FORMS[name] for name in ("mult", "coproduct", "antipode", "integral")]
    forms += [intcoint.FORMS[name] for name in ("left-coint", "right-coint")]
    for side in (side for form in forms for side in form):
        assert any(e.outputs is side.outputs for e in against_reference), side.outputs


def test_context_ops_read_only_the_functionals_a_formula_names(h8p):
    """``ctx.ops`` reads each functional from its context when a formula
    names it: on a fresh context a side that reads mu builds the integral
    data but no cointegral data, and a side that reads only eps builds
    neither.  The view holds its context weakly, so a dropped context is
    freed without the cycle collector."""
    ctx = AlgebraContext(h8p)
    _bind(ctx, intcoint.FORMS["f-mu"][0]).evaluate(ctx.ops)
    assert "integral_data" in ctx._memo and "cointegral_data" not in ctx._memo
    ctx = AlgebraContext(h8p)
    _bind(ctx, REGISTRY["f-counit"].sides[0]).evaluate(ctx.ops)
    assert "integral_data" not in ctx._memo and "cointegral_data" not in ctx._memo
    freed = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert freed() is None
    finally:
        gc.enable()


@pytest.fixture
def peak_support(monkeypatch):
    """The largest support any kernel call of ``expr`` returns; reset by
    assigning 0."""
    peak = [0]

    def recording(kernel):
        def run(*args):
            out = kernel(*args)
            peak[0] = max(peak[0], len(out[0]))
            return out
        return run

    for name in KERNELS:
        monkeypatch.setattr(expr, name, recording(getattr(expr, name)))
    return peak


# The peak kernel support of each side on D(H2), where phi is dense (64 of
# 64 entries), bounded at what the whole-order search reaches.  An order
# that splits a leg before the joins that follow peaks higher: 4,096 on
# gamma[1] and both delta forms, 512 on f and f^-1, 8,192 on q3[1],
# 16,384 on app2[0] and 26,624 on normdefmodelem[1].
DOUBLE_PEAKS = {
    "normdefmodelem": (160, 4096),
    "fvfformunim": (160, 2048),
    "app2": (832, 416),
    "gamma": (1024, 2048),
    "delta": (1024, 2048),
    "f": (256,),
    "f^-1": (256,),
    "q3": (4096, 4096),
}


def _double_sides(ctx, name: str) -> tuple[list[Expression], AlgebraOps]:
    """The sides of an identity, a closed form or the axiom q3 on ``ctx``,
    and the operators they are evaluated with."""
    if name in REGISTRY:
        return list(REGISTRY[name].build(ctx)), ctx.ops
    if name in FORMS:
        return [_bind(ctx, side) for side in FORMS[name]], ctx.ops
    pres = ctx.pres
    ops = AlgebraOps(pres.dim, pres.mult, pres.unit, pres.coproduct,
                     operators={"S": pres.antipode})
    return [side.bind(dict.fromkeys("XYZ", pres.phi)) for side in qha.FORMS[name]], ops


@pytest.mark.parametrize("name", sorted(DOUBLE_PEAKS))
def test_peak_support_on_double(d2, name, peak_support):
    """On D(H2) each side stays within the peak support of the plan the
    search finds, and the two sides (of an identity, of q3, or the two
    closed forms of gamma or delta) agree."""
    ctx = get_context(d2.presentation)
    sides, ops = _double_sides(ctx, name)
    results = []
    for side, bound in zip(sides, DOUBLE_PEAKS[name], strict=True):
        side.evaluate(ops)                # builds the lazy operands once
        peak_support[0] = 0
        results.append(side.evaluate(ops))
        assert 0 < peak_support[0] <= bound, (name, peak_support[0])
    if len(results) == 2:
        assert results[0] == results[1]


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_parsed_sides_match_hand_built_reference(name, d2, peak_support):
    """Every side parsed from a formula, of a non-custom identity or of a
    closed form of a canonical element, evaluates to the same tensor as the
    side written out by hand in ``ref_registry``; on H8+ and D(H2) its peak
    kernel support is no larger."""
    ctx = _context(name, d2)
    pairs = [(f"{form}[{i}]", _bind(ctx, parsed), ref)
             for form, build in REF_FORMS.items()
             for i, (parsed, ref) in enumerate(zip(FORMS[form], build(ctx), strict=True))]
    pairs += [(f"{ident}[{i}]", parsed, ref)
              for ident, build in sorted(REF.items())
              for i, (parsed, ref) in enumerate(zip(REGISTRY[ident].build(ctx), build(ctx),
                                                    strict=True))]
    assert len(pairs) == 12 + 2 * sum(not ident.custom for ident in REGISTRY.values())
    for label, parsed, ref in pairs:        # the operands are built, so peaks are the sides'
        results, peaks = [], []
        for side in (parsed, ref):
            peak_support[0] = 0
            results.append(side.evaluate(ctx.ops))
            peaks.append(peak_support[0])
        assert results[0] == results[1], label
        if name in ("H8+", "D(H2)"):
            assert peaks[0] <= peaks[1], (label, peaks)


# The two forms that rewrite an operator of their own (C = Si L_u R_u^-1
# and S^4) rather than transcribe the hand-built side, and the peak support
# of the parsed side on H8+ and D(H2), where the transcriptions are bounded
# by their reference.
REWRITES = {("intcoint", "nakayama^-1"): {"H8+": 62, "D(H2)": 128},
            ("intcoint", "S4"): {"H8+": 50, "D(H2)": 64}}


@pytest.mark.parametrize("name", ["H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"])
def test_module_formulas_match_hand_built_reference(name, d2, peak_support):
    """Every side parsed from a formula of ``intcoint``, ``double`` or
    ``qha`` evaluates to the same tensor as the side the module built by
    hand (``ref_registry.REF_MODULES``); an index leg that the hand-built
    side placed elsewhere is compared at the front.  On H8+ and D(H2) the
    peak kernel support of a transcribed side is no larger than its
    reference's, and that of a rewrite is pinned."""
    ctx = _context(name, d2)
    assert set(REF_MODULES) == {(module, form) for module, mod in MODULES.items()
                                for form in mod.FORMS}
    for functional in ("mu", "mui", "lam", "Lam"):      # built before any peak is read
        ctx.ops.functionals.get(functional)
    for (module, form), build in REF_MODULES.items():
        tensors, refs = build(ctx)
        ops = ctx.ops
        if (module, form) in REF_OPERATORS:
            ops = AlgebraOps(ops.dim, ops.mult, ops.unit, ops.coproduct,
                             {**ops.operators, **REF_OPERATORS[module, form](ctx)},
                             ops.functionals)
        parsed = _bind_all(ctx, MODULES[module].FORMS[form], **tensors)
        for i, (side, ref) in enumerate(zip(parsed, refs, strict=True)):
            label = f"{module}.{form}[{i}]"
            results, peaks = [], []
            for expression, expression_ops in ((side, ctx.ops), (ref, ops)):
                peak_support[0] = 0
                results.append(expression.evaluate(expression_ops))
                peaks.append(peak_support[0])
            assert results[0] == results[1], label
            if name in ("H8+", "D(H2)"):
                bound = REWRITES[module, form][name] if (module, form) in REWRITES else peaks[1]
                assert peaks[0] <= bound, (label, peaks)


# The most states the plan search of one parsed side may have.  The states
# depend only on the formula; the largest, double.FORMS["coproduct"], has
# 432, and normdefmodelem's right side 237.
SEARCH_STATES = 512


def test_every_parsed_side_has_a_small_plan_search():
    """The graph of states each evaluation prices stays within
    SEARCH_STATES for every parsed side: a new formula that outgrows it
    fails here rather than planning slowly."""
    states = {label: expr._Graph(side).states for label, side in _parsed_sides().items()}
    largest = max(states, key=states.get)
    assert states[largest] <= SEARCH_STATES, (largest, states[largest])


def test_one_side_evaluates_from_several_threads():
    """Bound copies of one parsed side share its plan search.  Evaluated
    from four threads at once, on two algebras, each call gives what a
    side parsed apart gives alone."""
    text = "S(x1 X2) alpha x2 X3_1 x S(X1) alpha' x3 X3_2"
    contexts = [get_context(catalog_build(name)) for name in ("H2", "H8+")]
    expected = [_bind(ctx, parse(text)[0]).evaluate(ctx.ops) for ctx in contexts]
    (shared,) = parse(text)

    def run(k: int):
        ctx = contexts[k % 2]
        return _bind(ctx, shared).evaluate(ctx.ops)
    with ThreadPoolExecutor(4) as pool:
        results = list(pool.map(run, range(32)))
    assert results == [expected[k % 2] for k in range(32)]


def test_route_memo_and_kept_lifts_under_thread_switches(monkeypatch):
    """Eight threads evaluate bound copies of one parsed side on four fresh
    algebras, switching every microsecond, while each graph keeps at most
    one route (so its table starts again at almost every call) and each
    source is lifted on first use: every call gives what a side parsed
    apart gives alone, so a lost race only searches or lifts twice."""
    monkeypatch.setattr(expr, "ROUTES", 1)
    names = ("H2", "H8+", "H8-", "kZ2-hopf")
    text = "S(x1 X2) alpha x2 X3_1 x S(X1) alpha' x3 X3_2"
    expected = [_bind(ctx, parse(text)[0]).evaluate(ctx.ops)
                for ctx in (AlgebraContext(catalog_build(name)) for name in names)]
    contexts = [AlgebraContext(catalog_build(name)) for name in names]
    (shared,) = parse(text)

    def run(k: int):
        ctx = contexts[k % 4]
        return _bind(ctx, shared).evaluate(ctx.ops)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(run, k) for k in range(64)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected[k % 4] for k in range(64)]


def test_component_used_twice_names_its_path():
    """A split path used twice is named in full, as the other errors of a
    token tree are."""
    letters = {"h": VAR, "p": 2}
    with pytest.raises(ExpressionError, match=r"h\^1\.1\.2: used twice"):
        Expression.parse("h_12 p1 x h_12 p2 S(h_2)", letters)


def test_only_expr_builds_expressions_by_hand():
    """Every expression outside ``expr`` is parsed from a formula: no other
    module of the package imports the classes a formula is read into."""
    by_hand = {"Leg", "Fn", "Op", "Ref", "*"}
    found = []
    for path in sorted(Path(expr.__file__).parent.glob("*.py")):
        if path.name == "expr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "expr":
                found += [(path.name, alias.name) for alias in node.names if alias.name in by_hand]
            elif (isinstance(node, ast.Attribute) and node.attr in by_hand
                  and isinstance(node.value, ast.Name) and node.value.id == "expr"):
                found.append((path.name, node.attr))
    assert found == []


# The algebras the route memo is checked on: the catalog algebras, their
# variants and the double of H2.
ROUTE_ALGEBRAS = [f"{name}{which}" for name in ("H2", "H8+", "H8-", "kZ2-hopf")
                  for which in ("", "^op", "^cop", "^opcop")] + ["D(H2)"]


def _route_context(algebra: str, d2):
    if algebra == "D(H2)":
        return get_context(d2.presentation)
    name, _, which = algebra.partition("^")
    ctx = get_context(catalog_build(name))
    return ctx.variant_ctx(which) if which else ctx


def _bound_to(ctx, side: Expression) -> Expression:
    """``side`` bound to the tensors of ``ctx``; a letter that only its
    module binds (or binds at another rank) gets the basis tensor e_0 (x)
    ... (x) e_0, since a route reads only supports."""
    n = ctx.pres.dim
    stand_ins = {name: TensorElement.basis(n, *[0] * src.rank)
                 for name, src in side.sources.items()
                 if src != VAR and LETTERS.get(name, (None, None))[1] != src.rank}
    return _bind(ctx, side, **stand_ins)


def _priced(graph, side: Expression, ops: AlgebraOps) -> tuple:
    """The quantities ``graph`` prices, read here from ``ops`` and the
    sources of ``side``."""
    profile = ops.profile()
    return tuple(len(side.sources[name[1]].entries) if name[0] == "src" else profile[name]
                 for name in graph.names)


@pytest.fixture(scope="module")
def route_cases(d2):
    """(algebra, label, bound side, ops) for every parsed side on every
    algebra of ROUTE_ALGEBRAS, in that order."""
    sides = _parsed_sides()
    cases = []
    for algebra in ROUTE_ALGEBRAS:
        ctx = _route_context(algebra, d2)
        cases += [(algebra, label, _bound_to(ctx, side), ctx.ops) for label, side in sides.items()]
    return cases


@pytest.fixture
def searches(monkeypatch):
    """The number of route searches run since the last reset to 0."""
    count = [0]
    search = expr._Graph.search

    def counted(self, values):
        count[0] += 1
        return search(self, values)

    monkeypatch.setattr(expr._Graph, "search", counted)
    return count


def test_memoized_route_equals_a_fresh_search(route_cases):
    """On every algebra the route a graph keeps for a parsed side is the
    one a search at that side's quantities finds now, also when the
    graph's memo was filled by the algebras before it, and again once every
    algebra has been priced."""
    graphs = {label: expr._Graph(side) for label, side in _parsed_sides().items()}
    multi = set()
    for _ in range(2):
        for algebra, label, side, ops in route_cases:
            graph = graphs[label]
            route = graph.route(side, ops)
            if graph.fixed is None:
                multi.add(label)
                assert route == graph.search(_priced(graph, side, ops)), (algebra, label)
            else:
                assert route is graph.fixed
    assert len(multi) > 100


def test_second_pricing_runs_no_search(route_cases, searches, h8p):
    """A graph prices a set of quantities once: planning a side again at
    the same quantities, as every evaluation does, runs no search, and a
    second evaluation of a parsed side on H8+ runs none either."""
    planners = {label: expr._Planner() for label in _parsed_sides()}
    for algebra, label, side, ops in route_cases:
        planner = planners[label]
        planner.plan(side, ops)
        searches[0] = 0
        assert planner.plan(side, ops) is planner.plan(side, ops), (algebra, label)
        assert searches[0] == 0, (algebra, label)
    ctx = get_context(h8p)
    for label, side in _parsed_sides().items():
        bound = _bound_to(ctx, side)
        first = bound.evaluate(ctx.ops)
        searches[0] = 0
        assert bound.evaluate(ctx.ops) == first, label
        assert searches[0] == 0, label


def test_route_memo_stays_at_its_bound(h8p, searches):
    """A graph that meets more sets of quantities than ROUTES keeps at
    most ROUTES routes, searches each new set once, and every route it
    returns is the one a search finds."""
    ctx = get_context(h8p)
    (side, _) = FORMS["gamma"]
    graph = expr._Graph(side)
    assert graph.fixed is None
    keys = list(itertools.product(range(ctx.pres.dim), repeat=3))
    for k in range(1, expr.ROUTES + 21):
        # phi^-1 stands in with support k
        bound = _bind(ctx, side, x=TensorElement(3, ctx.pres.dim, dict.fromkeys(keys[:k], ONE)))
        searches[0] = 0
        route = graph.route(bound, ctx.ops)
        assert searches[0] == 1, k
        assert len(graph.routes) <= expr.ROUTES
        assert route == graph.search(_priced(graph, bound, ctx.ops))


def test_unknown_operator_on_a_single_route_side_raises(h2):
    """A side whose graph has one route still names an operator that the
    algebra does not have, before any kernel runs."""
    ctx = get_context(h2)
    bare = AlgebraOps(ctx.pres.dim, ctx.pres.mult, ctx.pres.unit, ctx.pres.coproduct,
                      functionals=ctx.ops.functionals)
    checked = 0
    for label, side in _parsed_sides().items():
        graph = expr._Graph(side)
        if graph.fixed is None or not graph.operators:
            continue
        bound = _bound_to(ctx, side)
        with pytest.raises(ExpressionError, match="unknown operator"):
            bound.evaluate(bare)
        checked += 1
    assert checked > 10
