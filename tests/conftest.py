"""Shared fixtures: catalog algebras, contexts and (expensive) doubles are
built once per session."""

from __future__ import annotations

import pytest

from quasihopf.context import AlgebraContext, get_context
from quasihopf.double import build_double
from quasihopf.exactnum import ONE, Scalar
from quasihopf.multilinear import Functional, LinearOperator, TensorElement
from quasihopf.qha import QhaPresentation
from quasihopf.workbench import catalog_build, export_document, import_document

ALGEBRAS = ("H2", "H8+", "H8-", "kZ2-hopf")


@pytest.fixture(scope="session")
def h2():
    return catalog_build("H2")


@pytest.fixture(scope="session")
def h8p():
    return catalog_build("H8+")


@pytest.fixture(scope="session")
def h8m():
    return catalog_build("H8-")


@pytest.fixture(scope="session")
def baseline():
    return catalog_build("kZ2-hopf")


@pytest.fixture(scope="session")
def ctx_h2(h2):
    return get_context(h2)


@pytest.fixture(scope="session")
def ctx_h8p(h8p):
    return get_context(h8p)


@pytest.fixture(scope="session")
def ctx_h8m(h8m):
    return get_context(h8m)


@pytest.fixture(scope="session")
def ctx_baseline(baseline):
    return get_context(baseline)


TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def d2(h2):
    import time
    start = time.time()
    double = build_double(h2)
    TIMINGS["d2-build"] = time.time() - start
    return double


@pytest.fixture(scope="session")
def d8(h8p):
    import time
    start = time.time()
    double = build_double(h8p)
    TIMINGS["d8-build"] = time.time() - start
    return double


@pytest.fixture(scope="session")
def d8_report(d8):
    import time
    from quasihopf.double import double_report
    start = time.time()
    report = double_report(d8)
    TIMINGS["d8-report"] = time.time() - start
    return report


def mutate_presentation(pres: QhaPresentation, part: str, key, delta=None) -> QhaPresentation:
    """Copy of a presentation with one structure constant bumped (by +1 unless
    ``delta`` given); bypasses validation on purpose."""
    delta = ONE if delta is None else delta
    fields = {
        "name": f"{pres.name}~{part}{key}", "dim": pres.dim, "basis": pres.basis,
        "field_tag": pres.field_tag, "mult": pres.mult, "unit": pres.unit,
        "counit": pres.counit, "coproduct": pres.coproduct, "phi": pres.phi,
        "phi_inv": pres.phi_inv, "antipode": pres.antipode,
        "alpha": pres.alpha, "beta": pres.beta,
    }
    if part == "mult":
        i, j, k = key
        table = {pair: dict(row) for pair, row in pres.mult.items()}
        row = table.setdefault((i, j), {})
        row[k] = row.get(k, ONE - ONE) + delta
        fields["mult"] = {pair: tuple(sorted((m, v) for m, v in row.items()
                                             if not v.is_zero()))
                          for pair, row in table.items()}
        fields["mult"] = {pair: row for pair, row in fields["mult"].items() if row}
    elif part in ("phi", "phi_inv"):
        tensor = getattr(pres, part)
        fields[part] = tensor + TensorElement(3, pres.dim, {tuple(key): delta})
    elif part == "coproduct":
        i, j, k = key
        cols = list(pres.coproduct.columns)
        cols[i] = cols[i] + TensorElement(2, pres.dim, {(j, k): delta})
        fields["coproduct"] = LinearOperator(pres.dim, cols, dst_rank=2)
    elif part == "antipode":
        i, j = key
        cols = list(pres.antipode.columns)
        cols[i] = cols[i] + TensorElement(1, pres.dim, {(j,): delta})
        fields["antipode"] = LinearOperator(pres.dim, cols)
    elif part in ("alpha", "beta", "unit"):
        tensor = getattr(pres, part)
        fields[part] = tensor + TensorElement(1, pres.dim, {(key,): delta})
    elif part == "counit":
        coords = list(pres.counit.coords)
        coords[key] = coords[key] + delta
        fields["counit"] = Functional(coords)
    elif part == "swap-alpha-beta":
        fields["alpha"], fields["beta"] = pres.beta, pres.alpha
    else:
        raise ValueError(part)
    return QhaPresentation(**fields)


def swap_alpha_beta(pres: QhaPresentation) -> QhaPresentation:
    return mutate_presentation(pres, "swap-alpha-beta", None)


def all_mutations(pres: QhaPresentation):
    """Every single +1 bump of every structure constant slot."""
    n = pres.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                yield mutate_presentation(pres, "mult", (i, j, k))
                yield mutate_presentation(pres, "coproduct", (i, j, k))
                yield mutate_presentation(pres, "phi", (i, j, k))
    for i in range(n):
        for j in range(n):
            yield mutate_presentation(pres, "antipode", (i, j))
    for part in ("alpha", "beta", "unit"):
        for i in range(n):
            yield mutate_presentation(pres, part, i)
    for i in range(n):
        yield mutate_presentation(pres, "counit", i)


def constant_mutations(pres: QhaPresentation):
    """Every +1 bump of one constant a document stores: an entry of a sparse
    field, or a coordinate of unit, counit, alpha or beta."""
    for (i, j), row in pres.mult.items():
        for k, _ in row:
            yield mutate_presentation(pres, "mult", (i, j, k))
    for i, col in enumerate(pres.coproduct.columns):
        for j, k in col.entries:
            yield mutate_presentation(pres, "coproduct", (i, j, k))
    for part in ("phi", "phi_inv"):
        for key in getattr(pres, part).entries:
            yield mutate_presentation(pres, part, key)
    for i, col in enumerate(pres.antipode.columns):
        for (j,) in col.entries:
            yield mutate_presentation(pres, "antipode", (i, j))
    for part in ("unit", "counit", "alpha", "beta"):
        for i in range(pres.dim):
            yield mutate_presentation(pres, part, i)


def relabelled(pres: QhaPresentation, perm: list[int]) -> QhaPresentation:
    """The same presentation with basis element ``i`` renamed ``perm[i]``:
    exported, every index field permuted, and imported without validation."""
    doc = export_document(pres)

    def permuted(values: list) -> list:
        out = [None] * len(values)
        for i, value in enumerate(values):
            out[perm[i]] = value
        return out

    for key in ("basis", "unit", "counit", "alpha", "beta"):
        doc[key] = permuted(doc[key])
    for key in ("mult", "coproduct", "phi", "phi_inv", "antipode"):
        doc[key] = sorted([*(perm[i] for i in entry[:-1]), entry[-1]] for entry in doc[key])
    return import_document(doc, validate=False)


def scalars_of(*values) -> list[Scalar]:
    return [v if isinstance(v, Scalar) else Scalar.of(v) for v in values]


# the names of the identity registry, in sorted order; they are stable
REGISTRY_NAMES = [
    "app2", "app2a", "app2aa", "app2b", "app3b", "app4", "ca", "cop-f", "cop-gamma",
    "cop-pr", "cop-qr", "elemmovedbyrightint", "f-counit", "f1", "f2a", "f2b", "f4",
    "fdeltaDrinf", "fgab-alpha", "fgab-beta", "fgab-salpha", "firstRad-el",
    "firstRad-fn", "foressleftintqd", "foressleftintqd2", "foressleftintqd3",
    "formtplfversusqg", "fpformula", "fu1", "fv1", "fvfformunim", "gdf-delta",
    "gdf-gamma", "inchileftcoint", "lamS-v", "lamSm2", "lcointsimpl", "movingelem1",
    "mumuinv", "normdefmodelem", "peq", "pf", "pl1", "pplu", "pql", "pqla", "pqr",
    "pqra", "pr1", "prelimpobs", "ql1", "ql1a", "ql2", "qlqr", "qqlv", "qqt-left",
    "qqt-right", "qr1", "qr1a", "qr2", "qrpversusqtp", "qtr-el", "qtr-fn", "rint3",
    "rint4", "rint5", "s4equivversion", "tplvspr", "tsFrobelem", "uvpql-u", "uvpql-v",
]
