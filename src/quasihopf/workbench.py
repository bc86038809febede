"""Built-in example catalog and the JSON presentation interchange format.

Catalog entries:

* ``H2``       - the two-dimensional group algebra of Z/2 with the
                 nontrivial reassociator, alpha = g, beta = 1;
* ``H8+``/``H8-`` - the eight-dimensional algebras generated by g, x with
                 g^2 = 1, x^4 = 0, gx = -xg, over Q(i); the sign picks the
                 fourth root of unity used in the coproduct of x;
* ``kZ2-hopf`` - the same group algebra as an honest Hopf algebra
                 (trivial reassociator, alpha = beta = 1), the classical
                 baseline every quasi identity must degenerate to.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Callable, Mapping

from .exactnum import (FIELD_Q, FIELD_QI, HALF, MINUS_ONE, ONE, ParseError,
                       Scalar, ZERO, parse_scalar, render_scalar)
from .multilinear import Functional, LinearOperator, TensorElement, mult_pointwise
from .qha import QhaPresentation, load_and_validate, make_mult

CATALOG_NAMES = ("H2", "H8+", "H8-", "kZ2-hopf")


class UnknownCatalogName(KeyError):
    pass


class SchemaError(ValueError):
    """Structurally invalid presentation document; ``path`` locates the issue."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


# -- catalog -------------------------------------------------------------------


def _z2_phi(dim: int, g_index: int) -> TensorElement:
    """1 x 1 x 1 - 2 p- x p- x p- with p- = (1 - g)/2, as a rank-3 tensor."""
    entries: dict[tuple[int, int, int], Scalar] = {}
    quarter = Scalar.rational(1, 4)
    for e1 in (0, 1):
        for e2 in (0, 1):
            for e3 in (0, 1):
                sign_count = e1 + e2 + e3
                coeff = quarter if sign_count % 2 == 1 else -quarter
                key = (g_index if e1 else 0, g_index if e2 else 0, g_index if e3 else 0)
                entries[key] = coeff
    entries[(0, 0, 0)] = entries[(0, 0, 0)] + ONE
    return TensorElement(3, dim, entries)


def _build_z2(quasi: bool) -> QhaPresentation:
    """The group algebra of Z/2: H2 when ``quasi`` (the nontrivial
    reassociator, alpha = g), else kZ2-hopf (phi = 1 x 1 x 1, alpha = 1)."""
    dim = 2
    mult = make_mult(dim, [(a, c, (a + c) % 2, ONE) for a in (0, 1) for c in (0, 1)])
    unit = TensorElement.basis(dim, 0)
    cols = [TensorElement(2, dim, {(0, 0): ONE}),
            TensorElement(2, dim, {(1, 1): ONE})]
    coproduct = LinearOperator(dim, cols, dst_rank=2)
    phi = _z2_phi(dim, 1) if quasi else TensorElement(3, dim, {(0, 0, 0): ONE})
    return QhaPresentation(
        name="H2" if quasi else "kZ2-hopf", dim=dim, basis=("1", "g"), field_tag=FIELD_Q,
        mult=mult, unit=unit, counit=Functional([ONE, ONE]), coproduct=coproduct,
        phi=phi, phi_inv=phi, antipode=LinearOperator.identity(dim),
        alpha=TensorElement.basis(dim, 1) if quasi else unit, beta=unit)


def _h8_index(a: int, b: int) -> int:
    return 2 * b + a


def _build_h8(sign: int) -> QhaPresentation:
    """The eight-dimensional example; ``sign`` selects +i or -i."""
    dim = 8
    labels = []
    for b in range(4):
        for a in range(2):
            power = "" if b == 0 else ("x" if b == 1 else f"x^{b}")
            if a == 0:
                labels.append(power or "1")
            else:
                labels.append("g" + power if power else "g")
    entries = []
    for a in range(2):
        for b in range(4):
            for c in range(2):
                for d in range(4):
                    if b + d > 3:
                        continue
                    coeff = MINUS_ONE if (b * c) % 2 == 1 else ONE
                    entries.append((_h8_index(a, b), _h8_index(c, d),
                                    _h8_index((a + c) % 2, b + d), coeff))
    mult = make_mult(dim, entries)
    unit = TensorElement.basis(dim, 0)
    counit = Functional([ONE if b == 0 else ZERO
                         for b in range(4) for _ in range(2)])

    omega = Scalar.gaussian(HALF.re, HALF.re * sign)        # (1 +- i)/2
    omega_bar = omega.conjugate()

    def two_leg(pairs: Mapping[tuple[int, int], Scalar]) -> TensorElement:
        return TensorElement(2, dim, dict(pairs))

    g_idx, x_idx, gx_idx = _h8_index(1, 0), _h8_index(0, 1), _h8_index(1, 1)
    delta_g = two_leg({(g_idx, g_idx): ONE})
    delta_x = two_leg({
        (x_idx, 0): omega, (x_idx, g_idx): omega_bar,
        (0, x_idx): HALF, (0, gx_idx): HALF,
        (g_idx, x_idx): HALF, (g_idx, gx_idx): -HALF,
    })
    delta_one = two_leg({(0, 0): ONE})

    # column 2b + a, the basis index of g^a x^b, is Delta(g^a x^b)
    cols = []
    for b in range(4):
        for a in range(2):
            acc = delta_one
            for _ in range(a):
                acc = mult_pointwise(mult, acc, delta_g)
            for _ in range(b):
                acc = mult_pointwise(mult, acc, delta_x)
            cols.append(acc)
    coproduct = LinearOperator(dim, cols, dst_rank=2)

    phi = _z2_phi(dim, g_idx)
    # S(g) = g, S(x) = -x (p+ +- i p-) = -omega x + omega_bar gx
    s_x = TensorElement(1, dim, {(x_idx,): -omega, (gx_idx,): omega_bar})
    s_g = TensorElement.basis(dim, g_idx)
    # column 2b + a is S(g^a x^b) = S(x)^b S(g)^a
    s_cols = []
    for b in range(4):
        for a in range(2):
            acc = unit
            for _ in range(b):
                acc = mult_pointwise(mult, acc, s_x)
            for _ in range(a):
                acc = mult_pointwise(mult, acc, s_g)
            s_cols.append(acc)
    antipode = LinearOperator(dim, s_cols)
    alpha = TensorElement.basis(dim, g_idx)
    return QhaPresentation(
        name="H8+" if sign > 0 else "H8-", dim=dim, basis=tuple(labels),
        field_tag=FIELD_QI, mult=mult, unit=unit, counit=counit,
        coproduct=coproduct, phi=phi, phi_inv=phi, antipode=antipode,
        alpha=alpha, beta=unit)


@lru_cache(maxsize=None)
def catalog_build(name: str) -> QhaPresentation:
    if name == "H2":
        raw = _build_z2(True)
    elif name == "H8+":
        raw = _build_h8(+1)
    elif name == "H8-":
        raw = _build_h8(-1)
    elif name == "kZ2-hopf":
        raw = _build_z2(False)
    else:
        raise UnknownCatalogName(name)
    return load_and_validate(raw)


# -- JSON documents --------------------------------------------------------------

_FIELD_TO_JSON = {FIELD_Q: "Q", FIELD_QI: "Q(i)"}
_FIELD_FROM_JSON = {"Q": FIELD_Q, "Q(i)": FIELD_QI}
_DOCUMENT_KEYS = ("name", "field", "dim", "basis", "unit", "counit", "alpha", "beta",
                  "mult", "coproduct", "phi", "phi_inv", "antipode")


def export_document(pres: QhaPresentation) -> dict:
    """Serialize a presentation; output is byte-deterministic."""

    def coords(t: TensorElement) -> list[str]:
        return [render_scalar(c) for c in t.coords()]

    def sparse(t: TensorElement) -> list[list]:
        return [[*key, render_scalar(value)] for key, value in t.sorted_items()]

    mult_entries = []
    for (i, j), row in sorted(pres.mult.items()):
        for k, s in row:
            mult_entries.append([i, j, k, render_scalar(s)])
    cop_entries = []
    for i, col in enumerate(pres.coproduct.columns):
        for (j, k), s in col.sorted_items():
            cop_entries.append([i, j, k, render_scalar(s)])
    antipode_entries = []
    for i, col in enumerate(pres.antipode.columns):
        for (j,), s in col.sorted_items():
            antipode_entries.append([i, j, render_scalar(s)])
    return {
        "name": pres.name,
        "field": _FIELD_TO_JSON[pres.field_tag],
        "dim": pres.dim,
        "basis": list(pres.basis),
        "unit": coords(pres.unit),
        "counit": [render_scalar(c) for c in pres.counit.coords],
        "alpha": coords(pres.alpha),
        "beta": coords(pres.beta),
        "mult": mult_entries,
        "coproduct": cop_entries,
        "phi": sparse(pres.phi),
        "phi_inv": sparse(pres.phi_inv),
        "antipode": antipode_entries,
    }


def render_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_QUOTED = 60        # the most characters of document text a message or path quotes


def _clip(text: str) -> str:
    """``text``, or its first ``_QUOTED`` characters and its length."""
    return text if len(text) <= _QUOTED else f"{text[:_QUOTED]}... ({len(text)} characters)"


# The parsers below build a JSON path, and a message, only to raise an error.
def _parse_scalar_at(text: object, where: Callable[[], str], field: str) -> Scalar:
    if not isinstance(text, str):
        raise SchemaError("scalar must be a string", where())
    try:
        s = parse_scalar(text)
    except ParseError as exc:
        raise SchemaError(f"bad scalar {_clip(repr(text))}: {exc}", where()) from exc
    # any written imaginary part, "+0*i" included, tags the scalar Q(i)
    if field != FIELD_QI and s.field_tag != FIELD_Q:
        raise SchemaError(f"scalar {_clip(repr(text))} has an imaginary part in a 'Q' document",
                          where())
    return s


def _parse_coords(doc: dict, key: str, dim: int, field: str) -> list[Scalar]:
    value = doc.get(key)
    _expect(isinstance(value, list) and len(value) == dim,
            f"{key} must be a list of {dim} scalar strings", f"$.{key}")
    return [_parse_scalar_at(v, lambda: f"$.{key}[{i}]", field) for i, v in enumerate(value)]


def _parse_sparse(doc: dict, key: str, dim: int, arity: int, field: str) -> list[tuple]:
    """The entries ``(*indices, scalar)`` of a sparse list; each index tuple
    may appear once."""
    value = doc.get(key)
    _expect(isinstance(value, list), f"{key} must be a list", f"$.{key}")
    out = []
    seen = set()
    for pos, entry in enumerate(value):
        if not (isinstance(entry, list) and len(entry) == arity + 1):
            raise SchemaError(f"entry must be [{arity} indices, scalar]", f"$.{key}[{pos}]")
        idx = tuple(entry[:arity])
        for m, i in enumerate(idx):
            if not (_is_int(i) and 0 <= i < dim):
                raise SchemaError(f"index {_clip(repr(i))} out of range", f"$.{key}[{pos}][{m}]")
        if idx in seen:
            raise SchemaError(f"duplicate entry for indices {list(idx)}", f"$.{key}[{pos}]")
        seen.add(idx)
        out.append((*idx, _parse_scalar_at(entry[arity], lambda: f"$.{key}[{pos}][{arity}]",
                                           field)))
    return out


def import_document(doc: dict, validate: bool = True) -> QhaPresentation:
    """Parse and (by default) fully validate a presentation document."""
    _expect(isinstance(doc, dict), "document must be an object", "$")
    for key in _DOCUMENT_KEYS:
        _expect(key in doc, f"missing key {key!r}", "$")
    for key in doc:
        _expect(key in _DOCUMENT_KEYS, f"unknown key {_clip(repr(key))}", f"$.{_clip(key)}")
    _expect(isinstance(doc["name"], str), "name must be a string", "$.name")
    _expect(isinstance(doc["field"], str) and doc["field"] in _FIELD_FROM_JSON,
            "field must be 'Q' or 'Q(i)'", "$.field")
    field = _FIELD_FROM_JSON[doc["field"]]
    dim = doc["dim"]
    _expect(_is_int(dim) and dim >= 1, "dim must be a positive integer", "$.dim")
    basis = doc["basis"]
    _expect(isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis),
            f"basis must list {dim} labels", "$.basis")

    mult = make_mult(dim, _parse_sparse(doc, "mult", dim, 3, field))
    unit = TensorElement.vector(_parse_coords(doc, "unit", dim, field))
    counit = Functional(_parse_coords(doc, "counit", dim, field))
    alpha = TensorElement.vector(_parse_coords(doc, "alpha", dim, field))
    beta = TensorElement.vector(_parse_coords(doc, "beta", dim, field))

    cop_cols: list[dict] = [dict() for _ in range(dim)]
    for i, j, k, s in _parse_sparse(doc, "coproduct", dim, 3, field):
        cop_cols[i][(j, k)] = s
    coproduct = LinearOperator(
        dim, [TensorElement(2, dim, col) for col in cop_cols], dst_rank=2)

    phi = TensorElement(3, dim, _sparse_to_dict(_parse_sparse(doc, "phi", dim, 3, field)))
    phi_inv = TensorElement(3, dim,
                            _sparse_to_dict(_parse_sparse(doc, "phi_inv", dim, 3, field)))

    s_cols: list[dict] = [dict() for _ in range(dim)]
    for i, j, s in _parse_sparse(doc, "antipode", dim, 2, field):
        s_cols[i][(j,)] = s
    antipode = LinearOperator(dim, [TensorElement(1, dim, col) for col in s_cols])

    pres = QhaPresentation(
        name=doc["name"], dim=dim, basis=tuple(basis),
        field_tag=field, mult=mult, unit=unit,
        counit=counit, coproduct=coproduct, phi=phi, phi_inv=phi_inv,
        antipode=antipode, alpha=alpha, beta=beta)
    return load_and_validate(pres) if validate else pres


def _sparse_to_dict(entries: list[tuple]) -> dict:
    return {tuple(idx): s for *idx, s in entries}


def load_path(path: str) -> QhaPresentation:
    """Import the document at ``path``; a file that is not UTF-8 JSON, or
    nests deeper than the parser recurses, is refused at ``$``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8: {exc}", "$") from exc
        except ValueError as exc:                   # a JSONDecodeError, or an int too long
            raise SchemaError(f"not valid JSON: {exc}", "$") from exc
        except RecursionError as exc:
            raise SchemaError("not valid JSON: nested too deeply", "$") from exc
    return import_document(doc)


def resolve_target(target: str) -> QhaPresentation:
    """``catalog:NAME`` or a path to a presentation document."""
    if target.startswith("catalog:"):
        return catalog_build(target[len("catalog:"):])
    return load_path(target)
