"""Seeded presentation documents for the benchmark.

Every document the benchmark hands to the program comes from here:

* ``relabel`` applies a basis permutation to every index field of an
  exported document, giving an isomorphic presentation;
* ``generate`` exports the catalog algebras and the quantum double D(H2)
  and relabels each by a permutation drawn from the seed;
* ``mutants`` gives every single-constant mutant of a document, so the
  seed picks them through the relabelling.

The same seed gives byte-identical documents.
"""

from __future__ import annotations

import random

from quasihopf import workbench
from quasihopf.double import build_double
from quasihopf.exactnum import ONE, parse_scalar, render_scalar

# Fields holding one scalar per basis element: the index is the position.
COORD_FIELDS = ("unit", "counit", "alpha", "beta")
# Sparse fields: each entry is [index, ..., scalar].
SPARSE_FIELDS = ("mult", "coproduct", "phi", "phi_inv", "antipode")
CATALOG = ("H2", "H8+", "H8-", "kZ2-hopf")


def relabel(doc: dict, perm: list[int]) -> dict:
    """The same presentation with basis element ``i`` renamed ``perm[i]``."""
    n = doc["dim"]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {perm}")

    def permuted(values: list) -> list:
        out = [None] * n
        for i, value in enumerate(values):
            out[perm[i]] = value
        return out

    out = dict(doc)
    out["basis"] = permuted(doc["basis"])
    for key in COORD_FIELDS:
        out[key] = permuted(doc[key])
    for key in SPARSE_FIELDS:
        out[key] = sorted([*(perm[i] for i in entry[:-1]), entry[-1]]
                          for entry in doc[key])
    return out


def constants(doc: dict) -> list[tuple[str, int]]:
    """Every (field, position) that holds one scalar of the document."""
    return [(key, pos) for key in COORD_FIELDS + SPARSE_FIELDS
            for pos in range(len(doc[key]))]


def bump(doc: dict, field: str, pos: int) -> dict:
    """The document with one constant increased by 1."""
    out = dict(doc)
    values = [list(v) if isinstance(v, list) else v for v in doc[field]]
    if field in COORD_FIELDS:
        values[pos] = render_scalar(parse_scalar(values[pos]) + ONE)
    else:
        values[pos][-1] = render_scalar(parse_scalar(values[pos][-1]) + ONE)
    out[field] = values
    return out


def _relabelled(doc: dict, rng: random.Random) -> dict:
    perm = list(range(doc["dim"]))
    rng.shuffle(perm)
    return relabel(doc, perm)


def generate(seed: int) -> dict[str, dict]:
    """Relabelled documents for one seed: the catalog algebras and D(H2).

    The catalog is rebuilt on every call so that repeated calls cost the
    same.
    """
    rng = random.Random(seed)
    workbench.catalog_build.cache_clear()
    base = {name: workbench.export_document(workbench.catalog_build(name))
            for name in CATALOG}
    base["D(H2)"] = workbench.export_document(
        build_double(workbench.catalog_build("H2")).presentation)
    return {name: _relabelled(doc, rng) for name, doc in base.items()}


def mutants(doc: dict) -> list[dict]:
    """Every single-constant mutant of ``doc``, one per constant.

    The time to reject a mutant of H8+ varies more than tenfold with the
    constant bumped (it decides which check fails first), so the mean over a
    sample of them would depend on the draw; the mean over all does not.
    """
    return [bump(doc, field, pos) for field, pos in constants(doc)]
