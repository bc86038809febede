"""Catalog, JSON interchange format, golden-file stability and the CLI."""

from __future__ import annotations

import copy
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf import canonical, cli, context, double, expr, intcoint, qha
from quasihopf.cli import main as cli_main
from quasihopf.context import get_context
from quasihopf.exactnum import FIELD_Q, FIELD_QI, ParseError
from quasihopf.qha import AxiomViolation, BadCounitNormalization, NonInvertiblePhi
from quasihopf.workbench import (CATALOG_NAMES, SchemaError, UnknownCatalogName,
                                 catalog_build, export_document, import_document,
                                 load_path, render_document, resolve_target)

GOLDEN = Path(__file__).parent / "golden"


def golden_name(name: str) -> str:
    return name.replace("+", "p").replace("-", "m")


def test_catalog_names():
    for name in CATALOG_NAMES:
        pres = catalog_build(name)
        assert pres.name == name
    with pytest.raises(UnknownCatalogName):
        catalog_build("H16")


def test_catalog_shapes(h2, h8p, baseline):
    assert h2.dim == 2 and h2.field_tag == FIELD_Q
    assert h8p.dim == 8 and h8p.field_tag == FIELD_QI
    assert baseline.phi.entries == {(0, 0, 0): baseline.phi.coeff(0, 0, 0)}


def test_catalog_signs_differ(h8p, h8m):
    assert h8p.coproduct.columns[2] != h8m.coproduct.columns[2]
    assert h8p.mult == h8m.mult


def test_export_golden_files():
    for name in CATALOG_NAMES:
        text = render_document(export_document(catalog_build(name)))
        frozen = (GOLDEN / f"{golden_name(name)}.json").read_text()
        assert text == frozen, f"export of {name} drifted from the golden file"


def test_export_golden_double(d2):
    text = render_document(export_document(d2.presentation))
    assert text == (GOLDEN / "D_H2.json").read_text()


def test_export_is_deterministic(h8p):
    assert render_document(export_document(h8p)) == render_document(export_document(h8p))


def test_import_export_roundtrip():
    for name in CATALOG_NAMES:
        pres = catalog_build(name)
        assert import_document(export_document(pres)) == pres


def test_import_canonicalizes_fractions(h2):
    doc = export_document(h2)
    doc["beta"] = ["4/4", "0"]        # non-reduced but still the unit
    doc["alpha"] = ["0", "2/2"]
    loaded = import_document(doc)
    assert loaded == h2
    round_tripped = export_document(loaded)
    assert round_tripped["beta"] == ["1", "0"]
    assert round_tripped["alpha"] == ["0", "1"]


@pytest.mark.parametrize("corrupt,path_fragment", [
    (lambda d: d.pop("dim"), "$"),
    (lambda d: d.update(dim="two"), "$.dim"),
    (lambda d: d.update(field="R"), "$.field"),
    (lambda d: d.update(basis=["1"]), "$.basis"),
    (lambda d: d["mult"].append([0, 0, 99, "1"]), "$.mult"),
    (lambda d: d["mult"].append([0, 0, 0, "1/0"]), "$.mult"),
    (lambda d: d.update(unit=["1"]), "$.unit"),
])
def test_import_schema_errors(h2, corrupt, path_fragment):
    doc = json.loads(render_document(export_document(h2)))
    corrupt(doc)
    with pytest.raises(SchemaError) as err:
        import_document(doc)
    assert err.value.path.startswith(path_fragment)


def test_import_validates_axioms(h2):
    doc = export_document(h2)
    doc["alpha"] = ["1", "0"]   # alpha = 1 clashes with the reassociator
    with pytest.raises(AxiomViolation):
        import_document(doc)


def test_context_is_one_per_presentation(h2):
    assert get_context(h2) is get_context(h2)


def test_imported_presentation_is_collected_with_its_context(h2):
    """Contexts hang on their presentation; no module-level cache pins a
    presentation once its caller drops it."""
    pres = import_document(export_document(h2))       # validation builds the context
    presentation, ctx = weakref.ref(pres), weakref.ref(get_context(pres))
    del pres
    gc.collect()
    assert presentation() is None and ctx() is None


def test_resolve_target(tmp_path, h2):
    assert resolve_target("catalog:H2") is catalog_build("H2")
    path = tmp_path / "h2.json"
    path.write_text(render_document(export_document(h2)))
    assert resolve_target(str(path)) == h2


# -- CLI --------------------------------------------------------------------------


def test_cli_verify_axioms_ok(capsys):
    assert cli_main(["verify", "catalog:H2", "--suite", "axioms"]) == 0
    out = capsys.readouterr().out
    assert "[pass] q1" in out and "0 failed" in out


def test_cli_verify_json_format(capsys):
    code = cli_main(["verify", "catalog:kZ2-hopf", "--suite", "axioms",
                     "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert all(row["residual"] == "zero" for row in payload["rows"])


def test_cli_exit_codes_match_report(tmp_path, h2, capsys):
    from conftest import mutate_presentation
    # a corrupted presentation must exit 1 through the axioms suite; the
    # document import rejects it, so write it bypassing validation
    doc = export_document(mutate_presentation(h2, "phi", (1, 1, 0)))
    path = tmp_path / "broken.json"
    path.write_text(render_document(doc))
    code = cli_main(["verify", str(path), "--suite", "axioms"])
    capsys.readouterr()
    assert code == 2  # import_document already refuses the broken algebra


def _h2_with_bool_index(doc: dict) -> str:
    doc["antipode"][0][1] = False                     # was the index 0
    return "$.antipode[0][1]"


def _h2_with_zero_imaginary_part(doc: dict) -> str:
    doc["phi"][0][3] += "+0*i"
    return "$.phi[0][3]"


def _h2_with_imaginary_part(doc: dict) -> str:
    doc["counit"][1] = "1+1/2*i"
    return "$.counit[1]"


def _h2_with_duplicate_entry(doc: dict) -> str:
    doc["mult"].append(list(doc["mult"][0]))
    return f"$.mult[{len(doc['mult']) - 1}]"


def _h2_with_bool_dim(doc: dict) -> str:
    doc["dim"] = True
    return "$.dim"


def _h2_with_list_field(doc: dict) -> str:
    doc["field"] = ["Q"]
    return "$.field"


def _h2_with_superscript_digit(doc: dict) -> str:
    doc["unit"][1] = "²"
    return "$.unit[1]"


def _h2_with_unknown_key(doc: dict) -> str:
    doc["comment"] = "not a key of the format"
    return "$.comment"


def _h2_with_arabic_indic_digit(doc: dict) -> str:
    doc["unit"][0] = "\u0661"                          # was "1"
    return "$.unit[0]"


LOOSE_DOCUMENTS = [
    _h2_with_bool_index, _h2_with_zero_imaginary_part, _h2_with_imaginary_part,
    _h2_with_duplicate_entry, _h2_with_bool_dim, _h2_with_list_field,
    _h2_with_superscript_digit, _h2_with_unknown_key, _h2_with_arabic_indic_digit]


def _not_utf8(doc: dict) -> tuple[str, bytes]:
    return "$", b'\xff\xfe{"a":1}'


def _nested_200000_deep(doc: dict) -> tuple[str, bytes]:
    return "$", b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("corrupt", [*LOOSE_DOCUMENTS, _not_utf8, _nested_200000_deep])
def test_cli_rejects_loose_documents(tmp_path, h2, capsys, corrupt):
    """A bool index or dim, an imaginary part in a Q document (even
    ``+0*i``), a repeated sparse key, a field that is not a string, a key
    the format does not have and a scalar written with a digit that is not
    ASCII are refused on import with the JSON path of the offending value,
    instead of being read as 0 or 1, as rational, summed, ignored or
    failing with a TypeError or ValueError.  A file that is not UTF-8, or
    nests deeper than the JSON parser recurses, is refused at ``$`` (a
    corruption that returns bytes replaces the whole file)."""
    doc = export_document(h2)
    found = corrupt(doc)
    path_of_value, text = found if type(found) is tuple else (found, render_document(doc).encode())
    path = tmp_path / "loose.json"
    path.write_bytes(text)
    assert cli_main(["verify", str(path), "--suite", "axioms"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"(at {path_of_value})" in err
    with pytest.raises(SchemaError) as exc:
        load_path(str(path))
    assert exc.value.path == path_of_value


def _signed_imaginary_parts(doc: dict) -> list[dict]:
    """``doc`` three times, with a sign written on the imaginary rational of
    equal values: "a--b*i", "a+-b*i" and "a++b*i"."""
    text = render_document(doc)
    out = []
    for old, new in (("1/2+1/2*i", "1/2--1/2*i"), ("1/2-1/2*i", "1/2+-1/2*i"),
                     ("1/2+1/2*i", "1/2++1/2*i")):
        assert f'"{old}"' in text
        out.append(json.loads(text.replace(f'"{old}"', f'"{new}"')))
    return out


def test_documents_the_importer_accepts_validate_against_the_schema(h2, h8p, d2):
    """The shipped schema is the formal format: every document the importer
    accepts, among the exports, the loose documents and the signed imaginary
    parts, validates against it."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(qha.__file__).parent / "presentation.schema.json").read_text())
    exports = [export_document(p) for p in (*map(catalog_build, CATALOG_NAMES), d2.presentation)]
    loose = []
    for corrupt in LOOSE_DOCUMENTS:
        loose.append(export_document(h2))
        corrupt(loose[-1])
    accepted = 0
    for doc in [*exports, *loose, *_signed_imaginary_parts(export_document(h8p))]:
        try:
            import_document(doc)
        except ValueError:
            continue
        jsonschema.validate(doc, schema)
        accepted += 1
    assert accepted == len(exports) + 3


def test_cli_usage_error_exit_2(capsys):
    assert cli_main(["verify", "catalog:NOPE"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_schema_error_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{\"name\": 3}")
    assert cli_main(["verify", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("error", [
    intcoint.CrossCheckMismatch, intcoint.DegeneratePairing, intcoint.FrobeniusCheckFailed,
    canonical.TwistNotInvertible, canonical.InternalIdentityFailure,
    double.DoubleBuildError, qha.SingularAntipode, expr.ExpressionError])
def test_cli_internal_error_exit_3(monkeypatch, capsys, error):
    """An internal error exits 3 with its name on stderr, apart from a
    failed row (1) and bad input (2), instead of escaping as a traceback."""

    def failing(ctx):
        raise error("injected")

    monkeypatch.setattr(cli, "integral_report", failing)
    assert cli_main(["verify", "catalog:H2", "--suite", "integrals"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {error.__name__}: injected\n"


_H2_DOC = export_document(catalog_build("H2"))


def _doc_paths(value, path=()):
    """Every path below the root of a JSON document, parents first."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _doc_paths(child, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(["0", "1", "-1/2", "1+i", "+0*i", "Q", "Q(i)"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)
_DELETE = object()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(path=st.sampled_from(list(_doc_paths(_H2_DOC))), value=st.just(_DELETE) | _JSON_VALUES)
def test_import_document_fuzz_raises_only_input_errors(path, value):
    """Replacing one value of the H2 document by any JSON value, or deleting
    it, either imports or is refused with one of the input errors."""
    doc = copy.deepcopy(_H2_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        import_document(doc)
    except (SchemaError, ParseError, AxiomViolation, NonInvertiblePhi, BadCounitNormalization):
        pass


def test_cli_integrals(capsys):
    assert cli_main(["integrals", "catalog:H8+", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["left"] == ["(1)*x^3 + (1)*gx^3"]
    assert payload["right"] == ["(1)*x^3 + (-1)*gx^3"]
    assert payload["unimodular"] is False


def test_cli_cointegrals_right(capsys):
    assert cli_main(["cointegrals", "catalog:H8+", "--side", "right",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["right-normalized"] == "(1/2+1/2*i)*P_x^3 + (1/2-1/2*i)*P_gx^3"


def test_cli_export_roundtrip(tmp_path, capsys):
    out = tmp_path / "h2.json"
    assert cli_main(["export", "catalog:H2", str(out)]) == 0
    capsys.readouterr()
    assert import_document(json.loads(out.read_text())) == catalog_build("H2")


def test_cli_double_export(tmp_path, capsys):
    out = tmp_path / "d2.json"
    assert cli_main(["double", "catalog:H2", "--export", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4
    assert import_document(doc).dim == 4


def test_cli_entrypoint_subprocess():
    """The child imports the same ``quasihopf`` as the tests, with or without
    ``PYTHONPATH`` set by the caller."""
    import quasihopf
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasihopf.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "quasihopf.cli", "verify", "catalog:H2",
         "--suite", "axioms", "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] == 0


def test_cli_verify_canonical_suite(capsys):
    assert cli_main(["verify", "catalog:H2", "--suite", "canonical"]) == 0
    capsys.readouterr()


def test_cli_verifies_each_presentation_once(tmp_path, monkeypatch, capsys):
    """``double`` and ``verify --suite axioms`` reuse the axiom report that
    the build or the import already computed."""
    from quasihopf import qha
    original = qha.verify_axioms
    calls = []

    def counting(pres, **options):
        calls.append(pres.name)
        return original(pres, **options)

    for name, module in list(sys.modules.items()):
        if name.startswith("quasihopf") and getattr(module, "verify_axioms", None) is original:
            monkeypatch.setattr(module, "verify_axioms", counting)

    assert cli_main(["double", "catalog:H2", "--format", "json"]) == 0
    assert "D(H2)" in calls
    assert len(calls) == len(set(calls))

    path = tmp_path / "H2.json"
    assert cli_main(["export", "catalog:H2", str(path)]) == 0
    calls.clear()
    assert cli_main(["verify", str(path), "--suite", "axioms"]) == 0
    assert calls == ["H2"]
    capsys.readouterr()


def test_cli_integrals_and_cointegrals_solve_each_space_once(tmp_path, monkeypatch, capsys):
    """On a fresh H8+ document, ``integrals`` solves the left and the right
    integral space once each.  ``cointegrals`` solves the left, the direct
    right and the coopposite left cointegral systems once each, and the
    integral spaces of H that those relations read through mu; H^cop takes
    its integral data and its S^-1 from H, so the one inversion is S's.
    With ``--side right`` it needs the same five solves."""
    calls = {"solve_constraints": 0, "invert_operator": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, count)

    counting(intcoint, "solve_constraints")
    for module in (qha, intcoint, context):
        counting(module, "invert_operator")
    path = tmp_path / "H8+.json"
    assert cli_main(["export", "catalog:H8+", str(path)]) == 0
    for command, solves, inversions in ((["integrals"], 2, 0), (["cointegrals"], 5, 1),
                                        (["cointegrals", "--side", "right"], 5, 1)):
        calls.update(dict.fromkeys(calls, 0))
        assert cli_main([command[0], str(path), *command[1:]]) == 0
        assert calls == {"solve_constraints": solves, "invert_operator": inversions}, command
    capsys.readouterr()


def test_cli_all_suites_many_rows(capsys):
    assert cli_main(["verify", "catalog:H2", "--suite", "all",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["total"] >= 60
    assert payload["s4-display-readings"]["reading-a"] in ("holds", "fails", "undefined")


def test_cli_identities_listing(capsys):
    """The listing prints, for every identity, the formula it is parsed from."""
    from conftest import REGISTRY_NAMES
    assert cli_main(["identities", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == REGISTRY_NAMES
    assert payload == {name: ident.formula for name, ident in canonical.REGISTRY.items()}
    assert not any("..." in formula or "twist form" in formula for formula in payload.values())


def test_cli_single_identity(capsys):
    assert cli_main(["verify", "catalog:H8+", "--identity", "rint4",
                     "--identity", "pqr", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in payload["rows"]}
    assert names == {"identity:rint4", "identity:pqr"}


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    """Two calls share one parser and print the same bytes; the repeatable
    ``--identity`` starts empty on each call."""
    built, build = [], cli.build_parser

    def counting():
        built.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argv = ["verify", "catalog:H8+", "--identity", "rint4", "--format", "json"]
    outputs = []
    for _ in range(2):
        assert cli_main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(built) == 1
    assert outputs[0] == outputs[1]
    assert [row["name"] for row in json.loads(outputs[0])["rows"]] == ["identity:rint4"]


def test_cli_identity_alias_expands(capsys):
    assert cli_main(["verify", "catalog:H8+", "--identity", "fgab", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in payload["rows"]}
    assert names == {"identity:fgab-beta", "identity:fgab-alpha", "identity:fgab-salpha"}


def test_cli_unknown_identity(capsys):
    assert cli_main(["verify", "catalog:H2", "--identity", "bogus"]) == 2
    capsys.readouterr()


def test_report_rendering_with_failures():
    from quasihopf.report import VerificationReport
    from quasihopf.exactnum import Scalar
    from quasihopf.multilinear import Functional, TensorElement

    report = VerificationReport("demo")
    report.add("ok-row", True)
    report.check_zero("tensor-row", TensorElement(1, 2, {(0,): Scalar.of(3)}))
    report.add("text-row", False, "something specific")
    report.add("functional-row", False, Functional([Scalar.of(1), Scalar.of(0)]))
    report.add("scalar-row", False, Scalar.rational(1, 2))
    assert not report.passed()
    text = report.render_text()
    assert "[FAIL] tensor-row" in text and "something specific" in text
    payload = report.to_json()
    assert payload["failed"] == 4
    witnesses = {row["name"]: row.get("witness") for row in payload["rows"]}
    assert witnesses["scalar-row"] == "1/2"
    assert witnesses["ok-row"] is None if "ok-row" in witnesses else True
