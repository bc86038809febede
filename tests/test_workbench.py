"""Catalog, JSON interchange format, golden-file stability and the CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from quasihopf.cli import main as cli_main
from quasihopf.exactnum import FIELD_Q, FIELD_QI
from quasihopf.qha import AxiomViolation
from quasihopf.workbench import (CATALOG_NAMES, SchemaError, UnknownCatalogName,
                                 catalog_build, export_document, import_document,
                                 render_document, resolve_target)

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


def test_cli_usage_error_exit_2(capsys):
    assert cli_main(["verify", "catalog:NOPE"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_schema_error_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{\"name\": 3}")
    assert cli_main(["verify", str(path)]) == 2
    capsys.readouterr()


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
    proc = subprocess.run(
        [sys.executable, "-m", "quasihopf.cli", "verify", "catalog:H2",
         "--suite", "axioms", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed"] == 0


def test_cli_verify_canonical_suite(capsys):
    assert cli_main(["verify", "catalog:H2", "--suite", "canonical"]) == 0
    capsys.readouterr()


def test_cli_verifies_each_presentation_once_per_scope(tmp_path, monkeypatch, capsys):
    """``double`` and ``verify --suite axioms`` reuse the axiom report that
    the build or the import already computed for the same scope."""
    from quasihopf import qha
    original = qha.verify_axioms
    calls = []

    def counting(pres, exhaustive=None):
        full = exhaustive if exhaustive is not None else pres.dim <= qha.EXHAUSTIVE_DIM
        calls.append((pres.name, full))
        return original(pres, exhaustive)

    for name, module in list(sys.modules.items()):
        if name.startswith("quasihopf") and getattr(module, "verify_axioms", None) is original:
            monkeypatch.setattr(module, "verify_axioms", counting)

    assert cli_main(["double", "catalog:H2", "--format", "json"]) == 0
    assert ("D(H2)", True) in calls
    assert len(calls) == len(set(calls))

    path = tmp_path / "H2.json"
    assert cli_main(["export", "catalog:H2", str(path)]) == 0
    calls.clear()
    assert cli_main(["verify", str(path), "--suite", "axioms"]) == 0
    assert calls == [("H2", True)]
    capsys.readouterr()


def test_cli_all_suites_many_rows(capsys):
    assert cli_main(["verify", "catalog:H2", "--suite", "all",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["total"] >= 60
    assert payload["s4-display-readings"]["reading-a"] in ("holds", "fails", "undefined")


def test_cli_identities_listing(capsys):
    assert cli_main(["identities", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 35
    assert "qqlv" in payload and "rint4" in payload


def test_cli_single_identity(capsys):
    assert cli_main(["verify", "catalog:H8+", "--identity", "rint4",
                     "--identity", "pqr", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in payload["rows"]}
    assert names == {"identity:rint4", "identity:pqr"}


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
