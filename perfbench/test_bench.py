"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import docs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from quasihopf import cli, exactnum, qha, workbench  # noqa: E402


def _render(generated: dict) -> dict[str, str]:
    return {name: workbench.render_document(doc) for name, doc in generated.items()}


def _verify(doc: dict, tmp_path: Path, *args: str) -> tuple[int, str, str]:
    path = tmp_path / "doc.json"
    path.write_text(workbench.render_document(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path), "--format", "json", *args])
    return code, out.getvalue(), err.getvalue()


def test_same_seed_gives_byte_identical_documents():
    first, second = _render(docs.generate(5)), _render(docs.generate(5))
    assert first == second
    assert set(first) == {"H2", "H8+", "H8-", "kZ2-hopf", "D(H2)"}
    assert _render(docs.generate(6)) != first


def test_relabel_composes_and_identity_is_neutral():
    doc = workbench.export_document(workbench.catalog_build("H8+"))
    n = doc["dim"]
    assert docs.relabel(doc, list(range(n))) == doc
    rng = random.Random(0)
    p, q = rng.sample(range(n), n), rng.sample(range(n), n)
    assert docs.relabel(docs.relabel(doc, p), q) == docs.relabel(doc, [q[p[i]] for i in range(n)])


def test_relabelled_documents_pass_every_suite(tmp_path):
    generated = docs.generate(9)
    for name in ("H2", "H8+", "kZ2-hopf"):
        for suite in run.CATALOG_SUITES:
            code, out, err = _verify(generated[name], tmp_path, "--suite", suite)
            assert code == 0, (name, suite, err)
            payload = json.loads(out)
            assert payload["failed"] == 0 and payload["total"] > 0


def test_mutants_change_one_constant_each():
    base = docs.generate(2)["H8+"]
    drawn = docs.mutants(base)
    assert len(drawn) == len(docs.constants(base)) == 150
    for (field, pos), mutant in zip(docs.constants(base), drawn):
        changed = [key for key in docs.COORD_FIELDS + docs.SPARSE_FIELDS
                   if mutant[key] != base[key]]
        assert changed == [field]
        assert sum(a != b for a, b in zip(mutant[field], base[field])) == 1
    assert len({json.dumps(m, sort_keys=True) for m in drawn}) == len(drawn)


def test_every_single_constant_bump_of_h8_plus_is_rejected(tmp_path):
    for mutant in docs.mutants(docs.generate(4)["H8+"]):
        code, out, err = _verify(mutant, tmp_path, "--suite", "axioms")
        assert code == 2 and err.startswith("error:"), (code, err)


def _traced_verify(tracer: tracing.Tracer, doc: dict, tmp_path: Path, *args: str) -> int:
    tracer.install()
    try:
        with tracer.span(run.ACCEPT_SPAN):
            code, _, _ = _verify(doc, tmp_path, *args)
    finally:
        tracer.uninstall()
    return code


def test_tracer_restores_every_binding_and_counts_repeat(tmp_path):
    original, mul = qha.verify_axioms, exactnum.Scalar.__mul__
    doc = docs.generate(1)["H8+"]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer("op", memory=True)
        assert _traced_verify(tracer, doc, tmp_path, "--suite", "canonical") == 0
        counts.append(tracer.counts([run.ACCEPT_SPAN]))
        assert {r[0] for r in tracer.spans} >= {run.ACCEPT_SPAN, "qha.verify_axioms",
                                                 "canonical.identity_suite"}
    assert cli.verify_axioms is original and qha.verify_axioms is original
    assert exactnum.Scalar.__mul__ is mul
    assert counts[0] == counts[1] and counts[0]["exactnum.mul_calls"] > 0
    assert tracer.counts(["cli.reject"]) == {}


def test_sampled_layer_times_add_up_to_the_call(tmp_path):
    tracer = tracing.Tracer("op")
    assert _traced_verify(tracer, docs.generate(1)["H8+"], tmp_path, "--suite", "canonical") == 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    root = tracer.spans[0]
    duration = root[tracing.END] - root[tracing.START]
    assert tracer.samples["exactnum"] > 0 and tracer.samples["spans"] > 0
    assert abs(tracer.attributed_s([run.ACCEPT_SPAN]) - duration) < 0.2 * duration + 0.01
    metrics = tracer.metrics([run.ACCEPT_SPAN])
    assert 0 < metrics["canonical.identity_suite.s"] <= tracer.attributed_s([run.ACCEPT_SPAN])
    assert sum(metrics[f"canonical.identity_s.{n}"] for n in tracing.IDENTITIES) <= \
        metrics["canonical.identity_suite.s"] + 1e-9


def test_memory_tracer_records_allocation_peaks(tmp_path):
    tracer = tracing.Tracer("op", memory=True)
    _traced_verify(tracer, docs.generate(1)["H8+"], tmp_path, "--identity", "normdefmodelem")
    peaks = tracer.memory_metrics([run.ACCEPT_SPAN])
    assert peaks["canonical.identity_peak_mb.normdefmodelem"] >= peaks["expr.peak_alloc_mb"] > 0


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer("t")
    names = {**tracer.metrics([]), **tracer.memory_metrics([]),
             **tracer.validation_metrics([], "reject.")}
    names = set(names) | set(run.EXTRA_LAYER_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
