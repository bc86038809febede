"""Document-to-verdict benchmark for quasihopf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  The seed picks a basis relabelling of every
input document, and so the single-constant mutants of relabelled H8+.  Every
op writes fresh document files and drives the documented entry point
``quasihopf.cli.main([...])`` in this one process and thread: first the
calls whose verdict is "accept" (``accepted_calls``), then ``verify --suite
axioms`` on mutants of H8+ (a fifth of the 150 in a timed op, all of them
in a traced one), each of which must be rejected with exit 2.  Every command
rejects a bad document at the same point, while importing it, so one
rejecting command serves every workload.

With ``--trace 0`` ops run while the next one is expected to end within
``--seconds`` (and at least ``RSS_OPS`` of them), and the end-to-end metrics
are printed: medians over the run's ops (see ``timed_run`` for
``reject_s``).  With ``--trace 1`` one op runs under a timing tracer,
then its accepted calls run again under a memory tracer (see ``tracing``).
The per-layer metrics are computed over the spans of the accepted calls,
except the ``reject.*`` metrics, which are computed over those of the
mutants; they are printed and every span is written to ``perfbench/out/``.  Either way the last line of standard output
is one JSON object; the exit code is 1 when a verdict check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS = 3           # set-ups per run; setup_s is their median
RSS_OPS = 2          # peak_rss_mb is read after this many ops
SLICES = 5           # a timed op rejects one in SLICES of the mutants
CATALOG_SUITES = ("axioms", "canonical", "integrals")

ACCEPT_SPAN, REJECT_SPAN = "cli.accept", "cli.reject"
END_TO_END = (("verdict_s", "s"), ("verdict_cpu_s", "s"), ("reject_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def accepted_calls(workload: str, paths: dict[str, str], export: str) -> list[list[str]]:
    """The op's calls that must exit 0 with no failed row.

    ``catalog-verify`` runs every suite on each small catalog algebra; ``d2``
    runs the genericity pipeline on D(H2) and builds, reports and exports the
    double of H2.
    """
    if workload == "catalog-verify":
        return [["verify", paths[name], "--suite", suite, "--format", "json"]
                for name in ("H2", "H8+", "H8-", "kZ2-hopf") for suite in CATALOG_SUITES]
    doc = paths["D(H2)"]
    return [["verify", doc, "--suite", "axioms", "--format", "json"],
            ["verify", doc, "--suite", "integrals", "--format", "json"],
            ["verify", doc, "--identity", "app2", "--format", "json"],
            ["double", paths["H2"], "--export", export, "--format", "json"]]


WORKLOADS = ("catalog-verify", "d2")


class Bench:
    def __init__(self, workload: str, seed: int, docs: dict[str, dict],
                 mutants: list[dict], work: Path):
        self.workload = workload
        self.seed = seed
        self.docs = docs
        self.mutants = mutants
        self.work = work
        self.failures: list[str] = []
        self.export_bytes: bytes | None = None

    def call(self, argv: list[str]) -> tuple[int | None, str, str]:
        """Run ``cli.main(argv)``; an escaped exception gives code None."""
        from quasihopf import cli
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:               # noqa: BLE001 - counted as a failed op
            return None, out.getvalue(), traceback.format_exc()
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def check_accepted(argv: list[str], code, out: str, err: str, rows: list) -> str | None:
        """Problem with an accepted call, or None; adds (total, failed) to rows."""
        if code != 0:
            return f"{argv}: exit {code}\n{err}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{argv}: output is not JSON: {exc}"
        rows.append((payload["total"], payload["failed"]))
        if payload["failed"] != 0 or payload["total"] <= 0:
            return f"{argv}: {payload['failed']} of {payload['total']} rows failed"
        return None

    def check_export(self, path: str) -> str | None:
        from quasihopf import workbench
        data = Path(path).read_bytes()
        if self.export_bytes is None:
            self.export_bytes = data
        elif data != self.export_bytes:
            return f"export {path} differs from the first op's export"
        n = self.docs["H2"]["dim"]
        pres = workbench.import_document(json.loads(data), validate=False)
        if pres.dim != n * n:
            return f"export {path} re-imports at dim {pres.dim}, expected {n * n}"
        return None

    def op(self, index: int, mutants: list[dict], span=None) -> dict:
        """One op, rejecting ``mutants``; ``span(name, label)`` wraps each call when tracing."""
        from quasihopf import workbench
        span = span or (lambda name, label: contextlib.nullcontext())
        folder = self.work / f"op{index}"
        folder.mkdir()
        paths = {}
        for name, doc in self.docs.items():
            paths[name] = str(folder / f"{name}.json")
            Path(paths[name]).write_text(workbench.render_document(doc), encoding="utf-8")
        export = str(folder / "export.json")
        mutant_paths = []
        for k, doc in enumerate(mutants):
            mutant_paths.append(str(folder / f"mutant{k}.json"))
            Path(mutant_paths[-1]).write_text(workbench.render_document(doc), encoding="utf-8")

        problems, rows = [], []
        wall = cpu = 0.0
        for argv in accepted_calls(self.workload, paths, export):
            w0, c0 = time.perf_counter(), time.process_time()
            with span(ACCEPT_SPAN, " ".join([argv[0], Path(argv[1]).name, *argv[2:4]])):
                code, out, err = self.call(argv)
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            problems.append(self.check_accepted(argv, code, out, err, rows))
        if self.workload == "d2" and not any(problems):
            problems.append(self.check_export(export))
        reject = []
        for path in mutant_paths:
            argv = ["verify", path, "--suite", "axioms", "--format", "json"]
            w0 = time.perf_counter()
            with span(REJECT_SPAN, Path(path).name):
                code, out, err = self.call(argv)
            reject.append(time.perf_counter() - w0)
            if code != 2 or not err.startswith("error:"):
                problems.append(f"{argv}: mutant not rejected with exit 2 "
                                f"(exit {code})\n{err}")
        problems = [p for p in problems if p]
        self.failures.extend(problems)
        return {"wall": wall, "cpu": cpu, "reject": reject, "ok": not problems,
                "rows": sum(r[0] for r in rows), "failed_rows": sum(r[1] for r in rows)}


def setup(seed: int) -> tuple[dict, list[dict], float]:
    """Import the package and generate the documents.

    Returns the documents by name, the mutants of H8+ and ``setup_s``.
    """
    t0 = time.perf_counter()
    import quasihopf
    import_s = time.perf_counter() - t0
    if Path(quasihopf.__file__).resolve().parent != ROOT / "src" / "quasihopf":
        raise ImportError(f"quasihopf imported from {quasihopf.__file__}, not src/")
    from docs import generate, mutants
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        docs = generate(seed)
        bad = mutants(docs["H8+"])
        times.append(time.perf_counter() - t0)
    return docs, bad, import_s + statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_run(bench: Bench, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Ops until the next one would end after ``seconds`` (at least ``RSS_OPS``).

    Op ``i`` rejects every ``SLICES``-th mutant from the ``i % SLICES``-th on,
    so each op's mutants are spread over every field of the document and
    ``SLICES`` ops in a row reject each mutant once.  The time to reject a
    mutant varies more than tenfold with the constant bumped, so ``reject_s``
    is the mean over the mutants rejected of each one's median time.
    """
    ops, durations, rejects, rss = [], [], {}, None
    start = time.perf_counter()
    while len(ops) < RSS_OPS or (time.perf_counter() - start
                                 + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        first = len(ops) % SLICES
        ops.append(bench.op(len(ops), bench.mutants[first::SLICES]))
        for k, t in zip(range(first, len(bench.mutants), SLICES), ops[-1]["reject"]):
            rejects.setdefault(k, []).append(t)
        durations.append(time.perf_counter() - t0)
        if len(ops) == RSS_OPS:
            rss = peak_rss_mb()
    accepted = [o for o in ops if o["ok"]] or ops
    values = {
        "verdict_s": statistics.median(o["wall"] for o in accepted),
        "verdict_cpu_s": statistics.median(o["cpu"] for o in accepted),
        "reject_s": statistics.mean(statistics.median(t) for t in rejects.values()),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    samples = {"verdict_s": len(accepted), "verdict_cpu_s": len(accepted),
               "reject_s": sum(len(o["reject"]) for o in ops),
               "peak_rss_mb": RSS_OPS, "setup_s": SETUPS}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, _ in END_TO_END:
        print(f"{name:16s} {values[name]:.6g} {metrics[name]['unit']} (n={samples[name]})")
    failed = sum(not o["ok"] for o in ops)
    print(f"{'error_rate':16s} {failed / len(ops):.6g} (failed ops / attempted, "
          f"n={len(ops)})")
    return metrics, {"attempted": len(ops), "failed": failed}


# Per-layer metrics measured by the benchmark rather than by a tracer.
EXTRA_LAYER_METRICS = ("context.contexts_live", "report.rows", "report.failed",
                       "trace.overhead_s")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("calls", ".rows", ".failed")) or ".contexts_" in name:
        return "count"
    return "MB" if "_mb" in name else "s"


def traced_run(bench: Bench) -> tuple[dict, dict]:
    """One op under a timing tracer, then the accepted calls under a memory tracer.

    ``trace.overhead_s`` is the timing tracer's own share of its op, as
    sampled.  The difference from an untraced op would be lost in the
    run-to-run drift of a shared host, which is far larger.
    """
    from quasihopf import context
    import tracing
    timing = tracing.Tracer("op0")
    memory = tracing.Tracer("op1", memory=True)
    ops = []
    for index, tracer in enumerate((timing, memory)):
        tracer.install()
        try:
            ops.append(bench.op(index, bench.mutants if tracer is timing else [],
                                tracer.span))
        finally:
            tracer.uninstall()
    traced = ops[0]
    values = {**timing.metrics([ACCEPT_SPAN]), **memory.memory_metrics([ACCEPT_SPAN]),
              **timing.validation_metrics([REJECT_SPAN], "reject.")}
    values.update(zip(EXTRA_LAYER_METRICS, (
        len(context._CONTEXTS), traced["rows"], traced["failed_rows"],
        timing.samples["tracer"] * timing.seconds_per_sample)))
    # the layers' self times should add up to the accepted calls' wall time
    attributed = timing.attributed_s([ACCEPT_SPAN])
    print(f"layer self times add up to {attributed:.4g} s; the accepted calls took "
          f"{traced['wall']:.4g} s traced")
    OUT.mkdir(exist_ok=True)
    tracing.write(str(OUT / f"trace-{bench.workload}-seed{bench.seed}.json"),
                  [timing, memory],
                  {"workload": bench.workload, "seed": bench.seed, "metrics": values,
                   "attributed_s": attributed, "traced_s": traced["wall"]})
    metrics = {}
    for name, value in values.items():
        unit = unit_of(name)
        value = value if unit == "count" else float(value)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:.6g} {unit}")
    return metrics, {"attempted": len(ops), "failed": sum(not o["ok"] for o in ops)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        docs, mutants, setup_s = setup(args.seed)
    except ImportError as exc:
        print(f"error: cannot import quasihopf from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    bench = Bench(args.workload, args.seed, docs, mutants, work)
    try:
        if args.trace:
            metrics, counts = traced_run(bench)
        else:
            metrics, counts = timed_run(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(work)
    for problem in bench.failures:
        print(problem, file=sys.stderr)
    result = {"correct": not bench.failures, **counts, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
