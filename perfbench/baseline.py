"""Run the benchmark over several seeds and record the figures.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` once per seed (seeds 1..RUNS) on each workload, one
run at a time, then one traced run per workload on seed 1, and writes the
machine details, the median and quartiles of every end-to-end metric, and
the traced per-layer metrics, with the layer to end-to-end map, as JSON to
``perfbench/baseline.json``.  Exits nonzero if any run fails.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10

# Which end-to-end metric, on which workload, each layer's metrics should move.
LAYER_MAP = {
    "exactnum": "verdict_s and verdict_cpu_s on d2 (Q) and catalog-verify (Q and Q(i))",
    "multilinear.mult_pointwise, multilinear.apply_on_leg":
        "verdict_s on d2, through its double call and the axiom checks; a near zero "
        "share inside expr.evaluate, which has its own kernels",
    "multilinear.solve_constraints, multilinear.invert_operator":
        "verdict_s on d2 and catalog-verify",
    "expr": "verdict_s and peak_rss_mb on d2 (app2 on D(H2)); verdict_s on catalog-verify "
            "(many small evaluations, so planning overhead shows)",
    "canonical.identity_suite, canonical.elements":
        "verdict_s on d2 and catalog-verify",
    "canonical.identity_s, canonical.identity_peak_mb":
        "verdict_s on catalog-verify (all three identities) and, for app2, verdict_s "
        "and peak_rss_mb on d2",
    "qha.verify_axioms": "verdict_s on d2 (two calls on the double of H2 per op, one on "
                         "importing H2, the rest on D(H2))",
    "qha.load_and_validate, workbench.import_document":
        "verdict_s on d2, where importing D(H2) verifies its axioms, and on catalog-verify",
    "reject.qha.verify_axioms, reject.qha.load_and_validate, "
    "reject.workbench.import_document": "reject_s on every workload (the mutants' calls)",
    "intcoint": "verdict_s on catalog-verify and d2",
    "double": "verdict_s on d2",
    "context": "peak_rss_mb on catalog-verify (12 contexts kept per op)",
    "report": "recorded per traced op: rows checked and rows failed",
    "trace": "overhead_s: the timing tracer's own sampled share of its op",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "layer_map": LAYER_MAP,
        "runs": RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        end_to_end = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                      for m in spec["end_to_end"]}
        traced = run_once(workload, 1, spec["run_seconds"], 1)
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in end_to_end.items():
            print(f"{workload:16s} {name:14s} median {s['median']:.6g} "
                  f"iqr/median {s['iqr_over_median']:.4f}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
