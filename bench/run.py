"""Hermetic benchmark of the litsurvey pipeline.

Run from the repository root:

    python3 bench/run.py --workload cold-200-latency --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics of untraced iterations;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, plus the tracing overhead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_runs"

sys.dont_write_bytecode = True  # leave the checkout's source trees as they are


def _import_program():
    """Import litsurvey from this checkout's src/ and nowhere else."""
    if not (SRC / "litsurvey" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC}/litsurvey")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import litsurvey

    if Path(litsurvey.__file__).resolve().parent != (SRC / "litsurvey").resolve():
        sys.exit(f"error: litsurvey imported from {litsurvey.__file__}, not {SRC}")


def _print_table(name: str, result) -> None:
    print(f"== {name}: correct={result.correct} attempted={result.attempted} failed={result.failed}")
    for metric, (value, unit) in result.metrics.items():
        print(f"  {metric:<48} {value:>16.6g} {unit}")
    for note in result.notes:
        print(f"  {note}")
    for error in result.errors:
        print(f"  error: {error}")


def _check_manifest(names: set[str], key: str) -> None:
    """The metrics reported must be exactly the ones BENCHMARK.json lists."""
    manifest = ROOT / "BENCHMARK.json"
    if not manifest.is_file():
        return
    listed = {m["name"] for m in json.loads(manifest.read_text(encoding="utf-8"))[key]}
    if listed != names:
        sys.exit(
            f"error: BENCHMARK.json {key} and the reported metrics differ: "
            f"{sorted(listed ^ names)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import harness

    if args.workload == "all":
        names = list(harness.WORKLOADS)
    elif args.workload in harness.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")

    results = {}
    for name in names:
        work = WORK_ROOT / f"{name}-{os.getpid()}"
        spans_path = None
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{name}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text("", encoding="utf-8")
        try:
            results[name] = harness.run(
                harness.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work, spans_path
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        _print_table(name, results[name])

    if len(results) == 1:
        (result,) = results.values()
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
        if result.correct:
            _check_manifest(set(metrics), "per_layer" if args.trace else "end_to_end")
    else:
        metrics = {
            f"{name}.{k}": {"value": v, "unit": u}
            for name, result in results.items()
            for k, (v, u) in result.metrics.items()
        }
    correct = all(r.correct for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.attempted for r in results.values()),
                "failed": sum(r.failed for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
