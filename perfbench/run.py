"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload session-replay --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the run: each workload does a fixed number of rounds
of fixed work per second (its module says how much; never fewer than
16 rounds), about what one core of a small VM does in that time, and
always finishes them, so every run of a seed does the same work and only
the clock differs.  Timings are reported at reference speed
(``perfbench/reference.py``), with the raw wall figures in their bases.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice in one process, untraced and then
with every layer's entry points wrapped, and prints the per-layer
metrics of the traced pass; ``trace.overhead_ratio`` is the traced over
the untraced wall time.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table (each metric with its unit and the
samples or base behind it) and a JSON report with the environment and
the workload size.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for journals, snapshots and span logs (inside the checkout).
OUT = ROOT / ".perfbench-out"

#: Workload name -> module under perfbench/.
WORKLOADS = {
    "session-replay": "replay",
    "service-fleet": "fleet",
    "service-journal": "journal",
    "paper-batch": "batch",
}


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _table(metrics: dict[str, float], units: dict[str, str], bases: dict) -> str:
    lines = [f"{'metric':<44} {'value':>14}  {'unit':<8} base / samples"]
    for name, value in metrics.items():
        base = bases.get(name, "")
        base_text = json.dumps(base, sort_keys=True, default=str) if base else ""
        lines.append(f"{name:<44} {value:>14.6g}  {units[name]:<8} {base_text}")
    return "\n".join(lines)


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts the first time the
    program probes shared memory, and wait for it to end."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _run(module, args, workdir: Path, tracer=None):
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return module.run(args.seed, args.seconds, tracer=tracer, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from a "
            f"repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import env, harness, stats, tracing

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    steal = env.StealSampler()
    hooks = None
    try:
        if not args.trace:
            steal.start()
            outcome = _run(module, args, workdir)
            steal.stop()
        else:
            untraced = _run(module, args, workdir / "untraced")
            tracer = tracing.Tracer()
            hooks = tracing.install(tracer)
            steal.start()
            outcome = _run(module, args, workdir / "traced", tracer)
            steal.stop()
    finally:
        if hooks is not None:
            hooks.uninstall()
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    try:
        if not args.trace:
            metrics, bases = harness.end_to_end(outcome, steal.share)
            units = dict(harness.END_TO_END)
        else:
            outcome.failures += untraced.failures
            metrics, bases = tracing.layer_metrics(tracer, outcome, untraced)
            units = dict(tracing.PER_LAYER)
            tracer.write_log(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    except (stats.TooFewSamples, ZeroDivisionError) as exc:
        print(f"perfbench: {args.workload} produced an invalid metric: {exc}", file=sys.stderr)
        return 3

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **env.environment(ROOT, OUT),
            "cpu_steal_share": steal.share,
            "wall_s": outcome.wall,
            "cpu_s": outcome.cpu,
        },
        "size": outcome.size,
        # The raw wall figures behind the timings reported at reference speed.
        "wall_figures": {
            name: value
            for name, base in bases.items()
            for key, value in base.items()
            if key.startswith("wall_median")
        },
        "failures": outcome.failures,
        "missing_hooks": hooks.missing if hooks is not None else [],
    }
    correct = not outcome.failures
    print(_table(metrics, units, bases))
    for failure in outcome.failures[:50]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(report, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
