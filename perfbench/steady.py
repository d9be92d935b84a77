"""Steadiness report: run one workload N times across seeds and print, for
every end-to-end metric, the median, the spread (interquartile range over
median) and the bound ``BENCHMARK.json`` sets, side by side.

Usage, from the repository root::

    python3 perfbench/steady.py --workload service-fleet --runs 10
    python3 perfbench/steady.py --workload paper-batch --runs 5 --first-seed 11

Each run is its own process (``perfbench/run.py``), one after another, with
the seconds ``BENCHMARK.json`` names.  A metric whose spread is above a
third of its bound is marked ``NOISY``; above the bound, ``OVER``.
``setup_s`` is judged like every other metric.  Each timing also shows,
for comparison, the spread of its raw wall figure (the timings are
reported at reference speed; see ``perfbench/reference.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run in its own process: its final JSON line, and its
    report line (environment, raw wall figures)."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout[-2000:]}\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2])


def report(
    workload: str, results: list[dict], walls: list[dict], bounds: dict[str, float]
) -> list[str]:
    """The report lines, one per metric; a timing also shows the spread
    of its raw wall figure (``wall spread``)."""
    lines = [
        f"{workload}: {len(results)} runs",
        f"{'metric':<26} {'median':>12} {'spread':>8} {'bound':>6}  verdict  wall spread",
    ]
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        spread = stats.spread(values)
        wall = ""
        if all(name in w for w in walls):
            wall = f"{stats.spread([w[name] for w in walls]):.4f}"
        if spread > bound:
            verdict = "OVER"
        elif spread > bound / 3:
            verdict = "NOISY"
        else:
            verdict = "ok"
        lines.append(
            f"{name:<26} {stats.median(values):>12.6g} {spread:>8.4f} {bound:>6.3f}  "
            f"{verdict:<7}  {wall}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, run_report = run_once(args.workload, seed, spec["run_seconds"])
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
            return 1
        results.append(result)
        walls.append(run_report["wall_figures"])
        environment = run_report["environment"]
        print(
            f"seed {seed}: wall_s={environment['wall_s']:.3f} cpu_s={environment['cpu_s']:.3f} "
            f"steal={environment['cpu_steal_share']:.3f} "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    print("\n".join(report(args.workload, results, walls, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
