"""Repeat the benchmark over several seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload study_llm --seeds 1-10 [--trace 0]
    python3 perfbench/steadiness.py --workload study_llm --seeds 1-10 --against ../parent

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.

``--against DIR`` compares two checkouts: this one (``A``) and ``DIR``
(``B``), for example the parent commit and a change.  They run seed by
seed, alternating which goes first (A B, B A, A B, ...), so a drift of
the host's speed during the comparison falls on both alike.  It then
prints each side's summary and B's median against A's, marked ``WORSE``
where B is worse by more than the bound.  ``--out`` also writes the raw
results as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(root: Path, spec: dict, workload: str, seed: int, trace: int) -> tuple[int, dict, dict]:
    """One benchmark run in ``root``: (exit code, details line, result)."""
    completed = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def summarise(series: dict[str, list[float]]) -> dict[str, tuple[float, float, float, float]]:
    """Per metric: (median, q1, q3, spread)."""
    summary = {}
    for name, values in series.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = (median, q1, q3, (q3 - q1) / median if median else 0.0)
    return summary


def print_summary(label: str, summary: dict, bounds: dict) -> None:
    print(f"{label}\n{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, (median, q1, q3, spread) in summary.items():
        bound = bounds.get(name)
        print(f"{name:<28} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--against", default=None, help="second checkout, run interleaved")
    parser.add_argument("--out", default=None, help="append raw results (JSON lines)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    bounds = {name: m["bound"] for name, m in metrics.items()}
    sides = {"A": ROOT}
    if args.against:
        sides["B"] = Path(args.against).resolve()
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    for index, seed in enumerate(seeds_from(args.seeds)):
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        for side in order:
            code, context, result = run_once(sides[side], spec, args.workload, seed, args.trace)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                             "side": side, "exit": code, **context,
                                             "result": result}) + "\n")
            environment = context["environment"]
            print(f"{side} seed {seed}: exit {code} correct {result['correct']} "
                  f"run {environment['run_s']:.1f}s load {environment['loadavg_start'][0]} "
                  f"disturbed {environment.get('disturbed', [])}", flush=True)
            for name, entry in result["metrics"].items():
                values[side].setdefault(name, []).append(entry["value"])

    summaries = {side: summarise(series) for side, series in values.items()}
    for side, summary in summaries.items():
        print_summary(f"\n{side}: {sides[side]}", summary, bounds)
    if "B" in summaries:
        print(f"\nB against A\n{'metric':<28} {'A median':>12} {'B median':>12} {'change':>8} {'bound':>6}")
        for name, (a_median, *_rest) in summaries["A"].items():
            b_median = summaries["B"][name][0]
            change = (b_median - a_median) / a_median if a_median else 0.0
            bound = bounds.get(name)
            worse = change if metrics.get(name, {}).get("better") == "lower" else -change
            flag = "WORSE" if bound is not None and worse > bound else ""
            print(f"{name:<28} {a_median:>12.6g} {b_median:>12.6g} {change:>+8.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
