"""One study measurement, run in a fresh interpreter by ``run.py``.

Usage (from the repository root)::

    python3 perfbench/study.py train Ditto:ABT [--trace]
    python3 perfbench/study.py llm [--trace]

``train`` evaluates the named Table-3 grid cells (``matcher:target``)
through the grid path ``repro.study.table3.run`` dispatches to, over the
full 11-code leave-one-out roster of the ``bench`` profile.  ``llm``
runs ``repro.study.full_run.run_study`` on the ``bench`` profile for the
MatchGPT roster rows plus Table 4, with the completion cache on.

Set-up (the dataset bundle) is timed apart from the cells: it is built
cold ``SETUP_BUILDS[kind]`` times, its memos cleared in between, and the
cells read the last build.  Every cell F1 is compared with the committed
``results/full_study.json``.  The process prints one JSON object as its
last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Dataset generator seed of the committed study (``table3.run`` default).
DATASET_SEED = 7
COMMITTED = ROOT / "results" / "full_study.json"
#: Cold dataset-bundle builds per process, the ``setup_s`` samples:
#: four per ``study_train`` run (two processes) and three per
#: ``study_llm`` run (three processes), which keeps a round of runs
#: inside its time budget.
SETUP_BUILDS = {"train": 2, "llm": 1}


def clear_bundle_memos(grid) -> None:
    """Make the next ``dataset_bundle`` call build from cold.

    Clears the grid's bundle memo and ``build_dataset``'s own cache
    (reached through any tracing wrapper).
    """
    from repro.data import generators

    build = generators.build_dataset
    while not hasattr(build, "cache_clear"):
        build = build.__wrapped__
    grid._DATASET_MEMO.clear()
    build.cache_clear()


def _time_setup(grid, scale: float, builds: int) -> list[float]:
    """Seconds of each of ``builds`` cold builds of the dataset bundle."""
    seconds = []
    for _ in range(builds):
        clear_bundle_memos(grid)
        started = time.perf_counter()
        grid.dataset_bundle(scale, DATASET_SEED)
        seconds.append(time.perf_counter() - started)
    return seconds


def _time_cells(grid) -> list[float]:
    """Record each ``run_cell`` duration (one clock pair per grid cell).

    This is the only wrapper on ``run_cell``: the traced run's
    ``runtime.*`` metrics are derived from these durations too.
    """
    seconds: list[float] = []
    original = grid.run_cell

    @functools.wraps(original)
    def timed(cell):
        started = time.perf_counter()
        result = original(cell)
        seconds.append(time.perf_counter() - started)
        return result

    grid.run_cell = timed
    return seconds


def _train_cells(specs: list[str], config, grid, committed: dict) -> tuple[list, list, int]:
    """Run the named Table-3 cells serially; returns (f1s, mismatches, failed)."""
    from repro.eval.loo import LeaveOneOutRunner
    from repro.runtime.executor import make_executor
    from repro.study.roster import build_roster

    datasets, world = grid.dataset_bundle(config.dataset_scale, DATASET_SEED)
    codes = LeaveOneOutRunner(datasets, config).codes
    cells = []
    for spec in specs:
        matcher, target = spec.split(":")
        entry = build_roster(world, names=(matcher,))[0]
        cells.append(
            grid.GridCell(
                kind="table3",
                matcher_name=matcher,
                target_code=target,
                config=config,
                codes=codes,
                dataset_seed=DATASET_SEED,
                seen_in_training=target in entry.seen_datasets,
            )
        )
    executor = make_executor(workers=1, backend="serial")
    try:
        outcomes = grid.run_cells(cells, executor, fail_fast=False)
    finally:
        executor.close()
    f1s, mismatches, failed = [], [], 0
    for cell, outcome in zip(cells, outcomes):
        if isinstance(outcome, grid.CellFailure):
            failed += 1
            mismatches.append(f"{cell.matcher_name}/{cell.target_code}: {outcome.error_type}")
            continue
        f1 = outcome.result.mean_f1
        expected = committed["table3"]["per_dataset"][cell.matcher_name][cell.target_code]
        f1s.append(f1)
        if f1 != expected:
            mismatches.append(f"{cell.matcher_name}/{cell.target_code}: {f1!r} != {expected!r}")
    return f1s, mismatches, failed


def _llm_study(config, committed: dict) -> tuple[list, list, int, dict]:
    """Run the MatchGPT rows plus Table 4; returns (f1s, mismatches, failed, cache)."""
    from repro.runtime import cache
    from repro.study.full_run import run_study
    from repro.study.roster import ROSTER_ORDER

    matchgpt = tuple(name for name in ROSTER_ORDER if name.startswith("MatchGPT"))
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        # run_study narrates its progress on stdout; keep stdout for the result.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            document = run_study(
                config, Path(scratch) / "study.json", matchers=matchgpt,
                workers=1, backend="serial", use_cache=True,
            )
    counters = cache.active_cache().counters()
    cache.deactivate()
    f1s, mismatches = [], []
    failures = document["runtime"].get("cell_failures", [])
    mismatches.extend(f"{f['matcher']}/{f['target']}: {f['error_type']}" for f in failures)
    for table, rows in (
        ("table3", {name: document["table3"]["per_dataset"][name] for name in matchgpt}),
        ("table4", document["table4"]["per_dataset"]),
    ):
        for row, per_dataset in rows.items():
            for code, f1 in per_dataset.items():
                f1s.append(f1)
                expected = committed[table]["per_dataset"][row][code]
                if f1 != expected:
                    mismatches.append(f"{table} {row}/{code}: {f1!r} != {expected!r}")
    return f1s, mismatches, len(failures), counters


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("train", "llm"))
    parser.add_argument("cells", nargs="*", help="matcher:target specs (train only)")
    parser.add_argument("--trace", action="store_true", help="install the layer wrappers")
    args = parser.parse_args(argv)

    from repro.config import get_profile
    from repro.reliability import counters as reliability_counters
    from repro.runtime import grid

    import layers

    config = get_profile("bench")
    committed = json.loads(COMMITTED.read_text())
    ledger = layers.Ledger()
    if args.trace:
        layers.install_study(ledger)
    cell_seconds = _time_cells(grid)

    # Set-up: the dataset bundle every cell reads (memoised per process).
    setup_s = _time_setup(grid, config.dataset_scale, SETUP_BUILDS[args.kind])
    # The discarded builds' garbage is not the cells' to collect.
    gc.collect()

    cache_counters: dict = {}
    cpu_started = time.process_time()
    started = time.perf_counter()
    if args.kind == "train":
        f1s, mismatches, failed = _train_cells(args.cells, config, grid, committed)
    else:
        f1s, mismatches, failed, cache_counters = _llm_study(config, committed)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "cell_seconds": cell_seconds,
        "f1s": f1s,
        "mismatches": mismatches,
        "failed_cells": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": cache_counters,
        "reliability": reliability_counters.snapshot(),
        "layers": ledger.snapshot(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
