"""The study grid as independent, picklable tasks.

Tables 3 and 4 are grids of independent cells: one ``(matcher, target)``
pair fits on the transfer datasets and predicts on the held-out target
for every seed, never touching another cell's state.  This module
decomposes the grids into :class:`GridCell` specs and provides the
module-level :func:`run_cell` worker the process-pool executor can
pickle.

A worker reconstructs its inputs deterministically: the synthetic dataset
bundle is a pure function of ``(scale, seed)`` and is memoized
*per process*, so a warm pool worker builds it once and reuses it for
every cell it is handed.  Because every source of randomness is seeded
per cell, dispatching cells through any executor backend yields
bit-identical results to the serial nested loops it replaces.

Cells degrade gracefully: :func:`run_cell_guarded` converts a cell's
terminal :class:`~repro.errors.ReproError` (after the configured
whole-cell retries) into a structured :class:`CellFailure` record
instead of aborting the study, unless fail-fast is requested.  Failure
semantics are specified in ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

from ..config import StudyConfig, current_settings
from ..data.generators import build_all_datasets
from ..errors import (
    CellExecutionError,
    DeadlineExceededError,
    ReproError,
    RetryExhaustedError,
    TransientLLMError,
)
from ..eval.loo import LeaveOneOutRunner, StudyResult, TargetResult
from ..obs.trace import span
from ..reliability import counters as reliability_counters
from ..reliability import wiring
from .cache import active_cache, ensure_active_cache
from .executor import StudyExecutor
from .stats import RuntimeStats

__all__ = [
    "GridCell",
    "CellResult",
    "CellFailure",
    "dataset_bundle",
    "run_cell",
    "run_cell_guarded",
    "run_cells",
    "split_failures",
]

#: Per-process memo of ``build_all_datasets`` outputs keyed on
#: ``(scale, seed)`` — the generators are deterministic, so every process
#: that builds the same key holds identical data.
_DATASET_MEMO: dict[tuple[float, int], tuple] = {}


def dataset_bundle(scale: float, seed: int) -> tuple:
    """The memoized ``(datasets, world)`` bundle for one generator key."""
    key = (float(scale), int(seed))
    if key not in _DATASET_MEMO:
        _DATASET_MEMO[key] = build_all_datasets(scale=scale, seed=seed)
    return _DATASET_MEMO[key]


@dataclass(frozen=True)
class GridCell:
    """One independent ``(matcher, target)`` unit of study work."""

    #: ``table3`` cells name a roster entry; ``table4`` cells name a
    #: ``(model, strategy)`` combination.
    kind: str
    matcher_name: str
    target_code: str
    config: StudyConfig
    #: The full leave-one-out code roster (defines the transfer sets).
    codes: tuple[str, ...]
    dataset_seed: int = 7
    llm_seed: int = 0
    seen_in_training: bool = False
    #: Table-4 only: the LLM profile and demonstration strategy.
    model: str = ""
    strategy: str = ""
    #: Activate the process-local completion cache before running.
    use_cache: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("table3", "table4"):
            raise ReproError(f"unknown grid cell kind {self.kind!r}")
        if self.kind == "table4" and not (self.model and self.strategy):
            raise ReproError("table4 cells need a model and a strategy")
        if self.target_code not in self.codes:
            raise ReproError(
                f"target {self.target_code!r} not in cell codes {self.codes}"
            )


@dataclass(frozen=True)
class CellResult:
    """One evaluated cell plus its worker-side accounting."""

    matcher_name: str
    target_code: str
    result: TargetResult
    seconds: float
    cache_delta: dict[str, float] = field(default_factory=dict)
    #: Retry/fault counter movement inside this cell (process workers
    #: report it here because the parent cannot see their globals).
    reliability_delta: dict[str, float] = field(default_factory=dict)
    #: How many whole-cell re-runs this result needed (0 = first try).
    retries: int = 0


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that failed after exhausting its retry budget.

    The structured record graceful degradation stores in the
    ``runtime.cell_failures`` block of ``full_study.json`` instead of
    aborting the run (see ``docs/FAILURE_SEMANTICS.md`` for the schema).
    """

    matcher_name: str
    target_code: str
    #: Class name of the terminal error (e.g. ``RetryExhaustedError``).
    error_type: str
    #: The terminal error's message, truncated for the JSON document.
    message: str
    #: Whole-cell attempts made, including the first.
    attempts: int
    #: Wall-clock spent across all attempts, in seconds.
    seconds: float
    #: Whether the terminal error was of a retryable class (a
    #: non-retryable error fails the cell on its first attempt).
    retryable: bool = False
    cache_delta: dict[str, float] = field(default_factory=dict)
    reliability_delta: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The JSON shape stored in ``full_study.json``."""
        return {
            "matcher": self.matcher_name,
            "target": self.target_code,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 3),
            "retryable": self.retryable,
        }


def _factory_for(cell: GridCell, world):
    """Rebuild the matcher factory for one cell (inside the worker)."""
    if cell.kind == "table3":
        from ..study.roster import build_roster

        entry = build_roster(
            world, names=(cell.matcher_name,), llm_seed=cell.llm_seed
        )[0]
        return entry.factory

    from ..llm.profiles import get_profile as get_llm_profile
    from ..llm.prompts import DemonstrationStrategy
    from ..llm.simulated import SimulatedLLM
    from ..matchers import MatchGPTMatcher
    from .cache import wrap_client

    profile = get_llm_profile(cell.model)
    strategy = DemonstrationStrategy(cell.strategy)

    def factory(code: str):
        # Composition order matters: faults/retries inside, cache outside
        # (see repro.reliability.wiring.harden_client).
        client = wrap_client(
            wiring.harden_client(SimulatedLLM(profile, world, seed=cell.llm_seed))
        )
        return MatchGPTMatcher(
            client,
            demo_strategy=strategy,
            display_name=f"{profile.display_name} ({strategy.value})",
            params_millions=profile.params_millions,
        )

    return factory


def run_cell(cell: GridCell) -> CellResult:
    """Evaluate one grid cell; safe to run in any executor backend."""
    started = time.perf_counter()
    if cell.use_cache:
        ensure_active_cache()
    cache = active_cache()
    snapshot = cache.counters() if cache is not None else {}
    reliability_snapshot = reliability_counters.snapshot()

    datasets, world = dataset_bundle(cell.config.dataset_scale, cell.dataset_seed)
    datasets = {code: datasets[code] for code in cell.codes}
    runner = LeaveOneOutRunner(datasets, cell.config, codes=cell.codes)
    result = runner.run_target(
        _factory_for(cell, world),
        cell.target_code,
        seen_in_training=cell.seen_in_training,
    )
    return CellResult(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        result=result,
        seconds=time.perf_counter() - started,
        cache_delta=cache.delta_since(snapshot) if cache is not None else {},
        reliability_delta=reliability_counters.delta_since(reliability_snapshot),
    )


#: Error classes that justify re-running a whole cell: the failure was
#: environmental (transient backend trouble or an exhausted/expired retry
#: loop), not a property of the cell itself.
_CELL_RETRYABLE = (TransientLLMError, RetryExhaustedError, DeadlineExceededError)


def run_cell_guarded(cell: GridCell, cell_retries: int = 1) -> "CellResult | CellFailure":
    """Evaluate one cell, degrading failures into :class:`CellFailure`.

    Library errors (:class:`~repro.errors.ReproError`) are caught; a
    retryable one re-runs the whole cell up to ``cell_retries`` times
    before a failure record is returned.  Programming errors
    (``TypeError`` et al.) still propagate and abort the run — graceful
    degradation is for environmental failures, not bugs.  Note that
    under a *deterministic* fault plan a whole-cell re-run replays the
    same injected faults, so request-level retries (not cell retries)
    are what absorb injected faults; cell retries exist for the
    nondeterministic failures of a real backend.
    """
    started = time.perf_counter()
    attempts = 0
    with span(
        "grid.cell",
        kind=cell.kind,
        matcher=cell.matcher_name,
        target=cell.target_code,
    ) as cell_span:
        while True:
            attempts += 1
            try:
                result = run_cell(cell)
                if attempts > 1:
                    result = replace(result, retries=attempts - 1)
                cell_span.set(outcome="ok", attempts=attempts)
                return result
            except ReproError as error:
                retryable = isinstance(error, _CELL_RETRYABLE)
                if retryable and attempts <= cell_retries:
                    continue
                cell_span.set(
                    outcome="failed",
                    attempts=attempts,
                    error_type=type(error).__name__,
                )
                return CellFailure(
                    matcher_name=cell.matcher_name,
                    target_code=cell.target_code,
                    error_type=type(error).__name__,
                    message=str(error)[:500],
                    attempts=attempts,
                    seconds=time.perf_counter() - started,
                    retryable=retryable,
                )


def split_failures(
    outcomes: list["CellResult | CellFailure"],
) -> tuple[list[CellResult], list[CellFailure]]:
    """Partition mixed cell outcomes into (successes, failures)."""
    successes = [o for o in outcomes if isinstance(o, CellResult)]
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    return successes, failures


def _crashed_cell_failure(cell: GridCell, error: ReproError) -> CellFailure:
    """The degradation record for a cell whose pool worker died or hung.

    The worker took the cell's timing and counter deltas with it, so the
    record carries only the structured blame for the
    ``runtime.cell_failures`` block.  Crash failures are journaled like
    any other outcome, so a resumed run replays the degradation rather
    than silently retrying it; re-run without ``--resume`` (or delete
    the journal) to give crashed cells another chance.
    """
    return CellFailure(
        matcher_name=cell.matcher_name,
        target_code=cell.target_code,
        error_type=type(error).__name__,
        message=str(error)[:500],
        attempts=1,
        seconds=0.0,
        retryable=True,
    )


def run_cells(
    cells: list[GridCell],
    executor: StudyExecutor,
    stats: RuntimeStats | None = None,
    phase: str = "grid",
    cell_retries: int | None = None,
    fail_fast: bool | None = None,
    journal=None,
) -> list["CellResult | CellFailure"]:
    """Dispatch cells through the executor, in submission order.

    Failed cells degrade into :class:`CellFailure` entries in the
    returned list (and into ``stats``) unless ``fail_fast`` resolves
    true, in which case the first failure raises
    :class:`~repro.errors.CellExecutionError`.  ``cell_retries`` and
    ``fail_fast`` default to the run's
    :class:`~repro.config.RunSettings`.

    With a :class:`~repro.runtime.journal.CellJournal` attached, cells
    already present in the journal are *replayed* from disk instead of
    executed (their reconstructed outcomes are byte-identical), and every
    newly computed cell is durably journaled the moment the parent
    collects it — the write-ahead contract ``--resume`` is built on.
    A worker process that dies or hangs mid-cell degrades into the same
    :class:`CellFailure` path via the executor's crash containment.
    """
    settings = current_settings()
    retries = settings.cell_retries if cell_retries is None else cell_retries
    abort_on_failure = settings.fail_fast if fail_fast is None else fail_fast
    worker = partial(run_cell_guarded, cell_retries=retries)

    outcomes: list["CellResult | CellFailure | None"] = [None] * len(cells)
    pending_indices = list(range(len(cells)))
    if journal is not None:
        pending_indices = []
        for index, cell in enumerate(cells):
            replayed = journal.lookup(cell)
            if replayed is not None:
                outcomes[index] = replayed
            else:
                pending_indices.append(index)
    pending_cells = [cells[i] for i in pending_indices]
    n_replayed = len(cells) - len(pending_cells)

    def journal_outcome(position: int, outcome: "CellResult | CellFailure") -> None:
        journal.record(pending_cells[position], outcome, phase=phase)

    cache = active_cache()
    cache_snapshot = cache.counters() if cache is not None else {}
    reliability_snapshot = reliability_counters.snapshot()

    def dispatch() -> list["CellResult | CellFailure"]:
        with span(
            "grid.phase",
            phase=phase,
            cells=len(pending_cells),
            replayed=n_replayed,
            backend=executor.backend,
        ):
            return executor.map_tasks(
                worker,
                pending_cells,
                on_result=journal_outcome if journal is not None else None,
                on_crash=_crashed_cell_failure,
            )

    if stats is None:
        computed = dispatch()
    else:
        with stats.phase(phase):
            computed = dispatch()
    for position, index in enumerate(pending_indices):
        outcomes[index] = computed[position]
    successes, failures = split_failures(outcomes)

    if stats is not None:
        stats.record_tasks(phase, len(computed), sum(o.seconds for o in computed))
        if journal is not None:
            stats.merge_resume(
                {"cells_replayed": n_replayed, "cells_computed": len(computed)}
            )
        if cache is not None and executor.backend != "process":
            # Serial and thread cells share this process's cache, so
            # per-cell deltas overlap under concurrency (each cell's
            # window counts its neighbours' activity); one whole-phase
            # delta is exact.
            stats.merge_cache(cache.delta_since(cache_snapshot))
        else:
            # Process workers hold their own forked caches and run their
            # cells sequentially, so per-cell deltas partition exactly.
            # Replayed cells did no work and contribute nothing.
            for outcome in computed:
                stats.merge_cache(outcome.cache_delta)
        if executor.backend != "process":
            # Same aliasing argument as the cache: one whole-phase delta
            # of this process's reliability counters is exact.
            stats.merge_reliability(
                reliability_counters.delta_since(reliability_snapshot)
            )
        else:
            # A failed process cell's counters die with the exception;
            # successful cells partition exactly.
            for outcome in computed:
                stats.merge_reliability(outcome.reliability_delta)
        stats.merge_reliability(
            {
                "cell_retries": sum(r.retries for r in successes)
                + sum(max(f.attempts - 1, 0) for f in failures),
                "cell_failures": len(failures),
            }
        )
        stats.record_failures(failures)

    if failures and abort_on_failure:
        first = failures[0]
        raise CellExecutionError(
            f"{len(failures)} grid cell(s) failed (fail-fast); first: "
            f"{first.matcher_name}/{first.target_code} "
            f"{first.error_type}: {first.message}"
        )
    return outcomes


def collect_rows(
    cells: list[GridCell],
    results: list["CellResult | CellFailure"],
    params_by_matcher: dict[str, float],
) -> list[StudyResult]:
    """Assemble per-cell results into Table-3-style rows, preserving the
    cells' submission order (matcher-major, then target).

    :class:`CellFailure` entries are skipped: a degraded run's rows
    simply lack the failed targets (the failures themselves live in the
    ``runtime.cell_failures`` block).
    """
    rows: dict[str, StudyResult] = {}
    for cell, cell_result in zip(cells, results):
        if isinstance(cell_result, CellFailure):
            continue
        row = rows.get(cell.matcher_name)
        if row is None:
            row = StudyResult(
                matcher_name=cell.matcher_name,
                params_millions=params_by_matcher.get(cell.matcher_name, 0.0),
            )
            rows[cell.matcher_name] = row
        row.per_dataset[cell.target_code] = cell_result.result
    return list(rows.values())
