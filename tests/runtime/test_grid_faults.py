"""Fault-injected study runs: byte-identical tables, graceful degradation.

The acceptance property of the reliability layer: a seeded study run
under a 20% transient-error fault plan with the retry layer on produces
**byte-identical** tables to a fault-free run — across worker counts —
while the retry/fault counters show the layer actually worked.  With
retries disabled, the same faults degrade into structured
``CellFailure`` records instead of aborting (unless ``fail_fast``).
"""

from __future__ import annotations

import json

import pytest

from repro.config import RunSettings, StudyConfig, SurrogateScale, use_settings
from repro.errors import CellExecutionError
from repro.reliability import FaultPlan, RetryPolicy, counters
from repro.runtime import grid
from repro.runtime.cache import deactivate
from repro.runtime.executor import (
    ProcessStudyExecutor,
    SerialExecutor,
    ThreadStudyExecutor,
)
from repro.runtime.stats import RuntimeStats
from repro.study import table3

_CONFIG = StudyConfig(
    name="faults",
    seeds=(0, 1),
    test_fraction=0.2,
    train_pair_budget=120,
    epochs=2,
    dataset_scale=0.05,
    surrogate=SurrogateScale(
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
    ),
)
#: Only the LLM-backed matcher: StringSim never issues a completion, so
#: faults cannot touch it.
_MATCHERS = ("MatchGPT[GPT-4o-Mini]",)
_CODES = ("ABT", "BEER")

#: 20% transient + assorted other faults; zero-length sleeps keep the
#: suite fast (the backoff *schedule* is pinned by tests/reliability).
_PLAN = FaultPlan(transient_rate=0.2, rate_limit_rate=0.03,
                  malformed_rate=0.02, retry_after_s=0.0, seed=3)
_POLICY = RetryPolicy(max_attempts=4, base_delay_s=0.0, max_delay_s=0.0)
#: Faults the retry layer absorbs, and the same faults with retries off.
_RETRYING = RunSettings(faults=_PLAN, retry=_POLICY)
_NOT_RETRYING = RunSettings(faults=_PLAN, retry=_POLICY.without_retries())


@pytest.fixture(autouse=True)
def _no_active_cache():
    deactivate()
    yield
    deactivate()


def _table3_json(executor, stats=None) -> str:
    result = table3.run(
        _CONFIG, _MATCHERS, codes=_CODES, executor=executor, stats=stats
    )
    return json.dumps(
        {
            "per_dataset": result.per_dataset_table(),
            "mean": result.quality_table(),
            "rendered": result.render(),
        },
        sort_keys=True,
    )


class TestFaultParity:
    def test_injected_faults_leave_tables_byte_identical(self):
        reference = _table3_json(SerialExecutor())

        before = counters.snapshot()
        stats = RuntimeStats(workers=4, backend="thread")
        with use_settings(_RETRYING), ThreadStudyExecutor(4) as executor:
            faulted = _table3_json(executor, stats=stats)
        delta = counters.delta_since(before)

        assert faulted == reference
        # The layer provably did something: faults landed, retries absorbed.
        assert delta["faults_injected"] > 0
        assert delta["transient_faults"] > 0
        assert delta["request_retries"] > 0
        # ... and the run's stats block carries the same evidence.
        reported = stats.as_dict()["reliability"]
        assert reported["faults_injected"] == delta["faults_injected"]
        assert reported["request_retries"] == delta["request_retries"]
        assert reported["cell_failures"] == 0
        assert stats.reliability_active

    def test_process_workers_receive_the_fault_plan(self):
        # No REPRO_* variable is set: the workers get the plan and the
        # policy from the parent's installed settings.
        reference = _table3_json(SerialExecutor())
        stats = RuntimeStats(workers=4, backend="process")
        with use_settings(_RETRYING), ProcessStudyExecutor(4) as executor:
            faulted = _table3_json(executor, stats=stats)
        assert faulted == reference
        reported = stats.as_dict()["reliability"]
        assert reported["faults_injected"] > 0
        assert reported["request_retries"] > 0
        assert reported["cell_failures"] == 0

    @use_settings(_RETRYING)
    def test_serial_and_threaded_fault_runs_match(self):
        serial = _table3_json(SerialExecutor())
        with ThreadStudyExecutor(4) as executor:
            threaded = _table3_json(executor)
        assert threaded == serial


class TestGracefulDegradation:
    @use_settings(_NOT_RETRYING)
    def test_disabled_retries_degrade_into_cell_failures(self):
        stats = RuntimeStats()
        result = table3.run(
            _CONFIG, _MATCHERS, codes=_CODES, executor=SerialExecutor(),
            stats=stats,
        )
        # Every cell trips an injected fault early, fails, and is recorded
        # instead of aborting the run.
        assert result.results == [] or all(
            len(r.per_dataset) < len(_CODES) for r in result.results
        )
        assert stats.cell_failures
        failure = stats.cell_failures[0]
        assert failure["matcher"] == _MATCHERS[0]
        assert failure["target"] in _CODES
        assert failure["error_type"] == "RetryExhaustedError"
        assert failure["retryable"] is True
        assert failure["attempts"] >= 2  # the whole-cell retry also ran
        assert stats.reliability_counters["cell_failures"] == len(
            stats.cell_failures
        )
        block = stats.as_dict()
        assert block["cell_failures"] == stats.cell_failures

    @use_settings(_NOT_RETRYING.with_overrides(fail_fast=True))
    def test_fail_fast_aborts_on_first_failure(self):
        with pytest.raises(CellExecutionError):
            table3.run(
                _CONFIG, _MATCHERS, codes=_CODES, executor=SerialExecutor()
            )

    def test_fail_fast_env_overrides_config(self, monkeypatch):
        # No settings installed: faults, retries and fail-fast all
        # resolve from the environment.
        monkeypatch.setenv("REPRO_FAIL_FAST", "1")
        monkeypatch.setenv("REPRO_FAULTS", _PLAN.to_spec())
        monkeypatch.setenv("REPRO_RETRY", _POLICY.without_retries().to_spec())
        with pytest.raises(CellExecutionError):
            table3.run(
                _CONFIG, _MATCHERS, codes=_CODES, executor=SerialExecutor()
            )

    def test_collect_rows_skips_failures(self):
        cell = grid.GridCell(
            kind="table3", matcher_name="M", target_code="ABT",
            config=_CONFIG, codes=_CODES,
        )
        failure = grid.CellFailure(
            matcher_name="M", target_code="ABT",
            error_type="RetryExhaustedError", message="x", attempts=2,
            seconds=0.1, retryable=True,
        )
        assert grid.collect_rows([cell], [failure], {}) == []
        assert failure.as_dict()["seconds"] == 0.1
