"""Tests for the worker-pool executors and their resolution rules."""

from __future__ import annotations

import pytest

from repro.config import RunSettings, use_settings
from repro.errors import ConfigurationError
from repro.runtime.executor import (
    ProcessStudyExecutor,
    SerialExecutor,
    ThreadStudyExecutor,
    make_executor,
)


def _square(x: int) -> int:
    return x * x


class TestMapTasks:
    @pytest.mark.parametrize(
        "executor",
        [SerialExecutor(), ThreadStudyExecutor(3), ProcessStudyExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_submission_order_preserved(self, executor):
        with executor:
            assert executor.map_tasks(_square, list(range(17))) == [
                i * i for i in range(17)
            ]

    def test_pool_reused_across_calls(self):
        with ThreadStudyExecutor(2) as executor:
            executor.map_tasks(_square, [1, 2])
            pool = executor._pool
            executor.map_tasks(_square, [3, 4])
            assert executor._pool is pool

    def test_worker_exception_propagates(self):
        def boom(_x):
            raise ValueError("task failed")

        with ThreadStudyExecutor(2) as executor:
            with pytest.raises(ValueError, match="task failed"):
                executor.map_tasks(boom, [1])

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ConfigurationError):
            ThreadStudyExecutor(0)


class TestResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert make_executor(workers=3, backend="thread").workers == 3

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            make_executor()

    def test_backend_auto_depends_on_workers(self):
        assert RunSettings(workers=1).executor_backend == "serial"
        assert RunSettings(workers=4).executor_backend == "thread"
        assert isinstance(make_executor(workers=4), ThreadStudyExecutor)

    def test_backend_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert isinstance(make_executor(workers=4), ProcessStudyExecutor)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            make_executor(workers=2, backend="gpu")


class TestMakeExecutor:
    def test_single_worker_collapses_to_serial(self):
        assert isinstance(make_executor(workers=1, backend="thread"), SerialExecutor)
        assert isinstance(make_executor(), SerialExecutor)

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = make_executor()
        assert isinstance(executor, ThreadStudyExecutor)
        assert executor.workers == 3

    def test_config_selects_pool(self):
        with use_settings(RunSettings(workers=2, backend="process")):
            assert isinstance(make_executor(), ProcessStudyExecutor)
