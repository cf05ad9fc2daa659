"""A study's run settings end with the study.

``run_study`` installs its resolved :class:`~repro.config.RunSettings`
for the duration of the run only.  Faults, retries and fail-fast asked
for by one study must not leak into ``os.environ`` or into the next
study in the same process, whether the first one returns or raises.
"""

from __future__ import annotations

import os

import pytest

from repro.config import StudyConfig, SurrogateScale, current_settings
from repro.errors import CellExecutionError
from repro.study.full_run import run_study

_CONFIG = StudyConfig(
    name="leak",
    seeds=(0,),
    test_fraction=0.2,
    train_pair_budget=120,
    epochs=1,
    dataset_scale=0.05,
    surrogate=SurrogateScale(
        d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32, vocab_size=1024
    ),
)
_MATCHERS = ("StringSim", "MatchGPT[GPT-4o-Mini]")
_RELIABILITY = {"retries": 2, "faults": "transient=0.2,seed=3", "fail_fast": True}
#: Under the seeded plan above, every request on these targets recovers
#: within two retries; on ABT one exhausts them and fails its cell.
_RECOVERING_CODES = ("BEER", "FOZA")
_FAILING_CODES = ("ABT", "BEER")


def _repro_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _assert_nothing_leaked(env_before: dict, settings_before) -> None:
    assert _repro_env() == env_before
    assert current_settings() == settings_before


def _assert_next_study_is_clean(tmp_path) -> None:
    document = run_study(
        _CONFIG, tmp_path / "clean.json", codes=_RECOVERING_CODES, matchers=_MATCHERS
    )
    reliability = document["runtime"]["reliability"]
    assert reliability["faults_injected"] == 0
    assert reliability["request_retries"] == 0


def test_settings_do_not_outlive_a_returning_study(tmp_path):
    env_before, settings_before = _repro_env(), current_settings()
    document = run_study(
        _CONFIG, tmp_path / "faulted.json", codes=_RECOVERING_CODES,
        matchers=_MATCHERS, **_RELIABILITY,
    )
    assert document["runtime"]["reliability"]["faults_injected"] > 0
    _assert_nothing_leaked(env_before, settings_before)
    _assert_next_study_is_clean(tmp_path)


def test_settings_do_not_outlive_a_failing_study(tmp_path):
    env_before, settings_before = _repro_env(), current_settings()
    with pytest.raises(CellExecutionError):
        run_study(
            _CONFIG, tmp_path / "faulted.json", codes=_FAILING_CODES,
            matchers=_MATCHERS, **_RELIABILITY,
        )
    _assert_nothing_leaked(env_before, settings_before)
    _assert_next_study_is_clean(tmp_path)
