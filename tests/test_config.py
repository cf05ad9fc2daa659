"""Tests for study configuration and scale profiles."""

from __future__ import annotations

import os
from operator import attrgetter

import pytest

from repro.config import (
    ENV_VARIABLES,
    PROFILES,
    InferenceConfig,
    RunSettings,
    StudyConfig,
    SurrogateScale,
    current_settings,
    get_inference_config,
    get_profile,
    inference_overrides,
    use_settings,
)
from repro.errors import ConfigurationError
from repro.reliability import FaultPlan, RetryPolicy


class TestSurrogateScale:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            SurrogateScale(d_model=50, n_heads=4)

    def test_positive_dims_enforced(self):
        with pytest.raises(ConfigurationError):
            SurrogateScale(d_model=0, n_heads=1)


class TestStudyConfig:
    def test_defaults_valid(self):
        config = StudyConfig()
        assert config.test_cap == 1_250  # the MatchGPT down-sampling rule

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seeds": ()},
            {"test_fraction": 0.0},
            {"test_fraction": 1.5},
            {"dataset_scale": 0.0},
            {"test_cap": 0},
            {"train_pair_budget": -1},
            {"epochs": 0},
            {"learning_rate": 0.0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            StudyConfig(**kwargs)

    def test_with_seeds(self):
        config = StudyConfig().with_seeds((7, 8))
        assert config.seeds == (7, 8)

    def test_frozen(self):
        with pytest.raises(Exception):
            StudyConfig().epochs = 99  # type: ignore[misc]


class TestProfiles:
    def test_expected_profiles(self):
        assert set(PROFILES) == {"smoke", "bench", "default", "full"}

    def test_scales_ordered(self):
        smoke, default, full = (get_profile(n) for n in ("smoke", "default", "full"))
        assert smoke.dataset_scale < default.dataset_scale < full.dataset_scale
        assert smoke.train_pair_budget < default.train_pair_budget < full.train_pair_budget

    def test_full_uses_paper_seeds(self):
        assert get_profile("full").seeds == (0, 1, 2, 3, 4)

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError):
            get_profile("turbo")


def _inference(name: str):
    return lambda settings: getattr(settings.inference, name)


#: One row per ``REPRO_*`` variable: (variable, read the setting, default,
#: env value, what it parses to, explicit keyword beating it, malformed
#: value).  The two path variables accept any non-blank string, so they
#: have no malformed value.
_TABLE = [
    ("REPRO_WORKERS", attrgetter("workers"), 1, "5", 5, {"workers": 3}, "lots"),
    ("REPRO_EXECUTOR", attrgetter("backend"), "auto", "process", "process",
     {"backend": "thread"}, "gpu"),
    ("REPRO_CELL_TIMEOUT_S", attrgetter("cell_timeout_s"), None, "1.5", 1.5,
     {"cell_timeout_s": 2.5}, "soon"),
    ("REPRO_CELL_RETRIES", attrgetter("cell_retries"), 1, "3", 3,
     {"cell_retries": 0}, "many"),
    ("REPRO_FAIL_FAST", attrgetter("fail_fast"), False, "1", True,
     {"fail_fast": False}, "maybe"),
    ("REPRO_CACHE", attrgetter("cache"), False, "on", True, {"cache": False},
     "sometimes"),
    ("REPRO_CACHE_PATH", attrgetter("cache_path"), None, "c.jsonl", "c.jsonl",
     {"cache_path": "x.jsonl"}, None),
    ("REPRO_RETRY", attrgetter("retry"), None, "attempts=3",
     RetryPolicy(max_attempts=3), {"retry": RetryPolicy(max_attempts=5)},
     "attempts=lots"),
    ("REPRO_FAULTS", attrgetter("faults"), None, "transient=0.2,seed=3",
     FaultPlan(transient_rate=0.2, seed=3), {"faults": FaultPlan(seed=9)},
     "transient=lots"),
    ("REPRO_TRACE", attrgetter("trace_path"), None, "t.jsonl", "t.jsonl",
     {"trace_path": "u.jsonl"}, None),
    ("REPRO_OBS", attrgetter("obs"), False, "yes", True, {"obs": False}, "kinda"),
    ("REPRO_FAST_PATH", _inference("fast_path"), True, "0", False,
     {"inference": InferenceConfig()}, "fast"),
    ("REPRO_INFER_FP32", _inference("float32"), True, "off", False,
     {"inference": InferenceConfig()}, "half"),
    ("REPRO_LENGTH_BUCKETS", _inference("bucketing"), True, "false", False,
     {"inference": InferenceConfig()}, "2"),
]
_IDS = [row[0] for row in _TABLE]


class TestRunSettingsResolve:
    def test_table_covers_every_variable(self):
        assert set(_IDS) == set(ENV_VARIABLES)

    @pytest.mark.parametrize("row", _TABLE, ids=_IDS)
    def test_unset_gives_default(self, row):
        variable, read, default, *_ = row
        assert read(RunSettings.resolve({})) == default
        assert read(RunSettings.resolve({variable: "  "})) == default
        assert read(RunSettings()) == default

    @pytest.mark.parametrize("row", _TABLE, ids=_IDS)
    def test_env_gives_its_value(self, row):
        variable, read, _default, raw, parsed, *_ = row
        assert read(RunSettings.resolve({variable: raw})) == parsed

    @pytest.mark.parametrize("row", _TABLE, ids=_IDS)
    def test_explicit_beats_env(self, row):
        variable, read, _default, raw, _parsed, explicit, _malformed = row
        expected = read(RunSettings(**explicit))
        assert read(RunSettings.resolve({variable: raw}, **explicit)) == expected

    @pytest.mark.parametrize(
        "row", [r for r in _TABLE if r[-1] is not None],
        ids=[r[0] for r in _TABLE if r[-1] is not None],
    )
    def test_malformed_value_names_the_variable(self, row):
        variable, *_rest, malformed = row
        with pytest.raises(ConfigurationError, match=variable):
            RunSettings.resolve({variable: malformed})

    def test_cache_path_turns_the_cache_on(self):
        assert RunSettings.resolve({"REPRO_CACHE_PATH": "c.jsonl"}).cache
        assert not RunSettings.resolve({"REPRO_CACHE_PATH": "c.jsonl"}, cache=False).cache

    @pytest.mark.parametrize(
        "kwargs",
        [{"workers": 0}, {"backend": "gpu"}, {"cell_timeout_s": 0.0}, {"cell_retries": -1}],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunSettings(**kwargs)


class TestInstalledSettings:
    def test_current_settings_resolve_from_env_when_none_installed(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert current_settings().workers == 6

    def test_use_settings_restores_on_exception(self):
        before = current_settings()
        with pytest.raises(RuntimeError):
            with use_settings(RunSettings(workers=4, fail_fast=True)):
                assert current_settings().workers == 4
                raise RuntimeError("boom")
        assert current_settings() == before

    def test_installed_settings_shadow_the_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        with use_settings(RunSettings(workers=2)):
            assert current_settings().workers == 2

    def test_inference_overrides_nest(self):
        with inference_overrides(float32=False):
            with inference_overrides(bucketing=False):
                assert get_inference_config() == InferenceConfig(
                    fast_path=True, float32=False, bucketing=False
                )
            assert get_inference_config().bucketing
        assert get_inference_config() == InferenceConfig()

    def test_resolving_writes_nothing_to_the_environment(self):
        before = dict(os.environ)
        RunSettings.resolve(workers=3, fail_fast=True, faults=FaultPlan(seed=1))
        assert dict(os.environ) == before
