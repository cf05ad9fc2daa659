"""Study-wide configuration and scale profiles.

The paper's experiments consume 425 GPU hours; this reproduction runs on a
CPU, so every experiment driver accepts a :class:`StudyConfig` that scales
the expensive knobs (surrogate model width, training-pair budget, epochs,
number of seeds, test-set subsampling) while keeping the code path
identical.  Three named profiles are provided:

``smoke``
    A few seconds per experiment; used by the unit tests.
``bench``
    Tens of minutes for the complete study on one core; used by
    ``python -m repro.study.full_run``.
``default``
    A few minutes per trained matcher and target; the general-purpose
    profile for interactive work.
``full``
    The closest feasible approximation of the paper's scale; documented for
    long offline runs.

How a run *executes* — worker pool, completion cache, retries, injected
faults, fail-fast, tracing and the inference kernels — is a separate,
table-neutral concern held by :class:`RunSettings`.  It is resolved once
per run (explicit argument > ``REPRO_*`` variable > default; see
:data:`ENV_VARIABLES`) and installed with :func:`use_settings`; every
layer reads :func:`current_settings` instead of the environment.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from .errors import ConfigurationError

if TYPE_CHECKING:
    from .reliability.faults import FaultPlan
    from .reliability.policy import RetryPolicy

#: Random seeds used for the paper's five repetitions (Section 2.2).
PAPER_SEEDS: tuple[int, ...] = (0, 1, 2, 3, 4)

#: Maximum number of test pairs per dataset (MatchGPT down-sampling rule).
TEST_SET_CAP = 1_250


@dataclass(frozen=True)
class SurrogateScale:
    """Width/depth of the scaled-down training surrogates in ``repro.nn``.

    The *nominal* parameter counts used for the cost analysis come from
    :mod:`repro.models.cards` instead; these values only control how much
    compute the reproduction spends on actually fine-tuning models.
    """

    d_model: int = 48
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 96
    max_len: int = 64
    vocab_size: int = 4_096

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigurationError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )
        if min(self.d_model, self.n_layers, self.d_ff, self.max_len, self.vocab_size) <= 0:
            raise ConfigurationError("surrogate dimensions must be positive")


@dataclass(frozen=True)
class StudyConfig:
    """All knobs that trade experiment fidelity against wall-clock time."""

    name: str = "default"
    seeds: tuple[int, ...] = PAPER_SEEDS
    #: Cap on test pairs per dataset (paper: 1,250).
    test_cap: int = TEST_SET_CAP
    #: Additional subsampling of the capped test set (1.0 = no subsampling).
    test_fraction: float = 1.0
    #: Max fine-tuning pairs drawn from the ten transfer datasets.
    train_pair_budget: int = 3_000
    #: Fine-tuning epochs for the neural matchers.
    epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 3e-3
    surrogate: SurrogateScale = field(default_factory=SurrogateScale)
    #: Scale factor applied to every dataset's generated pair counts
    #: (1.0 reproduces the Table-1 sizes exactly).
    dataset_scale: float = 1.0

    def __post_init__(self) -> None:
        """Validate every knob combination (see individual messages)."""
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if not 0.0 < self.test_fraction <= 1.0:
            raise ConfigurationError("test_fraction must be in (0, 1]")
        if not 0.0 < self.dataset_scale <= 1.0:
            raise ConfigurationError("dataset_scale must be in (0, 1]")
        if self.test_cap <= 0 or self.train_pair_budget <= 0:
            raise ConfigurationError("test_cap and train_pair_budget must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")

    def with_seeds(self, seeds: tuple[int, ...]) -> "StudyConfig":
        """Return a copy of this config with a different seed set."""
        return replace(self, seeds=seeds)


#: Named scale profiles (see module docstring).
PROFILES: dict[str, StudyConfig] = {
    "smoke": StudyConfig(
        name="smoke",
        seeds=(0, 1),
        test_fraction=0.2,
        train_pair_budget=400,
        epochs=3,
        dataset_scale=0.12,
        surrogate=SurrogateScale(d_model=32, n_layers=1, n_heads=2, d_ff=64, max_len=48),
    ),
    # Sized so the benchmark harness finishes a full Table-3 regeneration
    # on one CPU core in tens of minutes rather than hours.
    "bench": StudyConfig(
        name="bench",
        seeds=(0, 1),
        test_fraction=0.25,
        train_pair_budget=500,
        epochs=3,
        dataset_scale=0.12,
    ),
    "default": StudyConfig(
        name="default",
        seeds=(0, 1, 2),
        test_fraction=0.35,
        train_pair_budget=1_200,
        epochs=6,
        dataset_scale=0.2,
    ),
    "full": StudyConfig(
        name="full",
        seeds=PAPER_SEEDS,
        test_fraction=1.0,
        train_pair_budget=20_000,
        epochs=12,
        dataset_scale=1.0,
        surrogate=SurrogateScale(d_model=96, n_layers=4, n_heads=8, d_ff=192, max_len=128),
    ),
}


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for the no-grad inference fast path (:mod:`repro.nn.fastpath`).

    All three default **on** for prediction and serving; training is never
    affected (the fast path only engages inside ``predict_proba`` and the
    serving stack, both of which run models in eval mode).

    ``fast_path``
        Route eval forwards through the fused ndarray kernels instead of
        the autograd ``Tensor`` machinery.  At float64 this is
        byte-identical to the reference path.
    ``float32``
        Run the fast path in single precision (weights cast once and
        cached).  Logits then match float64 within the tolerance
        documented at :data:`repro.nn.fastpath.FLOAT32_RTOL`; flip off
        for byte-exact study reproduction.
    ``bucketing``
        Sort batches by token length so short pairs are not padded to the
        longest pair in the workload (outputs are restored to input
        order; predictions are unchanged).
    """

    fast_path: bool = True
    float32: bool = True
    bucketing: bool = True


#: Executor backends a run can select (``auto`` picks ``thread`` for
#: more than one worker, else ``serial``).
EXECUTOR_BACKENDS: tuple[str, ...] = ("serial", "thread", "process")


def _flag(raw: str) -> bool:
    """Parse a 1/0, true/false, yes/no or on/off switch."""
    value = raw.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1/0, true/false, yes/no, on/off")


_BACKEND_CHOICES = ("auto",) + EXECUTOR_BACKENDS


def _backend(raw: str) -> str:
    """Validate an executor backend name."""
    if raw not in _BACKEND_CHOICES:
        raise ValueError(f"choose one of: {', '.join(_BACKEND_CHOICES)}")
    return raw


def _retry_policy(raw: str) -> "RetryPolicy":
    """Parse a :meth:`repro.reliability.policy.RetryPolicy.parse` spec."""
    from .reliability.policy import RetryPolicy

    return RetryPolicy.parse(raw)


def _fault_plan(raw: str) -> "FaultPlan":
    """Parse a :meth:`repro.reliability.faults.FaultPlan.parse` spec."""
    from .reliability.faults import FaultPlan

    return FaultPlan.parse(raw)


#: Every ``REPRO_*`` variable a run honours: variable -> (field, parser).
#: The three inference switches fill fields of
#: :attr:`RunSettings.inference`.  docs/ARCHITECTURE.md tabulates them
#: with their CLI flags and defaults.
ENV_VARIABLES: dict[str, tuple[str, Callable[[str], object]]] = {
    "REPRO_WORKERS": ("workers", int),
    "REPRO_EXECUTOR": ("backend", _backend),
    "REPRO_CELL_TIMEOUT_S": ("cell_timeout_s", float),
    "REPRO_CELL_RETRIES": ("cell_retries", int),
    "REPRO_FAIL_FAST": ("fail_fast", _flag),
    "REPRO_CACHE": ("cache", _flag),
    "REPRO_CACHE_PATH": ("cache_path", str),
    "REPRO_RETRY": ("retry", _retry_policy),
    "REPRO_FAULTS": ("faults", _fault_plan),
    "REPRO_TRACE": ("trace_path", str),
    "REPRO_OBS": ("obs", _flag),
    "REPRO_FAST_PATH": ("fast_path", _flag),
    "REPRO_INFER_FP32": ("float32", _flag),
    "REPRO_LENGTH_BUCKETS": ("bucketing", _flag),
}

_INFERENCE_FIELDS = ("fast_path", "float32", "bucketing")


@dataclass(frozen=True)
class RunSettings:
    """Every run-wide setting, resolved once per run.

    Unlike :class:`StudyConfig`, nothing here changes a table value: these
    settings choose how a run executes (pool, cache, failure handling,
    telemetry, inference kernels).  :meth:`resolve` builds them from
    explicit arguments and ``REPRO_*`` variables; :func:`use_settings`
    installs them for the code that runs underneath.
    """

    #: Worker-pool size for the study grid.
    workers: int = 1
    #: ``auto`` | ``serial`` | ``thread`` | ``process``.
    backend: str = "auto"
    #: Per-cell wall-clock watchdog on the pool backends (``None`` = off).
    cell_timeout_s: float | None = None
    #: Whole-cell re-run budget after a retryable failure.
    cell_retries: int = 1
    #: Abort on the first failed grid cell instead of recording it.
    fail_fast: bool = False
    #: Answer repeated prompts from the process-wide completion cache.
    cache: bool = False
    #: JSON-lines file the completion cache loads from and saves to.
    cache_path: str | None = None
    #: Per-request retry policy (``None`` = no retry layer).
    retry: "RetryPolicy | None" = None
    #: Injected fault plan (``None`` = fault-free).
    faults: "FaultPlan | None" = None
    #: Trace JSONL path; setting it turns observability on.
    trace_path: str | None = None
    #: Collect metrics without a trace file.
    obs: bool = False
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def __post_init__(self) -> None:
        """Validate the pool, watchdog and retry-budget settings."""
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in _BACKEND_CHOICES:
            raise ConfigurationError(f"unknown executor backend {self.backend!r}")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigurationError(
                f"cell timeout must be positive, got {self.cell_timeout_s}"
            )
        if self.cell_retries < 0:
            raise ConfigurationError(
                f"cell_retries must be >= 0, got {self.cell_retries}"
            )

    @property
    def executor_backend(self) -> str:
        """:attr:`backend` with ``auto`` resolved against :attr:`workers`."""
        if self.backend != "auto":
            return self.backend
        return "thread" if self.workers > 1 else "serial"

    @classmethod
    def resolve(
        cls, env: Mapping[str, str] = os.environ, **explicit: object
    ) -> "RunSettings":
        """Settings from ``explicit`` arguments, then ``env``, then defaults.

        An explicit ``None`` counts as not given.  A blank variable counts
        as unset; one that does not parse raises
        :class:`ConfigurationError` naming it, even when an explicit
        argument overrides it.  ``cache`` defaults to on when
        ``REPRO_CACHE_PATH`` is set.  This is the only place the package
        reads a ``REPRO_*`` variable.

        >>> RunSettings.resolve({"REPRO_WORKERS": "4"}).executor_backend
        'thread'
        >>> RunSettings.resolve({"REPRO_WORKERS": "4"}, workers=2).workers
        2
        """
        values: dict[str, object] = {}
        for variable, (name, parse) in ENV_VARIABLES.items():
            raw = env.get(variable, "").strip()
            if raw:
                try:
                    values[name] = parse(raw)
                except (ValueError, ConfigurationError) as error:
                    raise ConfigurationError(f"{variable}={raw!r}: {error}") from None
        inference = InferenceConfig(
            **{name: values.pop(name) for name in _INFERENCE_FIELDS if name in values}
        )
        values.setdefault("cache", "cache_path" in values)
        return cls(**values, inference=inference).with_overrides(**explicit)

    def with_overrides(self, **explicit: object) -> "RunSettings":
        """A copy with every non-``None`` keyword replaced (``self`` if none)."""
        overrides = {k: v for k, v in explicit.items() if v is not None}
        return replace(self, **overrides) if overrides else self


_installed: RunSettings | None = None


def install_settings(settings: RunSettings | None) -> RunSettings | None:
    """Install ``settings`` process-wide (``None`` clears); return the old value.

    A plain module global, not a context variable, so pool threads see
    it; process-pool workers receive it through their initializer.
    """
    global _installed
    previous, _installed = _installed, settings
    return previous


def current_settings() -> RunSettings:
    """The installed settings, else a fresh :meth:`RunSettings.resolve`."""
    return _installed if _installed is not None else RunSettings.resolve()


@contextmanager
def use_settings(settings: RunSettings) -> Iterator[RunSettings]:
    """Install ``settings`` for the block; restore the previous on exit.

    >>> with use_settings(RunSettings(workers=3)):
    ...     current_settings().workers
    3
    """
    previous = install_settings(settings)
    try:
        yield settings
    finally:
        install_settings(previous)


def get_inference_config() -> InferenceConfig:
    """The active inference configuration (:attr:`RunSettings.inference`)."""
    return current_settings().inference


@contextmanager
def inference_overrides(
    fast_path: bool | None = None,
    float32: bool | None = None,
    bucketing: bool | None = None,
) -> Iterator[InferenceConfig]:
    """Temporarily override inference knobs (tests and benchmarks).

    >>> with inference_overrides(float32=False):
    ...     get_inference_config().float32
    False
    """
    settings = current_settings()
    knobs = {"fast_path": fast_path, "float32": float32, "bucketing": bucketing}
    inference = replace(
        settings.inference, **{k: v for k, v in knobs.items() if v is not None}
    )
    with use_settings(replace(settings, inference=inference)):
        yield inference


def get_profile(name: str) -> StudyConfig:
    """Look up a named scale profile.

    >>> get_profile("smoke").name
    'smoke'
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigurationError(f"unknown profile {name!r}; choose one of: {known}") from None
