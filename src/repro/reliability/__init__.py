"""Fault-tolerant request layer: retries, deadlines, fault injection.

The paper's cost analysis (Section 4.2) assumes every completion request
succeeds; a production EM service cannot.  This package makes the
request layer survive — and, crucially, makes failure *testable offline*
by simulating it the same way :mod:`repro.llm.simulated` simulates the
hosted models:

:mod:`repro.reliability.policy`
    :class:`RetryPolicy` — retryable-error classification, exponential
    backoff with deterministic seeded jitter, per-request deadlines.
:mod:`repro.reliability.retry`
    :class:`RetryingClient` — the wrapper that applies a policy around
    any :class:`~repro.llm.client.LLMClient`, with response validation.
:mod:`repro.reliability.faults`
    :class:`FaultInjector` and :class:`FaultPlan` — seeded, reproducible
    injection of transient errors, rate limits, latency spikes and
    malformed completions.
:mod:`repro.reliability.clock`
    :class:`SystemClock` / :class:`FakeClock` — injectable time so
    backoff tests assert exact schedules without sleeping.
:mod:`repro.reliability.breaker`
    :class:`CircuitBreaker` — closed/open/half-open isolation of a
    persistently unhealthy backend over rolling failure-rate windows.
:mod:`repro.reliability.hedge`
    :class:`HedgedCall` — race a duplicate attempt against a straggler
    for idempotent calls, first-result-wins with win/waste accounting.
:mod:`repro.reliability.budget`
    :class:`DeadlineBudget` — one request-scoped time budget carved
    across queueing, retries and router hops via ``remaining()``.
:mod:`repro.reliability.wiring`
    :func:`harden_client`, the one composition point the study
    factories funnel every client through; it applies the retry policy
    and fault plan of the run's :class:`~repro.config.RunSettings`.
:mod:`repro.reliability.counters`
    Process-global retry/fault counters, aggregated into the ``runtime``
    block of ``full_study.json``.

Failure semantics — what is retried, how long backoff waits, how the
completion cache interacts with retries, and the ``CellFailure`` schema
— are specified in ``docs/FAILURE_SEMANTICS.md``.
"""

from __future__ import annotations

from .breaker import CircuitBreaker
from .budget import DeadlineBudget
from .clock import Clock, FakeClock, SystemClock
from .faults import FaultInjector, FaultPlan
from .hedge import HedgedCall
from .policy import DEFAULT_POLICY, RetryPolicy, is_retryable
from .retry import RetryingClient, validate_yes_no
from .wiring import harden_client

__all__ = [
    "CircuitBreaker",
    "Clock",
    "DEFAULT_POLICY",
    "DeadlineBudget",
    "FakeClock",
    "FaultInjector",
    "FaultPlan",
    "HedgedCall",
    "RetryPolicy",
    "RetryingClient",
    "SystemClock",
    "harden_client",
    "is_retryable",
    "validate_yes_no",
]
