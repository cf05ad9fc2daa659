"""repro.obs — the unified observability layer (metrics + trace spans).

Before this package, telemetry lived in three silos with three shapes:
:class:`~repro.runtime.stats.RuntimeStats` inside study runs,
:class:`~repro.serving.service.ServingStats` inside the match service,
and the process-wide table in :mod:`repro.reliability.counters`.  This
package unifies them and adds the dimension none of them had — *which
stage of which request spent the time*:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`: thread-safe
  counters, gauges and fixed-bucket histograms with a deterministic
  snapshot/merge API (counter and histogram merges are associative),
  absorbers for all three legacy silos, and a Prometheus text rendering
  served on ``GET /metrics``.
* :mod:`repro.obs.trace` — the :func:`span` context manager with
  contextvars parent/child propagation, buffered in memory and exported
  as self-checksummed JSONL through the crash-safe atomic writers.
  Instrumented sites span grid cells, LLM request retries, batch
  chunks, scheduler flushes, serving requests and fast-path inference.
* :mod:`repro.obs.wiring` — activation (the run settings'
  ``trace_path`` / ``obs``, i.e. ``--trace`` / ``REPRO_TRACE`` /
  ``REPRO_OBS``) and the :class:`ObservabilitySession`
  lifecycle that produces the ``observability`` block of
  ``full_study.json``.

Everything is off by default: with no session installed, :func:`span`
returns a shared no-op and study outputs are byte-identical to a build
without this package (pinned by ``tests/obs/test_noop_parity.py``).
Operator documentation lives in ``docs/OBSERVABILITY.md``.
"""

from .registry import DEFAULT_BUCKETS, MetricsRegistry, get_registry, set_registry
from .trace import (
    ActiveSpan,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    uninstall_tracer,
)
from .wiring import ObservabilitySession, activate_observability

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "ActiveSpan",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "span",
    "uninstall_tracer",
    "ObservabilitySession",
    "activate_observability",
]
