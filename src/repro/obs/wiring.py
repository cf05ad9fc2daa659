"""Activation wiring for observability: settings and session lifecycle.

Observability is **off by default** — no tracer installed, no registry,
every :func:`~repro.obs.trace.span` call returning the shared no-op —
and that default is load-bearing: with it, study outputs are
byte-identical to a build without this layer.  This module is the one
place the layer turns on, from two fields of the run's
:class:`~repro.config.RunSettings`:

``trace_path`` (``--trace`` / ``REPRO_TRACE``)
    Path of the trace JSONL file to write; setting it enables span
    recording and metric collection for the run.

``obs`` (``REPRO_OBS``)
    Enables the metrics registry *without* a trace file — useful when
    only the ``observability`` block / ``/metrics`` output is wanted.
    A trace path implies it.

:class:`ObservabilitySession` bundles one run's tracer + registry with
an explicit lifecycle: ``install()`` makes them the process-wide
defaults, ``finish(stats)`` absorbs the run's legacy stats and returns
the ``observability`` document embedded in ``full_study.json``, and
``uninstall()`` (idempotent, safe in ``finally``) flushes the trace and
restores the no-op default.
"""

from __future__ import annotations

from ..config import current_settings
from .registry import MetricsRegistry, set_registry
from .trace import Tracer, install_tracer, uninstall_tracer

__all__ = [
    "ObservabilitySession",
    "activate_observability",
]


class ObservabilitySession:
    """One run's tracer + registry with install/finish/uninstall lifecycle.

    Constructed by :func:`activate_observability`; a ``None`` session
    means observability is off and callers skip the whole block (the
    pattern ``obs = activate_observability(...)`` / ``if obs is not
    None: ...`` in :mod:`repro.study.full_run`).
    """

    def __init__(self, trace_path: str | None, clock=None) -> None:
        """A session tracing to ``trace_path`` (``None`` = metrics only).

        ``clock`` is forwarded to both the registry and tracer (callable
        or ``monotonic()``-bearing object; default ``time.perf_counter``).
        """
        self.trace_path = trace_path
        self.registry = MetricsRegistry(clock=clock)
        self.tracer: Tracer | None = (
            Tracer(trace_path, clock=clock, registry=self.registry)
            if trace_path
            else None
        )
        self._installed = False

    def install(self) -> "ObservabilitySession":
        """Make this session's registry/tracer the process-wide defaults."""
        set_registry(self.registry)
        if self.tracer is not None:
            install_tracer(self.tracer)
        self._installed = True
        return self

    def flush(self) -> int:
        """Flush the trace file if tracing; return spans written (0 if not)."""
        if self.tracer is None:
            return 0
        return self.tracer.flush()

    def finish(self, stats=None) -> dict:
        """Absorb ``stats``, flush the trace, and return the export block.

        The returned document is what :mod:`repro.study.full_run` embeds
        as the ``observability`` key of ``full_study.json``: the trace
        path and span count (when tracing) plus the full registry
        snapshot.  ``stats`` is the run's
        :class:`~repro.runtime.stats.RuntimeStats`, folded in via
        :meth:`~repro.obs.registry.MetricsRegistry.absorb_runtime_stats`
        so the block unifies all of the run's telemetry.
        """
        if stats is not None:
            self.registry.absorb_runtime_stats(stats)
        block: dict = {"enabled": True}
        if self.tracer is not None:
            spans = self.flush()
            block["trace_path"] = str(self.trace_path)
            block["spans_recorded"] = spans
        block["metrics"] = self.registry.snapshot()
        return block

    def uninstall(self) -> None:
        """Flush and restore the no-op defaults (idempotent, finally-safe)."""
        if not self._installed:
            return
        self._installed = False
        if self.tracer is not None:
            self.tracer.flush()
            uninstall_tracer()
        set_registry(None)


def activate_observability(
    trace_path: str | None = None, clock=None
) -> ObservabilitySession | None:
    """Build + install a session if observability is requested, else ``None``.

    An explicit ``trace_path`` wins; otherwise the run's settings name
    the trace file or (``obs``) ask for metrics-only mode.  When neither
    applies, nothing is installed and every instrumented call site stays
    on the no-op fast path.
    """
    settings = current_settings()
    path = trace_path if trace_path is not None else settings.trace_path
    if path is None and not settings.obs:
        return None
    return ObservabilitySession(path, clock=clock).install()
