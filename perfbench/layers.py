"""Per-layer tracing for the traced benchmark run.

The traced run times the calls into each layer's public functions from
the benchmark's own files: every wrapper is installed on the name the
caller looks up (a matcher that did ``from ..models.training import
train_classifier`` is patched in the matcher's module, not only in the
defining one).  Nothing finer than one training step, one batch or one
request is wrapped, so the overhead stays a small share of each layer.

A :class:`Ledger` accumulates busy seconds and counts per key; wrappers
run on several threads in the server, so every update takes a lock.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Ledger:
    """Thread-safe busy-time and count totals keyed by metric name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def add(self, key: str, seconds: float) -> None:
        """One call of ``key`` that was busy for ``seconds``."""
        with self._lock:
            self.seconds[key] += seconds
            self.counts[key] += 1

    def bump(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def clear(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


def _timed(ledger: Ledger, key: str, original, on_result=None):
    """Wrap ``original`` so each call adds its duration under ``key``.

    ``on_result(args, kwargs, result, seconds)`` (optional) records
    extra counts from the call's arguments and result.
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        elapsed = time.perf_counter() - started
        ledger.add(key, elapsed)
        if on_result is not None:
            on_result(args, kwargs, result, elapsed)
        return result

    return wrapper


def _patch(owner, name: str, ledger: Ledger, key: str, on_result=None) -> None:
    setattr(owner, name, _timed(ledger, key, getattr(owner, name), on_result))


def install_study(ledger: Ledger) -> None:
    """Wrap the layers a study run goes through (data to training to LLM)."""
    from repro.eval.loo import LeaveOneOutRunner

    _install_data(ledger)
    _install_training(ledger)
    _install_llm(ledger)
    _patch(LeaveOneOutRunner, "test_set", ledger, "eval.loo_prep")
    _patch(LeaveOneOutRunner, "transfer_sets", ledger, "eval.loo_prep")


def _install_data(ledger: Ledger) -> None:
    from repro.data import generators
    from repro.runtime import grid

    _patch(grid, "dataset_bundle", ledger, "data.bundle")
    _patch(generators, "build_dataset", ledger, "data.build")


def _install_training(ledger: Ledger) -> None:
    """Encoding, the training loop and its phases, and inference."""
    from repro.matchers import anymatch, ditto, unicorn
    from repro.models import training
    from repro.nn.optim import AdamW
    from repro.nn.tensor import Tensor

    def encoded(args, kwargs, result, _seconds):
        ledger.bump("encoding.pairs", len(result))
        ledger.bump("encoding.slots", result.pad_mask.size)
        ledger.bump("encoding.pad_slots", int(result.pad_mask.sum()))

    def trained(args, kwargs, _result, _seconds):
        data = args[1] if len(args) > 1 else kwargs["data"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        ledger.bump("train.examples", len(data) * config.epochs)

    def predicted(args, kwargs, _result, _seconds):
        data = args[1] if len(args) > 1 else kwargs["data"]
        ledger.bump("infer.pairs", len(data))

    for module in (training, ditto, anymatch, unicorn):
        _patch(module, "train_classifier", ledger, "train.fit", trained)
        _patch(module, "predict_proba", ledger, "infer.predict", predicted)
    for module in (ditto, anymatch, unicorn):
        _patch(module, "encode_pairs", ledger, "encoding.encode", encoded)
    _patch(Tensor, "backward", ledger, "train.backward")
    _patch(training, "clip_grad_norm", ledger, "train.clip")
    _patch(AdamW, "step", ledger, "train.optim")


def _install_llm(ledger: Ledger) -> None:
    """Wrap one simulated-LLM request and one prompt build."""
    from repro.llm.simulated import SimulatedLLM
    from repro.matchers.matchgpt import MatchGPTMatcher

    def completed(_args, _kwargs, response, _seconds):
        ledger.bump("llm.prompt_tokens", response.prompt_tokens)

    _patch(SimulatedLLM, "complete", ledger, "llm.complete", completed)
    _patch(MatchGPTMatcher, "prompt_for", ledger, "llm.prompt")


def install_serving(ledger: Ledger) -> None:
    """Wrap the online path: HTTP handler, service, router, index, model.

    Must run before the service and server are constructed: the
    micro-batcher binds ``MatchService._process_batch`` at construction
    and the HTTP handler class is built per server.  Data and training
    wrappers cover the set-up (the cheap rung's fit).
    """
    from repro.routing.policy import MatchRouter
    from repro.serving import http
    from repro.serving.index import CandidateIndex
    from repro.serving.service import MatchService

    make_handler = http._make_handler

    def traced_handler(service):
        handler = make_handler(service)
        original_send = handler.send_response

        def send_response(self, code, message=None):
            if self.command == "POST":
                ledger.bump("http.non200", int(code != 200))
            return original_send(self, code, message)

        handler.send_response = send_response
        handler.do_POST = _timed(ledger, "http.handle", handler.do_POST)
        return handler

    http._make_handler = traced_handler

    def candidates(_args, _kwargs, result, _seconds):
        ledger.bump("index.candidates", len(result))

    def routed(args, kwargs, _result, seconds):
        pairs = args[1] if len(args) > 1 else kwargs["pairs"]
        # Each pair of the batch waited for this whole route call.
        ledger.bump("router.route_item_s", seconds * len(pairs))
        ledger.bump("router.items", len(pairs))

    def awaited(_args, _kwargs, response, _seconds):
        ledger.bump("scheduler.item_latency_s", response.latency_s)
        ledger.bump("scheduler.items", 1)

    _patch(MatchService, "match_pair", ledger, "serving.in_service")
    _patch(MatchService, "lookup", ledger, "serving.in_service")
    _patch(MatchService, "_route_batch", ledger, "serving.route_batch")
    _patch(MatchService, "_await", ledger, "serving.await", awaited)
    _patch(MatchRouter, "route", ledger, "router.route", routed)
    _patch(CandidateIndex, "query", ledger, "index.query", candidates)
    _install_data(ledger)
    _install_training(ledger)
    _install_llm(ledger)
