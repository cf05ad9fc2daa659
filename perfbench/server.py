"""The ``serve_http`` server process, launched by ``run.py``.

Usage (from the repository root)::

    python3 perfbench/server.py [--trace]

Builds a routed :class:`~repro.serving.service.MatchService` behind a
:class:`~repro.serving.http.MatchHTTPServer` on a free local port:

* cheap rung: ``AnyMatch[GPT-2]`` fitted on ``FIT_CODES`` (``smoke``
  profile) and band-calibrated on ``CALIBRATION_CODE`` with
  ``build_cascade_router``;
* authority: MatchGPT[GPT-4] over ``SimulatedLLM``;
* a ``CandidateIndex`` over the right-hand records of ``TRAFFIC_CODE``
  for lookups, and a ``DriftMonitor`` armed from the fitted pairs.

The traffic dataset is none of the fitting or calibration datasets, as
in the paper's cross-dataset setting.  Set-up (data, fit, calibration,
index, server start and a warm-up on calibration pairs) runs
``SETUP_BUILDS`` times from cold, each earlier service stopped; the last
one serves.  The process then prints one JSON line (port, the set-up
times and the traffic pool) and answers JSON-line commands on stdin:

``verify``  the labels the same router gives in-process for the listed
            pair and lookup requests (the reference for served labels);
``stats``   the process CPU seconds so far, the service's ``/metrics``
            block, reliability counters, per-layer totals and peak RSS;
``stop``    shut the server down and exit.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from repro.config import get_profile  # noqa: E402
from repro.llm.pricing import api_price_per_1k  # noqa: E402
from repro.llm.profiles import get_profile as get_llm_profile  # noqa: E402
from repro.llm.simulated import SimulatedLLM  # noqa: E402
from repro.matchers import AnyMatchMatcher, MatchGPTMatcher  # noqa: E402
from repro.reliability import counters as reliability_counters  # noqa: E402
from repro.routing import build_cascade_router  # noqa: E402
from repro.routing.drift import DriftMonitor, capture_profile  # noqa: E402
from repro.runtime import grid  # noqa: E402
from repro.serving.http import MatchHTTPServer  # noqa: E402
from repro.serving.index import CandidateIndex  # noqa: E402
from repro.serving.service import MatchService  # noqa: E402
from study import clear_bundle_memos  # noqa: E402

DATASET_SEED = 7
#: The deployable serving profile (``export_deployable`` uses it too):
#: ``bench``-scale datasets, the small surrogate, a few seconds to fit.
PROFILE = "smoke"
FIT_CODES = ("ABT", "AMGO", "WAAM")
CALIBRATION_CODE = "DBAC"
TRAFFIC_CODE = "WDC"
MIN_PURITY = 0.95
MAX_BATCH_SIZE = 32
WARMUP_PAIRS = 48
WARMUP_LOOKUPS = 12
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_BUILDS = 2


def _post(port: int, body: dict) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/match", json.dumps(body),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"warm-up request failed: {response.status} {payload}")
        return payload
    finally:
        connection.close()


def build():
    """Set up the routed service and its HTTP server (one ``setup_s`` sample)."""
    config = get_profile(PROFILE)
    datasets, world = grid.dataset_bundle(config.dataset_scale, DATASET_SEED)
    fit_sets = [datasets[code] for code in FIT_CODES]
    cheap = AnyMatchMatcher("gpt2").fit(fit_sets, config, seed=0)
    expensive = MatchGPTMatcher(
        SimulatedLLM(get_llm_profile("gpt-4"), world, seed=0)
    ).fit([], config)
    router = build_cascade_router(
        cheap,
        expensive,
        datasets[CALIBRATION_CODE].pairs,
        min_purity=MIN_PURITY,
        cheap_name="anymatch-gpt2",
        expensive_name="gpt-4",
        expensive_price_per_1k_tokens=api_price_per_1k("gpt-4").dollars_per_1k_input_tokens,
    )
    monitor = DriftMonitor(
        capture_profile([p for d in fit_sets for p in d.pairs]), clock=router.clock
    )
    traffic = datasets[TRAFFIC_CODE]
    index = CandidateIndex()
    corpus = {pair.right.record_id: pair.right for pair in traffic.pairs}
    index.add_records(corpus.values())
    service = MatchService(
        cheap, index=index, router=router, drift_monitor=monitor,
        max_batch_size=MAX_BATCH_SIZE,
    )
    server = MatchHTTPServer(service).start()
    port = server.address[1]
    warmup = datasets[CALIBRATION_CODE].pairs
    for pair in warmup[:WARMUP_PAIRS]:
        _post(port, {"left": list(pair.left.values), "right": list(pair.right.values)})
    for pair in warmup[WARMUP_PAIRS:WARMUP_PAIRS + WARMUP_LOOKUPS]:
        _post(port, {"record": list(pair.left.values), "top_k": 10})
    return server, service, router, traffic


def reference_labels(service, router, pairs: list, lookups: list) -> dict:
    """In-process labels for the served requests, without HTTP or scheduler."""
    made = [service.make_pair(left, right) for left, right in pairs]
    labels = []
    for start in range(0, len(made), MAX_BATCH_SIZE):
        labels.extend(d.label for d in router.route(made[start:start + MAX_BATCH_SIZE]))
    matches = []
    for values, top_k in lookups:
        probe = service._as_record(values, "probe")
        candidates = service.index.query(probe, top_k=top_k)
        decided = router.route([service.make_pair(probe, c.record) for c in candidates]) if candidates else []
        matches.append([c.record.record_id for c, d in zip(candidates, decided) if d.label == 1])
    return {"labels": labels, "matches": matches}


def stats(service, ledger) -> dict:
    return {
        "cpu_s": time.process_time(),
        "service": service.metrics(),
        "reliability": reliability_counters.snapshot(),
        "layers": ledger.snapshot(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="install the layer wrappers")
    args = parser.parse_args(argv)

    ledger = layers.Ledger()
    if args.trace:
        # Before any service exists: the micro-batcher binds its batch
        # method and the HTTP server its handler class at construction.
        layers.install_serving(ledger)
    setups, built = [], None
    for _ in range(SETUP_BUILDS):
        if built is not None:
            built[0].stop()
            built = None
            gc.collect()
        clear_bundle_memos(grid)
        # The traced set-up totals cover the last set-up only.
        ledger.clear()
        started = time.perf_counter()
        built = build()
        setups.append(time.perf_counter() - started)
    server, service, router, traffic = built
    gc.collect()
    ready = {
        "port": server.address[1],
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "pairs": [[list(p.left.values), list(p.right.values), p.label] for p in traffic.pairs],
        "probes": sorted({tuple(p.left.values) for p in traffic.pairs}),
    }
    print(json.dumps(ready), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "verify":
                reply = reference_labels(service, router, command["pairs"], command["lookups"])
            elif command["cmd"] == "stats":
                reply = stats(service, ledger)
            else:
                break
            print(json.dumps(reply), flush=True)
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
