"""Open-loop HTTP load for ``serve_http``.

Requests are sent on a fixed schedule however fast the server answers:
within a phase of ``n`` requests at ``rate`` per second they are due
evenly spaced, ``1 / rate`` apart (constant throughput).  Poisson
arrivals were tried first; their bursts made the tail depend on the
seed more than on the server (see ``perfbench/STEADINESS.md``).  The
seed chooses the offset of the every-fifth lookup and the order of the
pairs and of the lookup probes.  At most ``SENDERS`` threads send, one connection
each at a time; a request is timed from when it was due, so a stalled
sender's backlog counts against the requests queued behind it, and how
late each send started is recorded.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

#: Sender threads (= connections in flight); the box has two cores.
SENDERS = 2
#: Every ``LOOKUP_EVERY``-th request is a ``record`` lookup; the rest
#: are pair requests.
LOOKUP_EVERY = 5
TOP_K = 10
TIMEOUT_S = 10.0


@dataclass
class Request:
    offset_s: float
    kind: str                 # "pair" or "lookup"
    body: dict
    label: int | None = None  # ground truth of a pair request
    due: float = 0.0
    started: float = 0.0
    ended: float = 0.0
    status: int = 0
    reply: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.ended - self.due)

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.started - self.due)


def phase_counts(rate: float, seconds: float) -> tuple[int, int]:
    """``(pair requests, lookup requests)`` of one phase."""
    n = max(1, round(rate * seconds))
    return n - n // LOOKUP_EVERY, n // LOOKUP_EVERY


def plan_phase(rng: random.Random, rate: float, seconds: float,
               pairs: list, probes: list) -> list[Request]:
    """A seeded phase: exact request count and pair/lookup mix.

    ``pairs`` and ``probes`` are consumed from the front.
    """
    n_pairs, n_lookups = phase_counts(rate, seconds)
    # Lookups fall every LOOKUP_EVERY requests from a seeded offset: they
    # never arrive back to back, so the tail does not depend on how a
    # seed happened to cluster them.
    first = rng.randrange(LOOKUP_EVERY)
    kinds = ["pair"] * (n_pairs + n_lookups)
    for i in range(n_lookups):
        kinds[first + i * LOOKUP_EVERY] = "lookup"
    requests = []
    for i, kind in enumerate(kinds):
        offset = (i + 0.5) / rate
        if kind == "pair":
            left, right, label = pairs.pop(0)
            requests.append(Request(offset, kind, {"left": left, "right": right}, label))
        else:
            probe = probes.pop(0)
            requests.append(Request(offset, kind, {"record": list(probe), "top_k": TOP_K}))
    return requests


def _send(port: int, request: Request) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request("POST", "/match", json.dumps(request.body),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
        request.status = response.status
        if response.status == 200:
            request.reply = json.loads(payload)
    except (OSError, http.client.HTTPException, ValueError):
        request.status = -1
    finally:
        connection.close()
        request.ended = time.perf_counter()


def run_phase(port: int, requests: list[Request]) -> None:
    """Send every request at its due time; returns when all are answered."""
    start = time.perf_counter() + 0.05
    for request in requests:
        request.due = start + request.offset_s
    cursor = iter(requests)
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.started = time.perf_counter()
            _send(port, request)

    threads = [threading.Thread(target=sender, name=f"loadgen-{i}") for i in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
