"""Tests for the stdlib HTTP front-end: endpoints and error mapping."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.matchers.base import Matcher
from repro.matchers.string_sim import StringSimMatcher
from repro.serving.http import MatchHTTPServer
from repro.serving.index import CandidateIndex
from repro.serving.service import MatchService


def _post(url: str, payload: dict | bytes) -> tuple[int, dict]:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(url + "/match", data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _raw_post(address: tuple[str, int], headers: str) -> tuple[int, dict]:
    """Send a hand-written, body-less POST /match; parse the raw reply."""
    request = f"POST /match HTTP/1.1\r\nHost: test\r\n{headers}\r\n\r\n"
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request.encode("latin-1"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class _GatedMatcher(Matcher):
    """Blocks inside predict until released (for saturation tests)."""

    name = "gated"
    display_name = "Gated"

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def _predict(self, pairs, serialization_seed):
        self.entered.set()
        self.release.wait(10.0)
        return np.zeros(len(pairs), dtype=np.int64)


@pytest.fixture()
def server():
    service = MatchService(StringSimMatcher(), max_wait_ms=1.0)
    with MatchHTTPServer(service) as running:
        yield running


class TestEndpoints:
    def test_match_pair(self, server):
        status, body = _post(
            server.url, {"left": ["sony mdr", "audio"], "right": ["sony mdr", "audio"]}
        )
        assert status == 200
        assert body["matched"] is True
        assert body["label"] == 1
        assert body["latency_ms"] >= 0

    def test_metrics_reflect_traffic(self, server):
        _post(server.url, {"left": ["a"], "right": ["a"]})
        status, body = _get(server.url, "/metrics")
        assert status == 200
        assert body["counters"]["requests"] >= 1
        assert "scheduler" in body

    def test_healthz_ok(self, server):
        status, body = _get(server.url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_lookup_endpoint(self):
        index = CandidateIndex(min_shared=1)
        from repro.data.record import Record

        index.add_records(
            [Record(f"r{i}", (f"sony mdr model{i}",), f"e{i}") for i in range(3)]
        )
        service = MatchService(StringSimMatcher(), index=index, max_wait_ms=1.0)
        with MatchHTTPServer(service) as running:
            status, body = _post(
                running.url, {"record": ["sony mdr model1"], "top_k": 2}
            )
        assert status == 200
        assert {m["record_id"] for m in body["matches"]} <= {"r0", "r1", "r2"}


class TestErrorMapping:
    def test_bad_json_is_400(self, server):
        status, body = _post(server.url, b"{nope")
        assert status == 400
        assert body["error"] == "ServingError"

    def test_missing_fields_is_400(self, server):
        status, body = _post(server.url, {"wrong": "shape"})
        assert status == 400
        assert "left" in body["detail"]

    def test_lookup_without_index_is_400(self, server):
        status, body = _post(server.url, {"record": ["a"]})
        assert status == 400
        assert body["error"] == "ServingError"

    @pytest.mark.parametrize("length", ["abc", "1e3"])
    def test_non_integer_content_length_is_400(self, server, length):
        status, body = _raw_post(server.address, f"Content-Length: {length}")
        assert status == 400
        assert body["error"] == "ServingError"
        assert length in body["detail"]

    def test_unknown_path_is_404(self, server):
        assert _get(server.url, "/nope")[0] == 404
        request = urllib.request.Request(
            server.url + "/other", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404


class TestSaturation:
    def test_healthz_degrades_and_match_sheds_when_saturated(self):
        matcher = _GatedMatcher()
        service = MatchService(matcher, max_batch_size=1, max_queue=1, max_wait_ms=0.0)
        with MatchHTTPServer(service) as running:
            blocked = threading.Thread(
                target=_post, args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            # Fill the admission queue behind the in-flight batch.
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            status, body = _get(running.url, "/healthz")
            assert status == 503
            assert body["status"] == "degraded"

            status, body = _post(running.url, {"left": ["c"], "right": ["c"]})
            assert status == 429
            assert body["error"] == "OverloadedError"

            matcher.release.set()
            blocked.join(timeout=5.0)
            status, body = _get(running.url, "/healthz")
            assert status == 200


def _headers_of(url: str, path: str = "", data: bytes | None = None) -> tuple[int, dict]:
    """Status and response headers, for error responses too."""
    request = urllib.request.Request(
        url + path, data=data, method="POST" if data is not None else "GET"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers)


class TestResilienceMapping:
    def test_oversized_body_is_413(self, server):
        from repro.serving.http import MAX_BODY_BYTES

        blob = (
            b'{"left": ["' + b"x" * MAX_BODY_BYTES + b'"], "right": ["x"]}'
        )
        status, body = _post(server.url, blob)
        assert status == 413
        assert body["error"] == "PayloadTooLargeError"

    def test_shed_load_carries_retry_after(self):
        matcher = _GatedMatcher()
        service = MatchService(
            matcher, max_batch_size=1, max_queue=1, max_wait_ms=0.0
        )
        with MatchHTTPServer(service) as running:
            blocked = threading.Thread(
                target=_post,
                args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            payload = json.dumps({"left": ["c"], "right": ["c"]}).encode()
            status, headers = _headers_of(running.url, "/match", data=payload)
            assert status == 429
            assert headers.get("Retry-After") == "1"

            status, headers = _headers_of(running.url, "/healthz")
            assert status == 503
            assert headers.get("Retry-After") == "1"

            matcher.release.set()
            blocked.join(timeout=5.0)

    def test_healthz_degraded_block_lists_causes(self):
        matcher = _GatedMatcher()
        service = MatchService(
            matcher, max_batch_size=1, max_queue=1, max_wait_ms=0.0
        )
        with MatchHTTPServer(service) as running:
            status, body = _get(running.url, "/healthz")
            assert status == 200
            assert body["degraded"]["causes"] == []

            blocked = threading.Thread(
                target=_post,
                args=(running.url, {"left": ["a"], "right": ["a"]}),
                daemon=True,
            )
            blocked.start()
            assert matcher.entered.wait(5.0)
            service._batcher.submit(service.make_pair(["b"], ["b"]))

            status, body = _get(running.url, "/healthz")
            assert status == 503
            assert "saturated" in body["degraded"]["causes"]
            matcher.release.set()
            blocked.join(timeout=5.0)
