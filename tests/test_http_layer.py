"""The shared HTTP layer: each server's route table drives dispatch and labels.

Every row of the node's and the gateway's table is requested once against a
server whose handlers are swapped for recorders: the request must reach that
row's handler with the path's parameters, and the request counter must count
it under the row's pattern.  Anything no row matches is a 404 counted as
``unrouted``.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time

import pytest

from repro.gateway import create_gateway
from repro.obs.metrics import get_metrics
from repro.service import create_server
from repro.service.http import Route


def recording(handler_class, hits: list):
    """``handler_class`` with every row's handler replaced by a recorder."""

    def recorder(route: Route):
        def handler(request, *params):
            hits.append((route.name, list(params)))
            request.send_json(200, {"route": route.name})

        return handler

    routes = tuple(
        Route(route.method, route.pattern, recorder(route), route.doc)
        for route in handler_class.routes
    )
    return type(f"Recording{handler_class.__name__}", (handler_class,), {"routes": routes})


class Served:
    """One running server plus a reader for its request counter."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "node":
            self.server = create_server(port=0, max_workers=1)
            self.counter = get_metrics().get("repro_http_requests_total")
        else:
            self.server = create_gateway(port=0)
            self.counter = get_metrics().get("repro_gateway_requests_total")
        self.routes = self.server.RequestHandlerClass.routes
        self.hits: list = []
        self.server.RequestHandlerClass = recording(
            self.server.RequestHandlerClass, self.hits
        )
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def count(self, method: str, route: str, status: int) -> float:
        if self.kind == "node":
            return self.counter.value(method=method, route=route, status=str(status))
        return self.counter.value(route=route, status=str(status), tenant="anonymous")

    def request(self, method: str, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=10)
        try:
            body = b"{}" if method == "POST" else None
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def assert_counted(self, method: str, route: str, status: int, before: float) -> None:
        # The counter is incremented after the response is written.
        deadline = time.monotonic() + 5.0
        while self.count(method, route, status) < before + 1:
            assert time.monotonic() < deadline, f"{method} {route} {status} never counted"
            time.sleep(0.01)
        assert self.count(method, route, status) == before + 1

    def close(self) -> None:
        self.server.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module", params=["node", "gateway"])
def served(request):
    served = Served(request.param)
    yield served
    served.close()


def test_every_row_reaches_its_handler_under_its_pattern_label(served):
    assert served.routes
    for route in served.routes:
        path = re.sub(r"<[^>]+>", "p-1", route.pattern)
        params = ["p-1"] * route.pattern.count("<")
        before = served.count(route.method, route.pattern, 200)
        status, body = served.request(route.method, path)
        assert (status, body) == (200, {"route": route.name})
        assert served.hits[-1] == (route.name, params)
        served.assert_counted(route.method, route.pattern, 200, before)


@pytest.mark.parametrize(
    "method, path",
    [
        ("GET", "/v1/nope"),
        ("GET", "/health"),
        ("POST", "/v1/health"),  # known path, wrong method
        ("GET", "/v1/jobs/p-1/cancel"),  # known path, wrong method
    ],
)
def test_unmatched_requests_are_unrouted_404(served, method, path):
    hits = len(served.hits)
    before = served.count(method, "unrouted", 404)
    status, body = served.request(method, path)
    assert (status, body) == (404, {"error": f"no such endpoint {path!r}"})
    assert len(served.hits) == hits
    served.assert_counted(method, "unrouted", 404, before)


def test_posted_body_to_unknown_path_keeps_connection_usable(served):
    connection = http.client.HTTPConnection("127.0.0.1", served.server.port, timeout=10)
    try:
        connection.request("POST", "/v1/nope", body=json.dumps({"type": "echo"}),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        connection.request("GET", "/v1/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read()) == {"route": "GET /v1/healthz"}
    finally:
        connection.close()
