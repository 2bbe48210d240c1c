"""Tests for repro.chaos: fault plans, injection points, and the chaos proxy.

The proxy tests drive real sockets against a tiny in-process upstream; the
dispatch test at the bottom is the load-bearing one — a two-node campaign
dispatched through fault-injecting proxies must still produce a report
byte-identical to a fault-free run.
"""

from __future__ import annotations

import http.client
import http.server
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.chaos import (
    INJECTION_POINTS,
    ChaosProxy,
    ChaosSpecError,
    FaultPlan,
    clear_plan,
    get_plan,
    install_plan,
    maybe_fail,
)
from repro.obs.metrics import get_metrics
from repro.service import JobState, WorkerPool, build_default_registry
from repro.service.client import ServiceClient


@pytest.fixture(autouse=True)
def no_leaked_plan(monkeypatch):
    """Every test starts and ends with no process-wide plan installed."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clear_plan()
    yield
    clear_plan()


class TestFaultPlanSpec:
    def test_parses_full_spec(self):
        plan = FaultPlan.from_spec(
            {
                "seed": 7,
                "rules": [
                    {"point": "journal.append", "probability": 0.5,
                     "mode": "error", "exception": "OSError", "count": 3},
                    {"point": "worker.run", "mode": "latency", "latency_s": 0.01},
                ],
            }
        )
        assert plan.seed == 7
        assert [rule.mode for rule in plan.rules] == ["error", "latency"]

    def test_bare_rule_list_shorthand(self):
        plan = FaultPlan.from_spec([{"point": "client.*", "mode": "error"}])
        assert plan.rules[0].exception == "OSError"  # mode=error default

    @pytest.mark.parametrize(
        "spec",
        [
            "not json at all",
            {"rules": []},
            {"rules": [{"point": "x", "probability": 2.0, "mode": "error"}]},
            {"rules": [{"point": "x", "exception": "SystemExit"}]},
            {"rules": [{"point": "x"}]},  # neither latency nor exception
            {"rules": [{"point": "x", "mode": "error"}], "extra": 1},
            {"rules": [{"point": "x", "mode": "error", "typo": 1}]},
            {"rules": [{"point": "x", "mode": "error", "count": 0}]},
            {"seed": "nope", "rules": [{"point": "x", "mode": "error"}]},
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            if isinstance(spec, str):
                FaultPlan.from_text(spec)
            else:
                FaultPlan.from_spec(spec)

    def test_from_text_inline_and_file(self, tmp_path):
        spec = '{"rules": [{"point": "worker.run", "mode": "latency", "latency_s": 0.01}]}'
        assert FaultPlan.from_text(spec).rules[0].point == "worker.run"
        path = tmp_path / "plan.json"
        path.write_text(spec)
        assert FaultPlan.from_text(str(path)).rules[0].point == "worker.run"
        assert FaultPlan.from_text(f"@{path}").rules[0].point == "worker.run"

    def test_env_plan_is_loaded_lazily(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            '{"rules": [{"point": "never.matched", "mode": "error"}]}',
        )
        clear_plan()  # forget the resolved (empty) plan so the env is re-read
        plan = get_plan()
        assert plan is not None and plan.rules[0].point == "never.matched"

    def test_injection_points_documented(self):
        # Every point wired into the stack must be discoverable by name.
        assert {
            "journal.append", "worker.run", "client.request",
            "server.request", "cache.disk_write",
        } <= set(INJECTION_POINTS)


class TestMaybeFail:
    def test_no_plan_is_a_no_op(self):
        maybe_fail("worker.run")  # must not raise

    def test_certain_rule_raises_chosen_exception(self):
        install_plan(FaultPlan.from_spec(
            [{"point": "worker.run", "exception": "ConnectionResetError"}]
        ))
        with pytest.raises(ConnectionResetError, match="chaos"):
            maybe_fail("worker.run")
        maybe_fail("journal.append")  # other points untouched

    def test_pattern_rules_match_by_fnmatch(self):
        install_plan(FaultPlan.from_spec([{"point": "client.*", "mode": "error"}]))
        with pytest.raises(OSError):
            maybe_fail("client.request")
        maybe_fail("server.request")

    def test_skip_and_count_gate_firing(self):
        install_plan(FaultPlan.from_spec(
            [{"point": "p", "mode": "error", "skip": 2, "count": 1}]
        ))
        maybe_fail("p")  # skipped
        maybe_fail("p")  # skipped
        with pytest.raises(OSError):
            maybe_fail("p")  # fires (the single allowed count)
        maybe_fail("p")  # exhausted

    def test_probability_is_deterministic_under_a_seed(self):
        def firing_pattern():
            install_plan(FaultPlan.from_spec(
                {"seed": 42,
                 "rules": [{"point": "p", "probability": 0.5, "mode": "error"}]}
            ))
            pattern = []
            for _ in range(32):
                try:
                    maybe_fail("p")
                    pattern.append(False)
                except OSError:
                    pattern.append(True)
            return pattern

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_latency_rule_sleeps(self):
        install_plan(FaultPlan.from_spec(
            [{"point": "p", "mode": "latency", "latency_s": 0.05}]
        ))
        start = time.perf_counter()
        maybe_fail("p")
        assert time.perf_counter() - start >= 0.04

    def test_injections_are_counted(self):
        counter = get_metrics().counter(
            "repro_chaos_injections_total", "", ("point", "mode")
        )
        before = counter.value(point="p", mode="error")
        install_plan(FaultPlan.from_spec([{"point": "p", "mode": "error"}]))
        with pytest.raises(OSError):
            maybe_fail("p")
        assert counter.value(point="p", mode="error") == before + 1
        assert get_plan().stats()["fired"] == 1


class TestWorkerPoolInjection:
    def test_worker_run_rule_fails_one_pool_job(self):
        install_plan(FaultPlan.from_spec(
            [{"point": "worker.run", "exception": "ConnectionResetError", "count": 1}]
        ))
        params = {"rows": 8, "cols": 64}
        with WorkerPool(build_default_registry(), max_workers=1) as pool:
            failed = pool.run("prune_tensor", params, timeout=60)
            assert failed.state is JobState.FAILED
            assert "ConnectionResetError" in failed.error
            # The rule is spent and a failure is not cached: the same job reruns.
            again = pool.run("prune_tensor", params, timeout=60)
            assert again.state is JobState.DONE, again.error
            assert not again.cache_hit


# --------------------------------------------------------------------------- #
# ChaosProxy
# --------------------------------------------------------------------------- #


class _UpstreamHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server API
        body = json.dumps({"ok": True, "path": self.path}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - http.server API
        pass


@pytest.fixture()
def upstream():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _UpstreamHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


class TestChaosProxy:
    def test_faultless_proxy_forwards_requests(self, upstream):
        with ChaosProxy(upstream_port=upstream) as proxy:
            status, body = _get(f"{proxy.url}/health")
            assert status == 200 and body == {"ok": True, "path": "/health"}
            assert proxy.stats()["counts"] == {"forwarded": 1}

    def test_forced_reset_breaks_the_connection(self, upstream):
        with ChaosProxy(upstream_port=upstream, reset_p=1.0, seed=1) as proxy:
            with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
                _get(f"{proxy.url}/health")
            assert proxy.stats()["counts"]["reset"] >= 1

    def test_forced_429_carries_retry_after(self, upstream):
        with ChaosProxy(upstream_port=upstream, error_p=1.0, error_status=429,
                        retry_after=2.0) as proxy:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{proxy.url}/health")
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "2"
            assert json.loads(error.read())["retry_after"] == 2.0
            assert proxy.stats()["counts"]["error"] >= 1

    def test_truncated_response_fails_the_read(self, upstream):
        with ChaosProxy(upstream_port=upstream, truncate_p=1.0, seed=3) as proxy:
            with pytest.raises(
                (http.client.HTTPException, urllib.error.URLError,
                 ConnectionError, OSError, json.JSONDecodeError)
            ):
                _get(f"{proxy.url}/health")
            assert proxy.stats()["counts"]["truncate"] >= 1

    def test_added_latency_delays_the_response(self, upstream):
        with ChaosProxy(upstream_port=upstream, latency_p=1.0,
                        latency_s=0.1) as proxy:
            start = time.perf_counter()
            status, _ = _get(f"{proxy.url}/health")
            assert status == 200
            assert time.perf_counter() - start >= 0.08
            assert proxy.stats()["counts"]["latency"] >= 1

    def test_relayed_responses_close_the_connection(self, upstream):
        """One request per proxied connection, even for keep-alive clients:
        each injected fault then lands on a fresh connection."""
        with ChaosProxy(upstream_port=upstream) as proxy:
            conn = http.client.HTTPConnection("127.0.0.1", proxy.port, timeout=10)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                assert response.getheader("Connection") == "close"
                assert json.loads(response.read()) == {"ok": True, "path": "/health"}
            finally:
                conn.close()
            client = ServiceClient(proxy.url, retries=0)
            for _ in range(3):
                assert client.request("GET", "/health")["ok"] is True
            assert client.retry_stats()["total"] == 0
            assert proxy.stats()["counts"] == {"forwarded": 4}

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError, match="reset_p"):
            ChaosProxy(upstream_port=80, reset_p=1.5)


# --------------------------------------------------------------------------- #
# End to end: faults stay invisible in the final artifacts
# --------------------------------------------------------------------------- #


SPEC = {
    "name": "chaos-dispatch",
    "grids": [
        {
            "name": "quant",
            "scenario": "quantize_tensor",
            "params": {"rows": 16, "cols": 64, "backend": "ptq"},
            "sweep": {"bits": [4, 8]},
        },
    ],
}


class TestChaosDispatchEndToEnd:
    def test_report_identical_through_faulty_proxies(self, tmp_path):
        from repro.campaign import parse_spec
        from repro.campaign.dispatch import CampaignDispatcher
        from repro.service import create_server

        servers, proxies, threads = [], [], []
        for index in range(2):
            server = create_server(port=0, max_workers=2)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            proxy = ChaosProxy(
                upstream_port=server.port,
                reset_p=0.15,
                latency_p=0.3,
                latency_s=0.01,
                error_p=0.15,
                error_status=429,
                retry_after=0.02,
                seed=100 + index,
            ).start()
            servers.append(server)
            proxies.append(proxy)
            threads.append(thread)

        def resilient_client(url, **kwargs):
            kwargs.setdefault("retries", 8)
            kwargs.setdefault("backoff", 0.01)
            kwargs.setdefault("timeout", 30.0)
            return ServiceClient(url, **kwargs)

        try:
            clean = CampaignDispatcher(
                parse_spec(SPEC),
                [f"http://127.0.0.1:{server.port}" for server in servers],
                tmp_path / "clean",
                poll_interval=0.02,
                client_factory=resilient_client,
            )
            assert clean.run()["report_written"]

            chaotic = CampaignDispatcher(
                parse_spec(SPEC),
                [proxy.url for proxy in proxies],
                tmp_path / "chaotic",
                poll_interval=0.02,
                client_factory=resilient_client,
            )
            stats = chaotic.run()
        finally:
            for proxy in proxies:
                proxy.stop()
            for server, thread in zip(servers, threads, strict=False):
                server.close()
                thread.join(timeout=10)

        assert stats["report_written"] and stats["failed"] == 0
        injected = sum(
            sum(proxy.stats()["counts"].values()) for proxy in proxies
        )
        assert injected > 0, "the proxies never injected anything"
        assert (tmp_path / "chaotic/report.json").read_bytes() == (
            tmp_path / "clean/report.json"
        ).read_bytes()
        assert (tmp_path / "chaotic/report.csv").read_bytes() == (
            tmp_path / "clean/report.csv"
        ).read_bytes()


class TestChaosCli:
    def test_points_and_plan_validation(self, capsys):
        from repro.cli import main

        assert main(["chaos", "points"]) == 0
        out = capsys.readouterr().out
        assert "journal.append" in out and "worker.run" in out

        spec = '{"rules": [{"point": "worker.run", "mode": "error"}]}'
        assert main(["chaos", "plan", spec, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["rules"][0]["point"] == "worker.run"

        assert main(["chaos", "plan", "{broken"]) == 1
        assert "invalid chaos plan" in capsys.readouterr().err
