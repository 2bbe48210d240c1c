"""Tests for the gateway control plane: ring, registry, quotas, replication,
and the HTTP front door (routing affinity, auth, failover bookkeeping).

The full kill-a-node-mid-campaign path lives in ``test_gateway_e2e.py``;
this file covers each gateway component in isolation plus the in-process
HTTP surface.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.gateway import (
    GatewayAgent,
    HashRing,
    NodeRegistry,
    QuotaExceeded,
    RegistrySkewError,
    ReplicaStore,
    Tenant,
    TenantQuotas,
    UnknownKeyError,
    UnknownNodeError,
    create_gateway,
)
from repro.gateway.registry import compute_registry_digest, node_id_for_url
from repro.service import create_server
from repro.service.client import ServiceClient, ServiceRequestError
from repro.service.journal import checksummed_line
from repro.service.registry import build_default_registry
from repro.service.workers import job_digest


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------- #


class TestHashRing:
    def test_routes_deterministically(self):
        ring = HashRing()
        for member in ("a", "b", "c"):
            ring.add(member)
        keys = [f"digest-{i}" for i in range(200)]
        first = [ring.route(key) for key in keys]
        assert first == [ring.route(key) for key in keys]
        assert set(first) == {"a", "b", "c"}

    def test_member_loss_remaps_about_one_nth(self):
        ring = HashRing()
        members = [f"node-{i}" for i in range(5)]
        for member in members:
            ring.add(member)
        keys = [f"key-{i}" for i in range(1000)]
        before = {key: ring.route(key) for key in keys}
        ring.remove("node-3")
        after = {key: ring.route(key) for key in keys}
        moved = sum(1 for key in keys if before[key] != after[key])
        displaced = sum(1 for key in keys if before[key] == "node-3")
        # Only the removed member's keys move (consistent hashing's point):
        # everything it owned must move, nothing anyone else owned may.
        assert moved == displaced
        assert 0 < displaced < len(keys) * 2 / 5  # ~1/5, generous bound

    def test_exclusion_walks_clockwise_like_removal(self):
        ring = HashRing()
        for member in ("a", "b", "c"):
            ring.add(member)
        keys = [f"key-{i}" for i in range(300)]
        excluded = {key: ring.route(key, exclude={"b"}) for key in keys}
        ring.remove("b")
        assert excluded == {key: ring.route(key) for key in keys}

    def test_empty_and_fully_excluded_ring_route_none(self):
        ring = HashRing()
        assert ring.route("anything") is None
        ring.add("only")
        assert ring.route("anything", exclude={"only"}) is None


# --------------------------------------------------------------------- #
# Node registry state machine
# --------------------------------------------------------------------- #


class TestNodeRegistry:
    def make(self, clock=None):
        return NodeRegistry(
            "digest-1", suspect_after=3.0, dead_after=10.0,
            clock=clock or FakeClock(),
        )

    def test_register_and_heartbeat(self):
        clock = FakeClock()
        registry = self.make(clock)
        node = registry.register("http://n1:8000", "digest-1")
        assert node.state == "healthy"
        assert node.node_id == node_id_for_url("http://n1:8000")
        clock.advance(1.0)
        registry.heartbeat(node.node_id, queue_depth=4, registry_digest="digest-1")
        assert registry.get(node.node_id).queue_depth == 4
        assert registry.sweep() == []

    def test_registration_refuses_registry_skew(self):
        registry = self.make()
        with pytest.raises(RegistrySkewError):
            registry.register("http://n1:8000", "digest-OTHER")
        assert registry.nodes() == []

    def test_heartbeat_skew_and_unknown(self):
        registry = self.make()
        node = registry.register("http://n1:8000", "digest-1")
        with pytest.raises(RegistrySkewError):
            registry.heartbeat(node.node_id, 0, "digest-OTHER")
        with pytest.raises(UnknownNodeError):
            registry.heartbeat("node-nonexistent", 0, "digest-1")

    def test_missed_heartbeats_suspect_then_dead(self):
        clock = FakeClock()
        registry = self.make(clock)
        node = registry.register("http://n1:8000", "digest-1")
        clock.advance(4.0)  # > suspect_after
        moves = registry.sweep()
        assert [(n.node_id, old, new) for n, old, new in moves] == [
            (node.node_id, "healthy", "suspect")
        ]
        assert registry.healthy_ids() == set()
        clock.advance(7.0)  # total silence > dead_after
        moves = registry.sweep()
        assert [(old, new) for _, old, new in moves] == [("suspect", "dead")]
        # Dead nodes must re-register; their heartbeat is refused.
        with pytest.raises(UnknownNodeError):
            registry.heartbeat(node.node_id, 0, "digest-1")

    def test_heartbeat_revives_suspect(self):
        clock = FakeClock()
        registry = self.make(clock)
        node = registry.register("http://n1:8000", "digest-1")
        clock.advance(4.0)
        registry.sweep()
        assert registry.get(node.node_id).state == "suspect"
        registry.heartbeat(node.node_id, 0, "digest-1")
        assert registry.get(node.node_id).state == "healthy"

    def test_mark_suspect_only_demotes_healthy(self):
        clock = FakeClock()
        registry = self.make(clock)
        node = registry.register("http://n1:8000", "digest-1")
        registry.mark_suspect(node.node_id, "connection refused")
        assert registry.get(node.node_id).state == "suspect"
        clock.advance(11.0)
        registry.sweep()
        registry.mark_suspect(node.node_id, "again")  # no-op on dead
        assert registry.get(node.node_id).state == "dead"

    def test_deregister_marks_left_and_reregistration_revives(self):
        registry = self.make()
        node = registry.register("http://n1:8000", "digest-1")
        registry.deregister(node.node_id)
        assert registry.get(node.node_id).state == "left"
        with pytest.raises(UnknownNodeError):
            registry.heartbeat(node.node_id, 0, "digest-1")
        again = registry.register("http://n1:8000", "digest-1")
        assert again.node_id == node.node_id
        assert again.state == "healthy"

    def test_invalid_node_id_rejected(self):
        registry = self.make()
        with pytest.raises(ValueError, match="invalid node id"):
            registry.register("http://n1:8000", "digest-1", node_id="../evil")

    def test_registry_digest_is_stable(self):
        registry = build_default_registry()
        assert compute_registry_digest(registry) == compute_registry_digest(registry)


# --------------------------------------------------------------------- #
# Tenant quotas
# --------------------------------------------------------------------- #


class TestTenantQuotas:
    def make(self, clock=None, **limits):
        tenant = Tenant(name="ci", key="ck-secret", **limits)
        return TenantQuotas([tenant], clock=clock or FakeClock()), tenant

    def test_bearer_key_resolution(self):
        quotas, tenant = self.make()
        assert quotas.tenant_for("Bearer ck-secret") is tenant
        for bad in (None, "", "Basic ck-secret", "Bearer", "Bearer nope"):
            with pytest.raises(UnknownKeyError):
                quotas.tenant_for(bad)

    def test_rate_bucket_refuses_then_refills(self):
        clock = FakeClock()
        quotas, tenant = self.make(clock, rate=2.0, burst=2.0)
        quotas.admit(tenant)
        quotas.admit(tenant)
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.admit(tenant)
        assert excinfo.value.reason == "rate"
        assert 0 < excinfo.value.retry_after <= 0.5
        clock.advance(0.5)  # refills one token at 2 req/s
        quotas.admit(tenant)

    def test_inflight_cap_and_idempotent_slots(self):
        quotas, tenant = self.make(max_inflight=2)
        quotas.acquire(tenant, "digest-a")
        quotas.acquire(tenant, "digest-a")  # same job: no extra slot
        quotas.acquire(tenant, "digest-b")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.acquire(tenant, "digest-c")
        assert excinfo.value.reason == "inflight"
        quotas.release("digest-a")
        quotas.release("digest-a")  # idempotent
        quotas.acquire(tenant, "digest-c")
        assert quotas.inflight("ci") == 2

    def test_two_tenants_same_digest_hold_separate_slots(self):
        first = Tenant(name="a", key="k1", max_inflight=1)
        second = Tenant(name="b", key="k2", max_inflight=1)
        quotas = TenantQuotas([first, second], clock=FakeClock())
        quotas.acquire(first, "digest-x")
        # A second tenant submitting the same digest must not deflate the
        # first tenant's accounting — each holds its own slot.
        quotas.acquire(second, "digest-x")
        assert quotas.inflight("a") == 1
        assert quotas.inflight("b") == 1
        with pytest.raises(QuotaExceeded):
            quotas.acquire(second, "digest-y")
        # The shared job reaching a terminal state frees both holders.
        quotas.release("digest-x")
        assert quotas.inflight("a") == 0
        assert quotas.inflight("b") == 0
        quotas.acquire(first, "digest-y")
        quotas.acquire(second, "digest-z")

    def test_unlimited_tenant_never_throttled(self):
        quotas, tenant = self.make()
        for i in range(100):
            quotas.admit(tenant)
            quotas.acquire(tenant, f"digest-{i}")

    def test_duplicate_names_or_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            TenantQuotas([Tenant("a", "k1"), Tenant("a", "k2")])
        with pytest.raises(ValueError, match="duplicate tenant keys"):
            TenantQuotas([Tenant("a", "k"), Tenant("b", "k")])


# --------------------------------------------------------------------- #
# Replica store
# --------------------------------------------------------------------- #


class TestReplicaStore:
    def test_checksummed_lines_accepted_corrupt_rejected(self, tmp_path):
        store = ReplicaStore(tmp_path)
        good = checksummed_line({"event": "submit", "job_id": "j1", "digest": "d1"})
        tampered = good.replace('"j1"', '"j2"')
        report = store.append_lines("node-a", [good, tampered, "not json", ""])
        assert report == {"accepted": 1, "rejected": 3}
        order, merged = store.merged("node-a")
        assert order == ["j1"]
        assert merged["j1"]["submit"]["digest"] == "d1"

    def test_duplicate_submit_never_clears_finish(self, tmp_path):
        store = ReplicaStore(tmp_path)
        store.record_submit("node-a", job_id="j1", type="t", params={}, digest="d1")
        store.append_lines(
            "node-a",
            [
                checksummed_line({"event": "submit", "job_id": "j1", "digest": "d1"}),
                checksummed_line({"event": "done", "job_id": "j1", "digest": "d1"}),
                checksummed_line({"event": "submit", "job_id": "j1", "digest": "d1"}),
            ],
        )
        assert store.unfinished("node-a") == []

    def test_reused_job_id_with_new_digest_is_a_new_job(self, tmp_path):
        # A node without a journal restarts its ids at job-000001 and keeps
        # its node id, so a finished old job and a new one share a replica
        # and an id; only the digest tells them apart.
        store = ReplicaStore(tmp_path)
        store.append_lines(
            "node-a",
            [
                checksummed_line({"event": "submit", "job_id": "job-000001",
                                  "type": "t", "params": {"x": 1}, "digest": "A"}),
                checksummed_line({"event": "done", "job_id": "job-000001", "digest": "A"}),
            ],
        )
        store.record_submit(
            "node-a", job_id="job-000001", type="t", params={"x": 2}, digest="B",
            gateway_id="g2",
        )
        (record,) = store.unfinished("node-a")
        assert record["digest"] == "B" and record["params"] == {"x": 2}
        view = store.job_view("node-a", "job-000001")
        assert view["submit"]["digest"] == "B" and view["finish"] is None
        # A duplicate of the new job's submit keeps it unfinished.
        store.append_lines(
            "node-a",
            [checksummed_line({"event": "submit", "job_id": "job-000001", "digest": "B"})],
        )
        assert [r["gateway_id"] for r in store.unfinished("node-a")] == ["g2"]

    def test_unfinished_lists_submits_without_finish(self, tmp_path):
        store = ReplicaStore(tmp_path)
        store.record_submit("node-a", job_id="j1", type="t", params={"x": 1}, digest="d1")
        store.record_submit("node-a", job_id="j2", type="t", params={"x": 2}, digest="d2")
        store.append_lines(
            "node-a", [checksummed_line({"event": "failed", "job_id": "j2", "error": "boom"})]
        )
        assert [r["job_id"] for r in store.unfinished("node-a")] == ["j1"]
        assert store.job_view("node-a", "j2")["finish"]["event"] == "failed"

    def test_gateway_id_survives_whichever_submit_wins(self, tmp_path):
        store = ReplicaStore(tmp_path)
        # Node-streamed submit (no gateway_id) lands first; the
        # gateway-authored line with the original gateway id arrives later.
        store.append_lines(
            "node-b", [checksummed_line({"event": "submit", "job_id": "j9", "digest": "d9"})]
        )
        store.record_submit(
            "node-b", job_id="j9", type="t", params={}, digest="d9",
            gateway_id="j1@node-a",
        )
        (record,) = store.unfinished("node-b")
        assert record["gateway_id"] == "j1@node-a"

    @pytest.mark.parametrize("seed", range(8))
    def test_streaming_fold_matches_whole_file_fold(self, tmp_path, seed):
        """merged/unfinished/job_view agree with folding the fully loaded
        record list, over random interleavings of submits (some duplicated,
        some carrying a gateway_id), finishes and corrupt lines."""
        import random

        rng = random.Random(seed)
        store = ReplicaStore(tmp_path)
        lines: list[str] = []
        for step in range(150):
            job_id = f"j{rng.randrange(25)}"
            event = rng.choice(["submit", "submit", "done", "failed", "cancelled"])
            fields = {"event": event, "job_id": job_id, "step": step}
            if event == "submit" and rng.random() < 0.3:
                fields["gateway_id"] = f"g{step}"
            lines.append(checksummed_line(fields))
            if rng.random() < 0.05:
                lines.append('{"torn": ')
        for start in range(0, len(lines), 7):
            store.append_lines("node-a", lines[start:start + 7])

        def whole_file_fold():
            merged: dict[str, dict] = {}
            for raw in lines:
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                record.pop("crc32", None)
                job_id, event = record["job_id"], record["event"]
                entry = merged.setdefault(job_id, {"submit": None, "finish": None})
                if event == "submit":
                    if entry["submit"] is None:
                        entry["submit"] = record
                    elif "gateway_id" not in entry["submit"] and "gateway_id" in record:
                        entry["submit"] = {**entry["submit"], "gateway_id": record["gateway_id"]}
                else:
                    entry["finish"] = record
            return merged

        expected = whole_file_fold()
        order, merged = store.merged("node-a")
        assert order == list(expected) and merged == expected
        assert store.unfinished("node-a") == [
            entry["submit"] for entry in expected.values()
            if entry["finish"] is None and entry["submit"] is not None
        ]
        for job_id in [*expected, "never-seen"]:
            assert store.job_view("node-a", job_id) == expected.get(job_id)

    def test_path_traversal_node_ids_refused(self, tmp_path):
        store = ReplicaStore(tmp_path)
        with pytest.raises(ValueError, match="invalid node id"):
            store.append_lines("../escape", [])

    def test_torn_tail_skipped_on_read(self, tmp_path):
        store = ReplicaStore(tmp_path)
        store.record_submit("node-a", job_id="j1", type="t", params={}, digest="d1")
        path = tmp_path / "replicas" / "node-a" / "journal.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "job_id": "j1", "cr')  # torn write
        order, merged = store.merged("node-a")
        assert order == ["j1"]
        assert merged["j1"]["finish"] is None


# --------------------------------------------------------------------- #
# HTTP front door (in-process gateway + nodes)
# --------------------------------------------------------------------- #

QUANT = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32}}


@pytest.fixture(scope="module")
def fabric():
    """A gateway fronting two registered nodes, all in-process."""
    gateway = create_gateway(
        port=0, suspect_after=1.5, dead_after=30.0, sweep_interval=0.2
    )
    threading.Thread(target=gateway.serve_forever, daemon=True).start()
    gateway_url = f"http://127.0.0.1:{gateway.port}"
    servers, agents = [], []
    for _ in range(2):
        server = create_server(port=0, max_workers=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        agent = GatewayAgent(
            gateway_url, f"http://127.0.0.1:{server.port}", server,
            heartbeat_interval=0.2,
        )
        agent.start()
        servers.append(server)
        agents.append(agent)
    yield gateway, gateway_url, servers, agents
    for agent in agents:
        agent.stop()
    for server in servers:
        server.close()
    gateway.close()


def wait_done(client: ServiceClient, gid: str, attempts: int = 400) -> dict:
    import time

    for _ in range(attempts):
        record = client.request("GET", f"/v1/jobs/{gid}")
        if record["state"] in ("done", "failed", "cancelled"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {gid} never finished: {record}")


class TestGatewayFrontDoor:
    def test_health_and_probe_surface(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=10.0)
        health = client.health()
        assert health["role"] == "gateway"
        assert health["nodes"]["healthy"] == 2
        assert client.request("GET", "/v1/healthz") == {"status": "alive"}
        assert client.request("GET", "/v1/readyz") == {"ready": True}
        # The dispatcher's probe path: scenarios + codecs from the gateway.
        assert any(s["name"] == "quantize_tensor" for s in client.scenarios())
        assert client.codecs()

    def test_routes_by_digest_and_second_submit_hits_same_cache(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        first = client.request("POST", "/v1/jobs", QUANT)
        assert first["job_id"].endswith("@" + first["node"])
        done = wait_done(client, first["job_id"])
        assert done["state"] == "done"
        second = client.request("POST", "/v1/jobs", QUANT)
        assert second["node"] == first["node"]
        assert second["cache_hit"] is True
        assert second["digest"] == first["digest"]

    def test_gateway_digest_matches_node_digest(self, fabric):
        gateway, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        record = client.request("POST", "/v1/jobs", QUANT)
        registry = build_default_registry()
        declared = registry.get("quantize_tensor")
        expected = job_digest(
            "quantize_tensor", {**declared.defaults, **QUANT["params"]}
        )
        assert record["digest"] == expected

    def test_submission_recorded_in_replica_journal(self, fabric):
        gateway, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        body = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32, "seed": 7}}
        record = client.request("POST", "/v1/jobs", body)
        rid, _, node_id = record["job_id"].rpartition("@")
        view = gateway.replicas.job_view(node_id, rid)
        assert view is not None
        assert view["submit"]["digest"] == record["digest"]

    def test_unknown_scenario_and_bad_body_are_400(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("POST", "/v1/jobs", {"type": "nope", "params": {}})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("POST", "/v1/jobs", {"type": "quantize_tensor", "bogus": 1})
        assert excinfo.value.status == 400

    def test_malformed_wait_is_400_and_leaves_nodes_healthy(self, fabric):
        # Forwarded unvalidated, "1 2" made an invalid node URL: every node
        # was tried, demoted to suspect, and the caller got a 503.
        gateway, url, _, _ = fabric
        client = ServiceClient(url, timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("POST", "/v1/jobs?wait=1%202", QUANT)
        assert excinfo.value.status == 400
        assert excinfo.value.payload == {"error": "invalid \"wait\" value '1 2'"}
        assert [node.state for node in gateway.nodes.nodes()] == ["healthy", "healthy"]

    def test_jobs_listing_fans_out_with_digest_filter(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        record = client.request("POST", "/v1/jobs", QUANT)
        wait_done(client, record["job_id"])
        listing = client.jobs(digest=record["digest"])
        assert listing["jobs"], "digest filter found nothing through the gateway"
        for entry in listing["jobs"]:
            assert entry["digest"] == record["digest"]
            assert "@" in entry["job_id"]

    def test_compress_route_and_campaign_route(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        compressed = client.request(
            "POST", "/v1/compress?wait=30",
            {"codec": "microscaling", "rows": 16, "cols": 32},
        )
        assert compressed["state"] == "done"
        assert "@" in compressed["job_id"]

    def test_cancel_proxies_and_unknown_job_404s(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("GET", "/v1/jobs/job-999@node-000000000000")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("GET", "/v1/jobs/not-a-gateway-id")
        assert excinfo.value.status == 404

    def test_node_registration_rejects_skew(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request(
                "POST", "/v1/nodes",
                {"url": "http://127.0.0.1:1", "registry_digest": "skewed"},
            )
        assert excinfo.value.status == 409

    def test_gateway_nodes_listing(self, fabric):
        _, url, _, agents = fabric
        client = ServiceClient(url, timeout=10.0)
        listing = client.request("GET", "/v1/gateway/nodes")
        listed = {node["node_id"] for node in listing["nodes"]}
        assert {agent.node_id for agent in agents} <= listed

    def test_waited_get_returns_the_result_once_done(self, fabric):
        _, url, _, _ = fabric
        client = ServiceClient(url, timeout=30.0)
        body = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32, "seed": 23}}
        record = client.request("POST", "/v1/jobs", body)
        waited = client.job(record["job_id"], wait=30)
        assert waited["state"] == "done" and waited["job_id"] == record["job_id"]
        assert waited["result"] == client.result(record["job_id"])["result"]
        for bad in ("soon", "nan"):
            with pytest.raises(ServiceRequestError) as excinfo:
                client.request("GET", f"/v1/jobs/{record['job_id']}?wait={bad}")
            assert excinfo.value.status == 400

    def test_journal_replication_streams_node_lines(self, fabric):
        import time

        gateway, url, _, agents = fabric
        client = ServiceClient(url, timeout=30.0)
        body = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32, "seed": 11}}
        record = client.request("POST", "/v1/jobs", body)
        wait_done(client, record["job_id"])
        rid, _, node_id = record["job_id"].rpartition("@")
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            view = gateway.replicas.job_view(node_id, rid)
            if view and view["finish"] is not None:
                break
            time.sleep(0.05)
        # Nodes in this fixture run without --journal, so no lines stream;
        # the gateway-authored submit must exist regardless.
        assert gateway.replicas.job_view(node_id, rid)["submit"] is not None


class TestJobsListingPagination:
    """``GET /v1/jobs`` through the gateway pages the merged listing once."""

    @staticmethod
    def _seed_both_nodes(gateway, url) -> dict:
        client = ServiceClient(url, timeout=30.0)
        owners: set[str] = set()
        for seed in range(40, 80):
            body = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32, "seed": seed}}
            owners.add(client.request("POST", "/v1/jobs", body)["node"])
            if len(owners) == 2:
                break
        assert len(owners) == 2, "the ring never routed to both nodes"
        return client.jobs()

    def test_offset_and_limit_window_the_merged_listing(self, fabric):
        gateway, url, _, _ = fabric
        full = self._seed_both_nodes(gateway, url)
        ids = [record["job_id"] for record in full["jobs"]]
        assert full["total"] == len(ids) >= 2
        assert {record["node"] for record in full["jobs"]} == {
            node.node_id for node in gateway.nodes.nodes()
        }
        client = ServiceClient(url, timeout=30.0)
        page = client.jobs(offset=1, limit=1)
        assert [record["job_id"] for record in page["jobs"]] == ids[1:2]
        assert page["total"] == len(ids)
        tail = client.jobs(offset=len(ids) - 1)
        assert [record["job_id"] for record in tail["jobs"]] == ids[-1:]

    def test_envelope_reports_offset_and_limit(self, fabric):
        gateway, url, _, _ = fabric
        self._seed_both_nodes(gateway, url)
        client = ServiceClient(url, timeout=30.0)
        listing = client.jobs(offset=1, limit=3)
        assert (listing["offset"], listing["limit"]) == (1, 3)
        listing = client.jobs()
        assert (listing["offset"], listing["limit"]) == (0, None)

    @pytest.mark.parametrize("query", ["limit=-1", "offset=-2", "limit=x", "offset=1.5"])
    def test_bad_window_values_are_a_400(self, fabric, query):
        gateway, url, _, _ = fabric
        self._seed_both_nodes(gateway, url)
        client = ServiceClient(url, timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("GET", f"/v1/jobs?{query}")
        assert excinfo.value.status == 400


class TestGatewayQuotas:
    @pytest.fixture()
    def secured(self, tmp_path):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({
            "tenants": [
                {"name": "ci", "key": "ck-1", "rate": 1000.0, "max_inflight": 1},
                {"name": "research", "key": "rk-1"},
            ]
        }))
        gateway = create_gateway(
            port=0, keys_file=str(keys),
            suspect_after=5.0, dead_after=30.0, sweep_interval=0.5,
        )
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{gateway.port}"
        server = create_server(port=0, max_workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        agent = GatewayAgent(
            url, f"http://127.0.0.1:{server.port}", server, heartbeat_interval=0.2
        )
        agent.start()
        yield {
            "gateway": url,
            "node": f"http://127.0.0.1:{server.port}",
            "quotas": gateway.quotas,
        }
        agent.stop()
        server.close()
        gateway.close()

    def test_submission_requires_bearer_key(self, secured):
        client = ServiceClient(secured["gateway"], timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("POST", "/v1/jobs", QUANT)
        assert excinfo.value.status == 401
        # Reads stay open: health and polls carry no tenant cost.
        assert client.health()["role"] == "gateway"

    def test_wrong_key_401_and_good_key_routes(self, secured):
        bad = ServiceClient(secured["gateway"], timeout=10.0, retries=0, api_key="nope")
        with pytest.raises(ServiceRequestError) as excinfo:
            bad.request("POST", "/v1/jobs", QUANT)
        assert excinfo.value.status == 401
        good = ServiceClient(secured["gateway"], timeout=30.0, api_key="rk-1")
        record = good.request("POST", "/v1/jobs", QUANT)
        assert "@" in record["job_id"]
        wait_done(good, record["job_id"])

    @staticmethod
    def _occupy_worker(node_url: str) -> str:
        """Park a slow direct job on the node's only worker so the next
        gateway submission stays queued (not done-at-submit, which would
        release its in-flight slot immediately)."""
        direct = ServiceClient(node_url, timeout=30.0)
        blocker = direct.submit(
            "quantize_tensor", {"rows": 2048, "cols": 2048, "seed": 99}
        )
        return blocker["job_id"]

    def test_inflight_quota_429_with_retry_after(self, secured):
        import urllib.error
        import urllib.request

        self._occupy_worker(secured["node"])
        client = ServiceClient(secured["gateway"], timeout=30.0, retries=0, api_key="ck-1")
        first = client.request(
            "POST", "/v1/jobs",
            {"type": "quantize_tensor", "params": {"rows": 64, "cols": 256, "seed": 21}},
        )
        assert first["state"] == "queued"
        # Raw request: assert the 429 envelope itself (the client would
        # translate it into ServiceUnavailable(saturated=True)).
        request = urllib.request.Request(
            secured["gateway"] + "/v1/jobs",
            data=json.dumps(
                {"type": "quantize_tensor", "params": {"rows": 64, "cols": 256, "seed": 22}}
            ).encode(),
            headers={"Content-Type": "application/json", "Authorization": "Bearer ck-1"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        body = json.loads(excinfo.value.read())
        assert body["reason"] == "inflight"
        assert body["tenant"] == "ci"
        # The slot frees once the gateway observes the job finish.
        wait_done(client, first["job_id"])
        client.request(
            "POST", "/v1/jobs",
            {"type": "quantize_tensor", "params": {"rows": 64, "cols": 256, "seed": 22}},
        )

    def test_cancel_requires_bearer_key(self, secured):
        self._occupy_worker(secured["node"])
        good = ServiceClient(secured["gateway"], timeout=30.0, retries=0, api_key="rk-1")
        queued = good.request(
            "POST", "/v1/jobs",
            {"type": "quantize_tensor", "params": {"rows": 64, "cols": 256, "seed": 41}},
        )
        # Cancelling releases a quota slot, so anonymous callers must not
        # be able to cancel (and so free) another tenant's job.
        anonymous = ServiceClient(secured["gateway"], timeout=10.0, retries=0)
        with pytest.raises(ServiceRequestError) as excinfo:
            anonymous.request("POST", f"/v1/jobs/{queued['job_id']}/cancel", {})
        assert excinfo.value.status == 401
        record = good.request("POST", f"/v1/jobs/{queued['job_id']}/cancel", {})
        assert record["job_id"] == queued["job_id"]
        assert record["state"] in ("cancelled", "running", "done")

    def test_malformed_wait_holds_no_quota_slot(self, secured):
        client = ServiceClient(secured["gateway"], timeout=10.0, retries=0, api_key="ck-1")
        with pytest.raises(ServiceRequestError) as excinfo:
            client.request("POST", "/v1/jobs?wait=1%202", QUANT)
        assert excinfo.value.status == 400
        assert secured["quotas"].inflight("ci") == 0

    def test_resubmitting_same_digest_costs_no_extra_slot(self, secured):
        self._occupy_worker(secured["node"])
        client = ServiceClient(secured["gateway"], timeout=30.0, retries=0, api_key="ck-1")
        body = {"type": "quantize_tensor", "params": {"rows": 64, "cols": 256, "seed": 23}}
        first = client.request("POST", "/v1/jobs", body)
        # max_inflight=1 — a second POST of the *same* work must not 429.
        again = client.request("POST", "/v1/jobs", body)
        assert again["digest"] == first["digest"]
        wait_done(client, first["job_id"])


# --------------------------------------------------------------------- #
# Failover resurrection semantics (suspect vs dead, chained node deaths)
# --------------------------------------------------------------------- #


class TestFailoverResurrection:
    @pytest.fixture()
    def plane(self):
        """A gateway over two real nodes admitted *without* heartbeat
        agents, so the test drives node health states directly (an agent
        would re-register a node the test just declared dead)."""
        gateway = create_gateway(
            port=0, suspect_after=60.0, dead_after=120.0, sweep_interval=60.0
        )
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{gateway.port}"
        servers = []
        try:
            for _ in range(2):
                server = create_server(port=0, max_workers=2)
                threading.Thread(target=server.serve_forever, daemon=True).start()
                gateway.admit_node(
                    f"http://127.0.0.1:{server.port}", gateway.registry_digest
                )
                servers.append(server)
            yield gateway, url
        finally:
            for server in servers:
                server.close()
            gateway.close()

    @staticmethod
    def _ghost_submit(gateway, rid: str = "j-lost") -> str:
        """Record a replica submit for a job owned by a registered node
        that was never reachable (it "died" holding the job); returns the
        gateway job id a client would be polling."""
        body = {"type": "quantize_tensor", "params": {"rows": 16, "cols": 32, "seed": 77}}
        job_type, params, digest, _ = gateway.canonicalize("/v1/jobs", body)
        gateway.nodes.register(
            "http://127.0.0.1:9", gateway.registry_digest, node_id="node-ghost"
        )
        gateway.note_submission("node-ghost", rid, job_type, params, digest, None)
        return f"{rid}@node-ghost"

    def test_suspect_node_poll_never_resubmits(self, plane):
        gateway, url = plane
        gid = self._ghost_submit(gateway)
        client = ServiceClient(url, timeout=10.0, retries=0)
        # The unreachable poll demotes the node to suspect and answers a
        # synthetic queued — but its in-flight job must be left alone (the
        # node may merely be slow); only the dead transition may replay it.
        record = client.request("GET", f"/v1/jobs/{gid}")
        assert record["state"] == "queued"
        assert gateway.nodes.get("node-ghost").state == "suspect"
        assert gid not in gateway._failover
        record = client.request("GET", f"/v1/jobs/{gid}")
        assert record["state"] == "queued"
        assert gid not in gateway._failover
        gateway.nodes.get("node-ghost").state = "dead"
        record = client.request("GET", f"/v1/jobs/{gid}")
        assert record["job_id"] == gid
        assert gid in gateway._failover

    def test_failover_closes_the_nodes_replica_handle(self, plane):
        gateway, _url = plane
        gid = self._ghost_submit(gateway)
        handle = gateway.replicas._handles["node-ghost"]
        gateway.nodes.get("node-ghost").state = "dead"
        assert gateway._failover_node("node-ghost")["replayed"] == 1
        assert "node-ghost" not in gateway.replicas._handles
        assert handle.closed
        # A later write (the node came back) reopens the replica.
        gateway.note_submission("node-ghost", "j-back", "t", {}, "d", None)
        assert not gateway.replicas._handles["node-ghost"].closed
        assert gateway.replicas.job_view("node-ghost", "j-back") is not None
        assert gateway.replicas.job_view("node-ghost", "j-lost") is not None
        assert gid in gateway._failover

    def test_chained_failover_rehomes_after_second_death(self, plane):
        gateway, url = plane
        gid = self._ghost_submit(gateway)
        gateway.nodes.get("node-ghost").state = "dead"
        outcomes = gateway._failover_node("node-ghost")
        assert outcomes["replayed"] == 1
        first_target, _ = gateway._failover[gid]
        # The replacement dies too (its replica still lists the re-homed
        # job as unfinished — these nodes stream no journal lines): the
        # mapping is stale and the job must re-home again, not be skipped
        # as already handled.
        gateway.nodes.get(first_target).state = "dead"
        outcomes = gateway._failover_node(first_target)
        assert outcomes["replayed"] >= 1
        second_target, _ = gateway._failover[gid]
        assert second_target != first_target
        # Polls follow the live replacement instead of wedging forever on
        # synthetic queued answers resolved against the dead first target.
        record = wait_done(ServiceClient(url, timeout=10.0), gid)
        assert record["state"] == "done"
        assert record["job_id"] == gid


def _raw_get(url: str) -> tuple[int, dict]:
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestReadyz:
    def test_gateway_readyz_tracks_fleet_and_drain(self):
        gateway = create_gateway(
            port=0, suspect_after=5.0, dead_after=30.0, sweep_interval=0.5
        )
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{gateway.port}"
        try:
            status, body = _raw_get(url + "/v1/readyz")
            assert (status, body["reason"]) == (503, "no healthy nodes registered")
            assert _raw_get(url + "/v1/healthz") == (200, {"status": "alive"})
            server = create_server(port=0, max_workers=1)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            agent = GatewayAgent(
                url, f"http://127.0.0.1:{server.port}", server,
                heartbeat_interval=0.2,
            )
            agent.start()
            try:
                assert _raw_get(url + "/v1/readyz") == (200, {"ready": True})
                gateway.begin_drain()
                status, body = _raw_get(url + "/v1/readyz")
                assert (status, body["reason"]) == (503, "draining")
            finally:
                agent.stop()
                server.close()
        finally:
            gateway.close()

    def test_node_readyz_and_drain_signal(self):
        server = create_server(port=0, max_workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            assert _raw_get(url + "/v1/healthz") == (200, {"status": "alive"})
            status, body = _raw_get(url + "/v1/readyz")
            assert (status, body) == (200, {"ready": True})
            server.begin_drain()
            status, body = _raw_get(url + "/v1/readyz")
            assert status == 503
            assert body["reason"] == "draining"
        finally:
            server.close()


# --------------------------------------------------------------------- #
# Static members: admitted from /v1/health, probed on /v1/readyz
# --------------------------------------------------------------------- #


class TestStaticMembers:
    @pytest.fixture()
    def gateway(self):
        # The sweeper thread idles (60 s): each test drives the probes and
        # the timeout sweep itself.
        gateway = create_gateway(
            port=0, suspect_after=0.2, dead_after=0.4, sweep_interval=60.0
        )
        yield gateway
        gateway.close()

    @staticmethod
    def _node(registry=None):
        server = create_server(port=0, max_workers=1, registry=registry)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return server, f"http://127.0.0.1:{server.port}"

    def test_admitted_with_the_health_digest(self, gateway):
        server, url = self._node()
        try:
            assert ServiceClient(url).health()["registry_digest"] == gateway.registry_digest
            node = gateway.admit_static(url, ServiceClient(url, retries=0))
            assert gateway.nodes.get(node.node_id).state == "healthy"
            assert gateway.route_digest("any-digest") == node.node_id
        finally:
            server.close()

    def test_failed_probes_turn_a_member_suspect_then_dead(self, gateway):
        import time

        server, url = self._node()
        node = gateway.admit_static(url, ServiceClient(url, retries=0))
        server.close()
        gateway.probe_static()
        member = gateway.nodes.get(node.node_id)
        assert member.state == "suspect"
        assert member.reason.startswith("readyz probe failed:")
        time.sleep(0.45)
        gateway.probe_static()
        moves = gateway.nodes.sweep()
        assert [(moved.node_id, old, new) for moved, old, new in moves] == [
            (node.node_id, "suspect", "dead")
        ]
        assert "readyz probe failed" in gateway.nodes.get(node.node_id).reason

    def test_suspect_member_answering_its_probe_is_healthy_again(self, gateway):
        server, url = self._node()
        try:
            node = gateway.admit_static(url, ServiceClient(url, retries=0))
            server.ready = False  # readyz answers 503 "replaying journal"
            gateway.probe_static()
            assert gateway.nodes.get(node.node_id).state == "suspect"
            server.ready = True
            gateway.probe_static()
            member = gateway.nodes.get(node.node_id)
            assert (member.state, member.reason) == ("healthy", "")
        finally:
            server.close()

    def test_node_from_another_registry_is_refused_at_admission(self, gateway):
        from repro.service.registry import JobType

        skewed = build_default_registry()
        skewed.register(JobType("skew_only", "exists on this node only", lambda: 0))
        server, url = self._node(registry=skewed)
        try:
            with pytest.raises(RegistrySkewError, match="registry digest mismatch"):
                gateway.admit_static(url, ServiceClient(url, retries=0))
        finally:
            server.close()
        assert gateway.nodes.nodes() == []

    def test_unreachable_node_is_not_admitted(self, gateway):
        from repro.service.client import ServiceUnavailable

        url = "http://127.0.0.1:1"
        with pytest.raises(ServiceUnavailable):
            gateway.admit_static(url, ServiceClient(url, retries=0))
        assert gateway.nodes.nodes() == []


# --------------------------------------------------------------------- #
# Client reconcile-on-retry (the double-submit bugfix)
# --------------------------------------------------------------------- #


class TestSubmitReconciliation:
    def test_retry_reconciles_by_digest_instead_of_reposting(self):
        """A submit whose response is lost must not double-submit on retry.

        A real node accepts the POST, but the stub truncates the response
        so the client sees a transport error; the retry's reconcile hook
        finds the accepted job via ``GET /v1/jobs?digest=`` and adopts it
        without a second POST.
        """
        import http.client

        server = create_server(port=0, max_workers=1)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            client = ServiceClient(url, timeout=10.0, retries=2, backoff=0.01)
            posts = {"count": 0}
            original_getresponse = http.client.HTTPConnection.getresponse

            def flaky_getresponse(conn):
                response = original_getresponse(conn)
                # Only this test's client POSTs to this node: the submit.
                if conn.port == server.port and conn._method == "POST":
                    posts["count"] += 1
                    if posts["count"] == 1:
                        # The POST was delivered; lose the response.
                        response.read()
                        raise http.client.IncompleteRead(b"")
                return response

            http.client.HTTPConnection.getresponse = flaky_getresponse
            try:
                record = client.submit(
                    "quantize_tensor", {"rows": 16, "cols": 32, "seed": 31}
                )
            finally:
                http.client.HTTPConnection.getresponse = original_getresponse
            assert posts["count"] == 1, "retry re-POSTed despite the job landing"
            assert client.reconciliations == 1
            assert record["state"] in ("queued", "running", "done")
            assert client.retry_stats()["reconciliations"] == 1
            listing = client.jobs(digest=record["digest"])
            assert listing["total"] == 1, "double submit reached the node"
        finally:
            server.close()


class TestWaitedRequestsOutlastNodeTimeout:
    def test_slow_job_is_done_without_a_node_client_retry(self):
        """A waited request is forwarded with the node timeout plus the wait.

        Under the bare ``node_timeout`` the node's bounded block read as a
        network failure: the answer came back ``running`` after a retry.
        """
        import time

        registry = build_default_registry()

        def nap(seconds=0.0):
            time.sleep(seconds)
            return {"slept": seconds}

        registry.add("nap", "sleep, then answer", nap, {"seconds": 0.0})
        gateway = create_gateway(
            port=0, registry=registry, node_timeout=0.3,
            suspect_after=30.0, dead_after=60.0,
        )
        threading.Thread(target=gateway.serve_forever, daemon=True).start()
        server = create_server(port=0, max_workers=1, registry=registry)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{gateway.port}"
        agent = GatewayAgent(url, f"http://127.0.0.1:{server.port}", server)
        agent.start()
        try:
            client = ServiceClient(url, timeout=10.0)
            posted = client.request(
                "POST", "/v1/jobs?wait=30", {"type": "nap", "params": {"seconds": 0.8}}
            )
            assert posted["state"] == "done" and posted["result"] == {"slept": 0.8}
            queued = client.request(
                "POST", "/v1/jobs", {"type": "nap", "params": {"seconds": 0.81}}
            )
            waited = client.job(queued["job_id"], wait=30)
            assert waited["state"] == "done" and waited["result"] == {"slept": 0.81}
            node_client = gateway.node_client(agent.node_id)
            assert node_client.retry_stats()["total"] == 0
        finally:
            agent.stop()
            server.close()
            gateway.close()


class TestAgentFlushChunks:
    """``GatewayAgent.flush`` ships bounded chunks and requeues the unsent."""

    class Recorder:
        """Stands in for the agent's gateway client; fails journal POST
        number ``fail_at`` (1-based) with ``error``."""

        def __init__(self, fail_at=None, error=None):
            self.fail_at, self.error = fail_at, error
            self.chunks: list[list[str]] = []
            self.posts = 0
            self.registrations = 0

        def request(self, method, path, payload=None, **kwargs):
            if path == "/v1/nodes":
                self.registrations += 1
                return {}
            self.posts += 1
            if self.posts == self.fail_at:
                raise self.error
            self.chunks.append(payload["lines"])
            return {}

    def agent_with(self, recorder, lines):
        from types import SimpleNamespace

        agent = GatewayAgent(
            "http://gateway.invalid", "http://node.invalid",
            SimpleNamespace(registry=build_default_registry()),
        )
        agent.client = recorder
        for line in lines:
            agent._enqueue(line)
        return agent

    def test_flush_sends_bounded_chunks_in_order(self):
        from repro.gateway.agent import _FLUSH_CHUNK_LINES

        lines = [f"line-{i}" for i in range(2 * _FLUSH_CHUNK_LINES + 5)]
        recorder = self.Recorder()
        agent = self.agent_with(recorder, lines)
        agent.flush()
        assert [len(chunk) for chunk in recorder.chunks] == [
            _FLUSH_CHUNK_LINES, _FLUSH_CHUNK_LINES, 5
        ]
        assert sum(recorder.chunks, []) == lines
        assert agent.pending_lines() == 0

    @pytest.mark.parametrize("status", [None, 404])
    def test_failure_part_way_requeues_the_unsent_lines_in_order(self, status):
        from repro.gateway.agent import _FLUSH_CHUNK_LINES
        from repro.service.client import ServiceUnavailable

        error = (
            ServiceUnavailable("http://gateway.invalid", 2, "refused")
            if status is None
            else ServiceRequestError(status, {"error": "unknown node"}, "x")
        )
        lines = [f"line-{i}" for i in range(3 * _FLUSH_CHUNK_LINES)]
        recorder = self.Recorder(fail_at=2, error=error)
        agent = self.agent_with(recorder, lines)
        agent.flush()
        assert recorder.chunks == [lines[:_FLUSH_CHUNK_LINES]]
        assert recorder.posts == 2, "the flush stops at the failed chunk"
        assert agent.flush_failures == 1 and agent.dropped_lines == 0
        assert recorder.registrations == (1 if status == 404 else 0)
        agent._enqueue("later")  # journaled while the gateway was away
        agent.flush()
        assert sum(recorder.chunks, []) == [*lines, "later"]
        assert agent.pending_lines() == 0

    def test_refused_chunk_is_dropped_and_the_rest_still_sent(self):
        from repro.gateway.agent import _FLUSH_CHUNK_LINES

        lines = [f"line-{i}" for i in range(2 * _FLUSH_CHUNK_LINES + 1)]
        recorder = self.Recorder(
            fail_at=1, error=ServiceRequestError(400, {"error": "bad lines"}, "x")
        )
        agent = self.agent_with(recorder, lines)
        agent.flush()
        assert sum(recorder.chunks, []) == lines[_FLUSH_CHUNK_LINES:]
        assert agent.dropped_lines == _FLUSH_CHUNK_LINES
        assert agent.pending_lines() == 0


class TestNeverServedClose:
    def test_gateway_close_before_serve_forever_returns(self):
        # shutdown() waits on an event only serve_forever() sets on exit;
        # a gateway closed before ever serving must not hang.
        gateway = create_gateway(port=0)
        done = threading.Event()

        def close():
            gateway.close()
            done.set()

        threading.Thread(target=close, daemon=True).start()
        assert done.wait(10), "close() hung on a gateway that never served"
