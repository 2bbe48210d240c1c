"""Tests for the composable Codec API and its versioned service surface.

Covers the invariants every registered codec must satisfy (round trip,
finite uniform metrics, cross-process digest stability), the pipeline codec,
the campaign ``codec:``/``pipeline:`` sugar end-to-end, the ``/v1`` HTTP
routes (unprefixed paths answer 404), and the API-surface guard.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import codecs
from repro.campaign import parse_spec, run_campaign
from repro.codecs import (
    Codec,
    CodecError,
    CompressionResult,
    register_codec,
    run_codec,
    unregister_codec,
)
from repro.service import ResultCache, build_default_registry, create_server

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every registered codec that compresses directly (pipeline is composed).
DIRECT_CODECS = [name for name in codecs.codec_names() if name != "pipeline"]


def float_tensor(rows: int = 24, cols: int = 64, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(rows, cols))


def int8_tensor(rows: int = 24, cols: int = 64, seed: int = 7) -> np.ndarray:
    values = np.round(np.random.default_rng(seed).normal(0.0, 24.0, size=(rows, cols)))
    return np.clip(values, -127, 127).astype(np.int64)


class TestCodecInvariants:
    """The contract every registered codec must honour."""

    @pytest.mark.parametrize("name", DIRECT_CODECS)
    def test_float_round_trip_and_finite_metrics(self, name):
        tensor = float_tensor()
        result = run_codec(name, tensor)

        assert isinstance(result, CompressionResult)
        assert result.codec == name and result.version
        assert result.values.shape == tensor.shape
        assert np.isfinite(result.mse())
        assert 0.0 < result.effective_bits() <= 64.0
        assert result.storage_bits > 0
        scalars = result.scalars()
        assert set(scalars) >= {"mse", "effective_bits", "storage_bits"}
        assert all(np.isfinite(v) for v in scalars.values())

        decoded = codecs.get_codec(name).decompress(result)
        assert decoded.shape == tensor.shape
        assert np.allclose(np.asarray(decoded, dtype=np.float64),
                           np.asarray(result.values, dtype=np.float64))

    @pytest.mark.parametrize("name", DIRECT_CODECS)
    def test_integer_input_accepted(self, name):
        result = run_codec(name, int8_tensor())
        assert result.values.shape == (24, 64)
        assert np.isfinite(result.mse())

    @pytest.mark.parametrize("name", DIRECT_CODECS)
    def test_digest_deterministic_within_process(self, name):
        tensor = float_tensor()
        assert run_codec(name, tensor).digest() == run_codec(name, tensor).digest()

    @pytest.mark.parametrize("name", DIRECT_CODECS)
    def test_unknown_params_rejected(self, name):
        with pytest.raises(CodecError, match="typo_param"):
            run_codec(name, float_tensor(), {"typo_param": 1})

    def test_unknown_codec_rejected(self):
        with pytest.raises(CodecError, match="no_such_codec"):
            run_codec("no_such_codec", float_tensor())

    def test_bad_tensor_shapes_rejected(self):
        with pytest.raises(CodecError):
            run_codec("ptq", np.zeros(8))
        with pytest.raises(CodecError):
            run_codec("ptq", np.zeros((0, 4)))

    def test_ptq_reconstructs_wide_integer_inputs_at_magnitude(self):
        # Integer inputs wider than int8 must reconstruct at their real
        # magnitude (per-channel scales carry it), not be crushed to ±127.
        tensor = np.array([[1000, -1000, 500, -500]], dtype=np.int64)
        result = run_codec("ptq", tensor, {"bits": 8})
        assert result.values.max() > 900 and result.values.min() < -900
        assert result.mse() < 100.0  # 8-bit quantization error, not clipping
        decoded = codecs.get_codec("ptq").decompress(result)
        assert np.array_equal(decoded, result.values)

    def test_bitplane_is_lossless_on_integer_input(self):
        tensor = int8_tensor()
        result = run_codec("bitplane", tensor)
        assert result.mse() == 0.0
        assert np.array_equal(result.values, tensor)
        assert result.storage_bits < tensor.size * 8  # it actually compresses
        decoded = codecs.get_codec("bitplane").decompress(result)
        assert np.array_equal(decoded, tensor)

    def test_digests_stable_across_processes(self):
        """The provenance digest is content-addressed, not id/repr-addressed."""
        script = (
            "import json, numpy as np\n"
            "from repro.codecs import run_codec, codec_names\n"
            "t = np.random.default_rng(7).normal(0.0, 1.0, size=(24, 64))\n"
            "print(json.dumps({n: run_codec(n, t).digest()\n"
            "                  for n in codec_names() if n != 'pipeline'}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        remote = json.loads(out.stdout)
        tensor = float_tensor()
        local = {name: run_codec(name, tensor).digest() for name in DIRECT_CODECS}
        assert remote == local


class TestBitflipCodec:
    @pytest.mark.parametrize("num_columns", [8, -1])
    def test_out_of_range_column_count_is_rejected(self, num_columns):
        # Pruning 8 columns of an 8-bit word used to zero the whole tensor.
        with pytest.raises(ValueError, match="num_columns must be in"):
            run_codec("bitflip", int8_tensor(), {"num_columns": num_columns})

    def test_largest_column_count_still_stores_the_sign_column(self):
        tensor = int8_tensor()
        result = run_codec("bitflip", tensor, {"num_columns": 7})
        # Every group keeps its sign column (1 bit per weight) + 8 metadata bits.
        assert result.storage_bits == tensor.size // 32 * (32 + 8)


class TestSharedMetricsMixin:
    """The deduplicated scalar surface of the legacy result dataclasses."""

    def test_quant_results_share_the_scalar_surface(self):
        from repro import quant
        from repro.core import PruningStrategy, prune_tensor

        tensor = float_tensor()
        results = [
            quant.ant_quantize(tensor, bits=6),
            quant.microscaling_quantize(tensor),
            quant.noisyquant_quantize(tensor),
            quant.olive_quantize(tensor),
            quant.bitflip_tensor(int8_tensor(), 2),
            prune_tensor(int8_tensor(), 2, PruningStrategy.ZERO_POINT_SHIFT),
        ]
        for result in results:
            scalars = result.scalars()
            assert set(scalars) >= {"mse", "effective_bits"}
            assert scalars["mse"] == pytest.approx(result.mse())
            payload = result.to_jsonable()
            json.dumps(payload, allow_nan=False)

    def test_mixin_mse_matches_legacy_formula(self):
        from repro import quant

        tensor = float_tensor()
        result = quant.olive_quantize(tensor)
        assert result.mse() == pytest.approx(
            float(np.mean((tensor - result.values) ** 2))
        )


class TestPipelineCodec:
    def test_chained_stages_report_per_stage_metrics(self):
        tensor = float_tensor()
        result = run_codec("pipeline", tensor, {"stages": [
            {"codec": "prune", "params": {"num_columns": 2}},
            {"codec": "ptq", "params": {"bits": 6}},
            {"codec": "bitplane"},
        ]})
        assert [stage.codec for stage in result.stages] == ["prune", "ptq", "bitplane"]
        # Cumulative error is measured against the pipeline input and the
        # final stage's cumulative MSE is the pipeline's own MSE.
        assert result.stages[-1].cumulative_mse == pytest.approx(result.mse())
        assert all(np.isfinite(stage.stage_mse) for stage in result.stages)
        # The stored artifact is the final stage's encoding.
        assert result.storage_bits == result.stages[-1].storage_bits

    def test_integer_pipeline_keeps_lossless_final_stage(self):
        # On an integer tensor the whole chain stays in the code domain, so
        # the bitplane stage reconstructs bit-exactly (stage error of 0).
        result = run_codec("pipeline", int8_tensor(), {"stages": [
            {"codec": "prune", "params": {"num_columns": 2}},
            {"codec": "bitplane"},
        ]})
        assert result.stages[-1].stage_mse == 0.0
        assert result.stages[-1].cumulative_mse == pytest.approx(
            result.stages[0].cumulative_mse
        )

    def test_pipeline_validation(self):
        tensor = float_tensor()
        with pytest.raises(CodecError, match="non-empty"):
            run_codec("pipeline", tensor, {"stages": []})
        with pytest.raises(CodecError, match="cannot nest"):
            run_codec("pipeline", tensor, {"stages": [{"codec": "pipeline"}]})
        with pytest.raises(CodecError, match="unknown codec"):
            run_codec("pipeline", tensor, {"stages": [{"codec": "nope"}]})
        with pytest.raises(CodecError, match="unknown parameter"):
            run_codec("pipeline", tensor, {"stages": [{"codec": "ptq", "params": {"x": 1}}]})


class TestThirdPartyRegistration:
    def test_register_and_unregister_a_custom_codec(self):
        @register_codec
        class NullCodec(Codec):
            name = "null_codec_test"
            version = "1"
            summary = "identity codec for tests"
            lossless = True
            defaults = {"bits": 8}

            def compress(self, tensor, **params):
                tensor = np.asarray(tensor)
                return self._result(
                    tensor, tensor.copy(),
                    storage_bits=tensor.size * params["bits"], params=params,
                )

        try:
            assert "null_codec_test" in codecs.codec_names()
            result = run_codec("null_codec_test", float_tensor())
            assert result.mse() == 0.0
        finally:
            unregister_codec("null_codec_test")
        assert "null_codec_test" not in codecs.codec_names()

    def test_duplicate_names_are_rejected(self):
        with pytest.raises(CodecError, match="already registered"):
            @register_codec
            class Impostor(Codec):
                name = "ptq"

                def compress(self, tensor, **params):  # pragma: no cover
                    raise NotImplementedError

    def test_example_custom_codec_runs(self):
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "custom_codec.py")],
            capture_output=True, text=True,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert out.returncode == 0, out.stderr
        assert "topk_sparse" in out.stdout


class TestCodecCompressScenario:
    """The service scenario the campaign engine and /v1/compress submit to."""

    @pytest.fixture(scope="class")
    def registry(self):
        return build_default_registry()

    def test_named_codec_record_shape(self, registry):
        record = registry.run("codec_compress", {
            "codec": "microscaling", "rows": 16, "cols": 64,
            "params": {"bits": 4},
        })
        assert record["codec"] == "microscaling"
        assert record["shape"] == [16, 64]
        assert record["params"]["bits"] == 4
        assert record["metrics"]["mse"] > 0
        assert record["digest"]
        json.dumps(record, allow_nan=False)

    def test_stages_imply_pipeline(self, registry):
        record = registry.run("codec_compress", {
            "rows": 16, "cols": 64,
            "stages": [{"codec": "prune"}, {"codec": "bitplane"}],
        })
        assert record["codec"] == "pipeline"
        assert [stage["codec"] for stage in record["stages"]] == ["prune", "bitplane"]

    def test_quantize_tensor_is_a_thin_codec_dispatch(self, registry):
        """The legacy scenario and the codec agree exactly."""
        record = registry.run("quantize_tensor", {
            "backend": "olive", "rows": 16, "cols": 64, "bits": 4,
        })
        tensor = np.random.default_rng(0).normal(0.0, 1.0, size=(16, 64))
        direct = run_codec("olive", tensor, {"bits": 4})
        assert record["mse"] == pytest.approx(direct.mse())
        assert record["effective_bits"] == pytest.approx(direct.effective_bits())
        assert record["outlier_fraction"] == pytest.approx(
            direct.extras["outlier_fraction"]
        )
        assert record["content_digest"] == direct.digest()

    def test_bad_submissions_fail_loudly(self, registry):
        with pytest.raises(ValueError, match="unknown codec"):
            registry.run("codec_compress", {"codec": "nope"})
        with pytest.raises(ValueError, match="implies the pipeline codec"):
            registry.run("codec_compress", {
                "codec": "ptq", "stages": [{"codec": "prune"}],
            })


class TestCampaignCodecGrids:
    def test_pipeline_grid_runs_end_to_end(self, tmp_path):
        """Acceptance: a chained Pipeline codec through a campaign spec."""
        spec = parse_spec({
            "name": "codec-grids",
            "grids": [
                {
                    "name": "mx",
                    "codec": "microscaling",
                    "params": {"rows": 16, "cols": 64},
                    "sweep": {"bits": [4, 6]},
                },
                {
                    "name": "chain",
                    "pipeline": [
                        {"codec": "prune", "params": {"num_columns": 2}},
                        {"codec": "ptq", "params": {"bits": 6}},
                        {"codec": "bitplane"},
                    ],
                    "params": {"rows": 16, "cols": 64},
                    "sweep": {"seed": [0, 1]},
                    "depends_on": ["mx"],
                },
            ],
        })
        report = run_campaign(spec, run_dir=tmp_path / "run", jobs=2)
        assert report["total_cells"] == 4
        cells = {cell["cell"]: cell for cell in report["cells"]}
        assert cells["chain/0"]["result"]["codec"] == "pipeline"
        stage_codecs = [s["codec"] for s in cells["chain/0"]["result"]["stages"]]
        assert stage_codecs == ["prune", "ptq", "bitplane"]
        assert cells["mx/0"]["result"]["params"]["bits"] == 4
        # Per-cell provenance digests are the codec result digests.
        assert all(cell["result"]["digest"] for cell in report["cells"])

    def test_codec_grids_survive_checkpoint_resume(self, tmp_path):
        """The canonical spec round-trips through spec.json on resume."""
        from repro.campaign import CampaignRunner

        spec = parse_spec({
            "name": "resume-codec",
            "grids": [
                {"name": "g", "codec": "ptq",
                 "params": {"rows": 16, "cols": 64}, "sweep": {"bits": [4, 8]}},
            ],
        })
        runner = CampaignRunner(spec, tmp_path / "run", jobs=1)
        stats = runner.run()
        assert stats["executed"] == 2

        resumed = CampaignRunner.resume(tmp_path / "run", jobs=1)
        stats = resumed.run()
        assert stats["executed"] == 0 and stats["skipped_checkpointed"] == 2

    def test_codec_grid_digests_canonicalize_defaults(self):
        """Sparse and fully spelled-out codec params share one digest."""
        from repro.campaign import expand_spec

        registry = build_default_registry()
        sparse = parse_spec({
            "name": "canon", "grids": [
                {"name": "g", "codec": "ptq", "params": {"bits": 6}},
            ],
        })
        spelled = parse_spec({
            "name": "canon", "grids": [
                {"name": "g", "codec": "ptq",
                 "params": {"bits": 6, "per_channel": True, "calibrate": None}},
            ],
        })
        sparse_jobs = expand_spec(sparse, registry=registry).jobs
        spelled_jobs = expand_spec(spelled, registry=registry).jobs
        assert [j.digest for j in sparse_jobs] == [j.digest for j in spelled_jobs]

    def test_shared_keys_feed_both_tensor_source_and_codec(self):
        """noisyquant's "seed" lives in both namespaces and gets both values."""
        spec = parse_spec({
            "name": "shared-seed", "grids": [
                {"name": "g", "codec": "noisyquant",
                 "params": {"rows": 16, "cols": 64}, "sweep": {"seed": [3, 4]}},
            ],
        })
        (grid,) = spec.grids
        cells = list(grid.cells())
        assert [cell["seed"] for cell in cells] == [3, 4]          # tensor source
        assert [cell["params"]["seed"] for cell in cells] == [3, 4]  # dither seed

    def test_cli_rejects_codec_name_with_stages(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="pipeline"):
            main(["codec", "run", "microscaling",
                  "--stages", '[{"codec": "ptq"}]'])

    def test_codec_typos_fail_at_parse_time(self):
        from repro.campaign import CampaignSpecError

        with pytest.raises(CampaignSpecError, match="unknown codec"):
            parse_spec({"name": "x", "grids": [{"name": "g", "codec": "nope"}]})
        with pytest.raises(CampaignSpecError, match="unknown parameter"):
            parse_spec({"name": "x", "grids": [
                {"name": "g", "codec": "ptq", "sweep": {"typo": [1]}},
            ]})
        with pytest.raises(CampaignSpecError, match="exactly one"):
            parse_spec({"name": "x", "grids": [
                {"name": "g", "codec": "ptq", "scenario": "prune_tensor"},
            ]})
        # Pipelines go through the pipeline: sugar so stage lists are always
        # validated and canonicalized; codec:"pipeline" would bypass both.
        with pytest.raises(CampaignSpecError, match="'pipeline' grid field"):
            parse_spec({"name": "x", "grids": [{"name": "g", "codec": "pipeline"}]})


@pytest.fixture(scope="module")
def server():
    server = create_server(port=0, registry=build_default_registry(),
                           cache=ResultCache(max_entries=32), max_workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def base(server):
    return f"http://127.0.0.1:{server.port}"


def http(base: str, path: str, payload=None, method=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base + path, data=data, method=method or ("POST" if data else "GET"),
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestVersionedHTTPAPI:
    def test_v1_codecs_discovery(self, base):
        status, headers, payload = http(base, "/v1/codecs")
        assert status == 200
        assert "Deprecation" not in headers
        names = {entry["name"] for entry in payload["codecs"]}
        assert {"ant", "bitflip", "bitplane", "microscaling", "noisyquant",
                "olive", "pipeline", "prune", "ptq"} <= names
        ptq = next(e for e in payload["codecs"] if e["name"] == "ptq")
        assert "bits" in ptq["params"] and ptq["version"] == "1"

    def test_v1_scenarios_lists_canonical_defaults(self, base):
        status, headers, payload = http(base, "/v1/scenarios")
        assert status == 200 and "Deprecation" not in headers
        by_name = {entry["name"]: entry for entry in payload["scenarios"]}
        assert "codec_compress" in by_name
        assert by_name["codec_compress"]["params"]["rows"] == 128

    def test_v1_compress_round_trip(self, base):
        status, headers, payload = http(base, "/v1/compress?wait=120", {
            "codec": "microscaling", "params": {"bits": 4},
            "rows": 16, "cols": 64,
        })
        assert status == 200
        assert payload["state"] == "done"
        assert payload["result"]["codec"] == "microscaling"
        assert payload["result"]["metrics"]["effective_bits"] == pytest.approx(4.25)

    def test_v1_compress_pipeline_stages(self, base):
        status, _, payload = http(base, "/v1/compress?wait=120", {
            "stages": [{"codec": "prune"}, {"codec": "bitplane"}],
            "rows": 16, "cols": 64,
        })
        assert status == 200 and payload["state"] == "done"
        assert payload["result"]["codec"] == "pipeline"

    def test_v1_compress_validates_before_submit(self, base):
        before = http(base, "/v1/jobs")[2]["total"]
        assert http(base, "/v1/compress", {"codec": "nope"})[0] == 400
        assert http(base, "/v1/compress", {
            "codec": "ptq", "params": {"typo": 1},
        })[0] == 400
        assert http(base, "/v1/compress", {
            "codec": "ptq", "stages": [{"codec": "prune"}],
        })[0] == 400
        # Stage-level params do not silently vanish: they are a 400.
        assert http(base, "/v1/compress", {
            "stages": [{"codec": "prune"}], "params": {"bits": 4},
        })[0] == 400
        assert http(base, "/v1/compress", {"params": {}})[0] == 400
        assert http(base, "/v1/jobs")[2]["total"] == before

    def test_v1_compress_canonicalizes_params_for_the_cache(self, base):
        """Sparse and spelled-out /v1/compress bodies share one job digest."""
        sparse = http(base, "/v1/compress?wait=120", {
            "codec": "microscaling", "params": {"bits": 5},
            "rows": 16, "cols": 64,
        })[2]
        spelled = http(base, "/v1/compress?wait=120", {
            "codec": "microscaling", "params": {"bits": 5, "group_size": 32},
            "rows": 16, "cols": 64,
        })[2]
        assert sparse["digest"] == spelled["digest"]
        assert spelled["cache_hit"]

    def test_v1_jobs_and_health(self, base):
        status, headers, payload = http(base, "/v1/health")
        assert status == 200 and payload["api_version"] == "v1"
        assert "Deprecation" not in headers
        assert http(base, "/v1/jobs")[0] == 200

    def test_unprefixed_paths_answer_json_404(self, base):
        """The pre-/v1 aliases are gone: a plain JSON 404, no deprecation headers."""
        requests = [(path, None) for path in ("/health", "/jobs", "/cache/stats")]
        requests.append(("/jobs", {
            "type": "codec_compress",
            "params": {"codec": "ptq", "rows": 16, "cols": 64},
        }))
        for path, payload in requests:
            status, headers, body = http(base, path, payload)
            assert status == 404
            assert body == {"error": f"no such endpoint {path!r}"}
            assert "Deprecation" not in headers and "Link" not in headers

    def test_v1_unknown_endpoint_is_404(self, base):
        assert http(base, "/v1/nope")[0] == 404
        assert http(base, "/v2/health")[0] == 404

    def test_new_endpoints_do_not_leak_onto_the_legacy_surface(self, base):
        """/codecs and /compress never existed unprefixed; they stay /v1-only."""
        assert http(base, "/codecs")[0] == 404
        assert http(base, "/compress", {"codec": "ptq"})[0] == 404

    def test_v1_compress_shares_tensor_source_keys_with_the_codec(self, base):
        """noisyquant's "seed" feeds the tensor AND the dither, like campaigns."""
        one = http(base, "/v1/compress?wait=120", {
            "codec": "noisyquant", "rows": 16, "cols": 64, "seed": 1,
        })[2]
        two = http(base, "/v1/compress?wait=120", {
            "codec": "noisyquant", "rows": 16, "cols": 64, "seed": 2,
        })[2]
        assert one["result"]["params"]["seed"] == 1
        assert two["result"]["params"]["seed"] == 2
        # And the digest matches the equivalent campaign codec: grid cell.
        from repro.campaign import expand_spec

        spec = parse_spec({"name": "s", "grids": [
            {"name": "g", "codec": "noisyquant",
             "params": {"rows": 16, "cols": 64, "seed": 1}},
        ]})
        (job,) = expand_spec(spec, registry=build_default_registry()).jobs
        assert one["digest"] == job.digest

    def test_client_compress_convenience(self, base):
        from repro.service.client import ServiceClient

        client = ServiceClient(base, retries=0)
        assert client.codecs()  # /v1/codecs through the client
        record = client.compress("ptq", params={"bits": 6}, rows=16, cols=64, wait=120)
        assert record["state"] == "done"
        assert record["result"]["codec"] == "ptq"


class TestDispatchCodecSkew:
    def test_probe_refuses_a_node_missing_a_plan_codec(self, tmp_path, monkeypatch):
        """Codec-level registry skew is caught at admission, not per cell.

        The node is built while the codec registry lacks ``prune`` — a node
        from a revision without that codec.  Codec schemas are part of the
        registry digest, so the node's ``/v1/health`` digest differs from the
        plan's and the dispatch's gateway refuses it before any cell is sent
        (the refusal names the digests, not the missing codec).
        """
        from repro.campaign.dispatch import CampaignDispatcher, DispatchError
        from repro.service.client import ServiceClient

        spec = parse_spec({
            "name": "skew", "grids": [
                {"name": "chain",
                 "pipeline": [{"codec": "prune"}, {"codec": "bitplane"}],
                 "params": {"rows": 16, "cols": 64}},
            ],
        })

        real_describe = codecs.describe_codecs
        monkeypatch.setattr(
            codecs, "describe_codecs",
            lambda: [c for c in real_describe() if c["name"] != "prune"],
        )
        server = create_server(port=0, max_workers=1)
        monkeypatch.undo()
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            dispatcher = CampaignDispatcher(
                spec, [f"http://127.0.0.1:{server.port}"], tmp_path / "run",
                client_factory=lambda url, **kw: ServiceClient(url, retries=0, backoff=0.0),
            )
            with pytest.raises(DispatchError):
                dispatcher.run()
        finally:
            server.close()
        (node,) = dispatcher.nodes
        assert not node.alive and "registry skew" in node.reason


class TestAPISurfaceGuard:
    def test_committed_baseline_matches_the_code(self):
        out = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "check_api_surface.py")],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stdout + out.stderr
        assert "API surface OK" in out.stdout
