"""Tests for the content-hash result cache and the stable digests behind it."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONSERVATIVE_PRESET,
    PruningStrategy,
    prune_tensor,
    stable_digest,
    tensor_digest,
)
from repro.nn.model_zoo import get_model
from repro.nn.synthetic import synthesize_model
from repro.service import ResultCache
from repro.service.workers import job_digest


class TestStableDigest:
    def test_deterministic_across_calls(self):
        value = {"seed": 0, "models": ["ResNet-50", "ViT-Small"], "beta": 0.2}
        assert stable_digest(value) == stable_digest(dict(value))

    def test_dict_insertion_order_is_irrelevant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(None) != stable_digest("None")
        assert stable_digest([1, 2]) != stable_digest((1, 2))

    def test_nested_structure_matters(self):
        assert stable_digest(["ab", "c"]) != stable_digest(["a", "bc"])
        assert stable_digest({"a": {"b": 1}}) != stable_digest({"a": {"b": 2}})

    def test_ndarray_contents_shape_and_dtype(self, fresh_rng):
        array = fresh_rng.integers(-128, 128, size=(8, 16))
        assert tensor_digest(array) == tensor_digest(array.copy())
        assert tensor_digest(array) != tensor_digest(array.reshape(16, 8))
        assert tensor_digest(array) != tensor_digest(array.astype(np.int32))
        perturbed = array.copy()
        perturbed[0, 0] += 1
        assert tensor_digest(array) != tensor_digest(perturbed)

    def test_non_contiguous_array_equals_contiguous_copy(self, fresh_rng):
        array = fresh_rng.integers(0, 100, size=(10, 10))
        assert tensor_digest(array[::2, ::2]) == tensor_digest(array[::2, ::2].copy())

    def test_enums_and_dataclasses_hash(self):
        assert stable_digest(PruningStrategy.ZERO_POINT_SHIFT) != stable_digest(
            PruningStrategy.ROUNDED_AVERAGE
        )
        assert stable_digest(CONSERVATIVE_PRESET) == stable_digest(CONSERVATIVE_PRESET)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_pruned_tensor_content_digest_is_stable(self, int8_matrix):
        first = prune_tensor(int8_matrix, 4, PruningStrategy.ZERO_POINT_SHIFT)
        second = prune_tensor(int8_matrix.copy(), 4, PruningStrategy.ZERO_POINT_SHIFT)
        assert first.content_digest() == second.content_digest()
        other = prune_tensor(int8_matrix, 2, PruningStrategy.ZERO_POINT_SHIFT)
        assert first.content_digest() != other.content_digest()

    def test_job_digest_separates_type_and_params(self):
        assert job_digest("figure1", {"seed": 0}) != job_digest("figure3", {"seed": 0})
        assert job_digest("figure1", {"seed": 0}) != job_digest("figure1", {"seed": 1})
        assert job_digest("figure1", {"seed": 0}) == job_digest("figure1", {"seed": 0})



class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Color(enum.Enum):
    RED = "red"
    BLUE = 3


@dataclasses.dataclass(frozen=True)
class Point:
    x: Any
    label: str = "p"


#: A ``POST /v1/compress`` codec job and a pipeline job, in canonical form.
CODEC_JOB = {
    "codec": "ptq",
    "params": {"bits": 6, "per_channel": True, "calibrate": None},
    "stages": None,
    "rows": 64,
    "cols": 256,
    "seed": 3,
}
PIPELINE_JOB = {
    "codec": "pipeline",
    "params": {},
    "stages": [
        {
            "codec": "prune",
            "params": {
                "bits": 8,
                "num_columns": 3,
                "strategy": "zero_point_shift",
                "group_size": 32,
            },
        },
        {"codec": "ptq", "params": {"bits": 4, "per_channel": True, "calibrate": None}},
    ],
    "rows": 32,
    "cols": 128,
}


class TestGoldenDigests:
    """Hex digests recorded from the original recursive encoder.

    Digests name cache and checkpoint files, journal records and report
    columns, so a change to any of them orphans every stored result.
    """

    def test_job_digests(self):
        assert job_digest("compress", CODEC_JOB) == (
            "95ba9934b19f35f9f525806792dd4fff5795277a79315eff0dcc8d44268a5ad2"
        )
        assert job_digest("compress", PIPELINE_JOB) == (
            "ace024f1ddf9a6ecfadf191ae6a5641107a54a6b62b224cadd39dbdbf06d734c"
        )

    def test_model_and_layer_digests(self):
        model = get_model("ResNet-50")
        assert model.digest == (
            "24a65b379636ecc04a3bfeab0638e0618f0bc0f1021f6e9c20cb3055b8a2eeb0"
        )
        weights = synthesize_model(model, seed=0, max_channels=32, max_reduction=256)
        assert weights["conv1"].digest == (
            "cbd0a1090e58b9c0c9d5c66b544291560acd490910e430b16e68d5657b0b3497"
        )

    def test_int8_array(self):
        array = np.arange(-8, 8, dtype=np.int8).reshape(4, 4)
        assert stable_digest(array) == (
            "72f3092d49ebf84ecc8e2925e32dd6deeddc2bcab8fb02659420811aefcea91d"
        )

    def test_enums(self):
        assert stable_digest(PruningStrategy.ZERO_POINT_SHIFT) == (
            "cdbcbf442d4ba6759fdb023d15314948629db6e62147c99bc756e78bf735e454"
        )
        assert stable_digest(Level.HIGH) == (
            "d36c5f114d457663d640f74fd0d241883fb762c85239173b3c30789ce3478a58"
        )

    def test_numpy_scalars_and_bool(self):
        assert stable_digest(np.float64(0.1)) == (
            "039d43bb5c310332ec9a6b23fcb9d209809ce9ea8e089a2b39dc90a4c3f4a1df"
        )
        assert stable_digest(np.int64(-7)) == (
            "70b7f8ee6275740d7d091580f3b8bc4800f2b16b412fa3b49c953bcac96a939e"
        )
        assert stable_digest(True) == (
            "24249283b4f1e433df562081f9c9a78b746a699c7e6c4311f54df32afea1b725"
        )
        assert stable_digest(1) == (
            "cc7130013527ac2a34de7f05846a80a6abc29cbd03fad13003867866f8c066d4"
        )

    def test_mixed_key_dict_and_preset(self):
        mixed = {
            1: "a",
            "1": 2.5,
            None: [1, (2, b"x")],
            2.0: {3},
            False: frozenset({"z", "y"}),
            (1, 2): np.int8(3),
        }
        assert stable_digest(mixed) == (
            "318b7d9f438cd9938cf3dabc7b7e5321479b55ffe9c2d56dc7739d829aa6cb94"
        )
        assert stable_digest(CONSERVATIVE_PRESET) == (
            "d9ae68bfc350d22f6c9ce2aab2bc89d2b899038d259c47afad68260556e5b927"
        )


def _oracle_update(hasher: Any, value: Any) -> None:
    """The original recursive encoder: one ``hasher.update`` per value."""
    if value is None:
        hasher.update(b"N;")
    elif isinstance(value, (bool, np.bool_)):
        hasher.update(b"b1;" if value else b"b0;")
    elif isinstance(value, (int, np.integer)):
        hasher.update(f"i{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"f" + struct.pack("<d", float(value)) + b";")
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        hasher.update(f"s{len(encoded)}:".encode() + encoded + b";")
    elif isinstance(value, (bytes, bytearray)):
        hasher.update(f"y{len(value)}:".encode() + bytes(value) + b";")
    elif isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        header = f"a{contiguous.dtype.str}{contiguous.shape}:".encode()
        hasher.update(header + contiguous.tobytes() + b";")
    elif isinstance(value, enum.Enum):
        hasher.update(f"e{type(value).__name__}.{value.name};".encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        hasher.update(f"D{type(value).__name__}(".encode())
        for field in dataclasses.fields(value):
            _oracle_update(hasher, field.name)
            _oracle_update(hasher, getattr(value, field.name))
        hasher.update(b");")
    elif isinstance(value, dict):
        hasher.update(f"d{len(value)}(".encode())
        items = sorted(value.items(), key=lambda kv: (type(kv[0]).__name__, repr(kv[0])))
        for key, item in items:
            _oracle_update(hasher, key)
            _oracle_update(hasher, item)
        hasher.update(b");")
    elif isinstance(value, (list, tuple)):
        tag = b"l" if isinstance(value, list) else b"t"
        hasher.update(tag + f"{len(value)}(".encode())
        for item in value:
            _oracle_update(hasher, item)
        hasher.update(b");")
    elif isinstance(value, (set, frozenset)):
        hasher.update(f"S{len(value)}(".encode())
        for item in sorted(value, key=lambda v: (type(v).__name__, repr(v))):
            _oracle_update(hasher, item)
        hasher.update(b");")
    else:
        raise TypeError(f"cannot hash value of type {type(value).__name__!r}")


def oracle_digest(*values: Any) -> str:
    hasher = hashlib.sha256()
    for value in values:
        _oracle_update(hasher, value)
    return hasher.hexdigest()


_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(PruningStrategy) + list(Level) + list(Color)),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.booleans().map(np.bool_),
)
_leaves = st.one_of(
    _hashable_leaves,
    st.floats(),  # NaN too: it is never a set member or dict key here
    st.binary(max_size=8).map(bytearray),
    st.lists(st.integers(-128, 127), max_size=12).map(lambda v: np.array(v, dtype=np.int8)),
    st.lists(st.floats(width=32), max_size=6).map(lambda v: np.array(v, dtype=np.float32)),
)
_keys = st.one_of(
    st.text(max_size=6), st.integers(), st.booleans(), st.none(),
    st.tuples(st.integers(), st.text(max_size=3)),
)
nested_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
        st.sets(st.one_of(st.integers(), st.text(max_size=4)), max_size=4),
        st.builds(Point, children, st.text(max_size=4)),
    ),
    max_leaves=24,
)


class TestEncoderMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(nested_values)
    def test_nested_values_hash_like_the_original_encoder(self, value):
        assert stable_digest(value) == oracle_digest(value)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(nested_values, max_size=3))
    def test_several_values_hash_like_one_stream(self, values):
        assert stable_digest(*values) == oracle_digest(*values)

    def test_configurations_and_specs(self):
        from repro.eval.benchmarks import BenchmarkSuite

        for accelerator in BenchmarkSuite().accelerators().values():
            config = accelerator.configuration()
            assert stable_digest("x", config) == oracle_digest("x", config)
        model = get_model("ViT-Small")
        assert stable_digest("ModelSpec", model) == oracle_digest("ModelSpec", model)
        assert stable_digest(CONSERVATIVE_PRESET) == oracle_digest(CONSERVATIVE_PRESET)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_existing_key_does_not_evict(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite, still 2 entries
        assert len(cache) == 2
        assert cache.get("a") == 10 and cache.get("b") == 2
        assert cache.stats()["evictions"] == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ResultCache(max_entries=4, directory=tmp_path)
        first.put("key1", {"rows": [1, 2, 3], "table": "t"})
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("key1") == {"rows": [1, 2, 3], "table": "t"}
        stats = reopened.stats()
        assert stats["disk_hits"] == 1 and stats["persistent"]

    def test_disk_backfill_after_eviction(self, tmp_path):
        cache = ResultCache(max_entries=1, directory=tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts "a" from memory, file remains
        assert "a" not in cache
        assert cache.get("a") == 1  # reloaded from disk
        assert cache.stats()["disk_hits"] == 1

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("a", [1])
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") == [1]


class TestNoneValues:
    """A result of None is a value, not an absence (regression: a scenario
    returning None could never cache-hit and was recomputed every time)."""

    def test_cached_none_is_a_hit_with_sentinel_default(self):
        from repro.core.cache import MISSING

        cache = ResultCache(max_entries=4)
        assert cache.get("k", MISSING) is MISSING
        cache.put("k", None)
        assert cache.get("k", MISSING) is None
        assert cache.stats()["hits"] == 1

    def test_cached_none_survives_disk_round_trip(self, tmp_path):
        from repro.core.cache import MISSING

        first = ResultCache(max_entries=4, directory=tmp_path)
        first.put("k", None)
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("k", MISSING) is None
        assert reopened.stats()["disk_hits"] == 1

    def test_missing_sentinel_is_exported_by_service_shim(self):
        from repro.core.cache import MISSING as core_missing
        from repro.service import MISSING as service_missing

        assert service_missing is core_missing


class TestBestEffortPersistence:
    """Disk persistence must never fail a successfully computed result
    (regression: a non-JSON value raised after the in-memory store, failing
    the job and leaking the temp file)."""

    def test_unserializable_value_still_cached_in_memory(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        value = {"handle": object()}  # not JSON-serializable
        cache.put("k", value)  # must not raise
        assert cache.get("k") is value
        assert cache.stats()["disk_errors"] == 1

    def test_failed_disk_write_leaves_no_tmp_file(self, tmp_path):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("bad", {"handle": object()})
        cache.put("good", {"x": 1})
        leftovers = [path.name for path in tmp_path.iterdir()]
        assert leftovers == ["good.json"], f"unexpected files: {leftovers}"

    def test_disk_file_is_json_dumps_output(self, tmp_path):
        import json

        value = {"b": [1, 2.5, None, True], "a": {"nested": "text \u00e9"}, "c": -0.0}
        ResultCache(max_entries=4, directory=tmp_path).put("k", value)
        assert (tmp_path / "k.json").read_text() == json.dumps(value, allow_nan=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_store_leaves_no_tmp_file(self, tmp_path, bad):
        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("k", {"x": [1.0, bad]})
        assert cache.get("k")["x"][0] == 1.0  # still cached in memory
        assert cache.stats()["disk_errors"] == 1
        assert list(tmp_path.iterdir()) == []

    def test_unserializable_value_not_readable_after_restart(self, tmp_path):
        from repro.core.cache import MISSING

        cache = ResultCache(max_entries=4, directory=tmp_path)
        cache.put("k", {"handle": object()})
        reopened = ResultCache(max_entries=4, directory=tmp_path)
        assert reopened.get("k", MISSING) is MISSING
