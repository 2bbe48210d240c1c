"""Stable content hashing of tensors and experiment configurations.

The service layer caches experiment results by a digest of their inputs, so
the digest must be *stable*: independent of dict insertion order, memory
layout, or Python hash randomization, and collision-safe across types (the
integer ``1`` and the string ``"1"`` must hash differently).  Every supported
value is encoded with an explicit type tag; unsupported types raise
``TypeError`` instead of silently falling back to ``repr``, which would make
cache keys depend on interpreter details.

One call builds the whole encoding in a list of byte strings and hashes it
once.  Encoders are looked up by exact type; a type met for the first time is
classified by an ordered ``isinstance`` chain and remembered.  Each dataclass
type's encoded field names are built once, and short ``str`` encodings are
kept (bounded), since the same keys and names recur in every configuration.

Supported values: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
numpy scalars and arrays, enums, dataclasses, and arbitrarily nested
dict/list/tuple/set containers of the above.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from typing import Any, Callable

import numpy as np

__all__ = ["stable_digest", "tensor_digest"]

#: Appends one value's encoding to the output list.
Encoder = Callable[[Any, list], None]

_pack_double = struct.Struct("<d").pack


def _encode_none(value: None, out: list) -> None:
    out.append(b"N;")


def _encode_bool(value: Any, out: list) -> None:
    out.append(b"b1;" if value else b"b0;")


def _encode_int(value: Any, out: list) -> None:
    out.append(b"i%d;" % int(value))


def _encode_float(value: Any, out: list) -> None:
    # struct gives a byte-exact encoding (repr of -0.0 / denormals varies).
    out.append(b"f" + _pack_double(float(value)) + b";")


def _str_bytes(value: str) -> bytes:
    encoded = value.encode("utf-8")
    return b"s%d:%s;" % (len(encoded), encoded)


def _encode_str(value: str, out: list) -> None:
    out.append(_str_bytes(value))


#: Encodings of short exact ``str`` values (dict keys, names), bounded.
_STR_ENCODINGS: dict[str, bytes] = {}


def _encode_exact_str(value: str, out: list) -> None:
    encoded = _STR_ENCODINGS.get(value)
    if encoded is None:
        encoded = _str_bytes(value)
        if len(value) <= 64 and len(_STR_ENCODINGS) < 4096:
            _STR_ENCODINGS[value] = encoded
    out.append(encoded)


def _encode_bytes(value: bytes | bytearray, out: list) -> None:
    out.append(b"y%d:%s;" % (len(value), bytes(value)))


def _encode_array(value: np.ndarray, out: list) -> None:
    contiguous = np.ascontiguousarray(value)
    out.append(f"a{contiguous.dtype.str}{contiguous.shape}:".encode())
    out.append(contiguous.tobytes())
    out.append(b";")


def _encode_enum(value: enum.Enum, out: list) -> None:
    out.append(f"e{type(value).__name__}.{value.name};".encode())


#: Per dataclass type: its header and its ``(field name, encoded name)`` pairs.
_DATACLASS_LAYOUTS: dict[type, tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}


def _dataclass_layout(cls: type) -> tuple[bytes, tuple[tuple[str, bytes], ...]]:
    layout = _DATACLASS_LAYOUTS.get(cls)
    if layout is None:
        fields = tuple(
            (field.name, _str_bytes(field.name)) for field in dataclasses.fields(cls)
        )
        layout = (f"D{cls.__name__}(".encode(), fields)
        _DATACLASS_LAYOUTS[cls] = layout
    return layout


def _encode_dataclass(value: Any, out: list) -> None:
    header, fields = _dataclass_layout(type(value))
    out.append(header)
    for name, encoded_name in fields:
        out.append(encoded_name)
        item = getattr(value, name)
        (_ENCODERS.get(type(item)) or _classify(item))(item, out)
    out.append(b");")


def _sort_key(value: Any) -> tuple[str, str]:
    return type(value).__name__, repr(value)


def _item_sort_key(item: tuple[Any, Any]) -> tuple[str, str]:
    return type(item[0]).__name__, repr(item[0])


def _encode_dict(value: dict, out: list) -> None:
    out.append(b"d%d(" % len(value))
    get = _ENCODERS.get
    for key, item in sorted(value.items(), key=_item_sort_key):
        (get(type(key)) or _classify(key))(key, out)
        (get(type(item)) or _classify(item))(item, out)
    out.append(b");")


def _sequence_encoder(tag: bytes) -> Encoder:
    def encode(value: list | tuple, out: list) -> None:
        out.append(tag + b"%d(" % len(value))
        get = _ENCODERS.get
        for item in value:
            (get(type(item)) or _classify(item))(item, out)
        out.append(b");")

    return encode


_encode_list = _sequence_encoder(b"l")
_encode_tuple = _sequence_encoder(b"t")


def _encode_set(value: set | frozenset, out: list) -> None:
    out.append(b"S%d(" % len(value))
    for item in sorted(value, key=_sort_key):
        _encode(item, out)
    out.append(b");")


#: Encoder per exact type.  Starts with the common builtins; every other
#: supported type is added the first time :func:`_classify` sees it.
_ENCODERS: dict[type, Encoder] = {
    type(None): _encode_none,
    str: _encode_exact_str,
    int: _encode_int,
    float: _encode_float,
    tuple: _encode_tuple,
    list: _encode_list,
    dict: _encode_dict,
}


def _classify(value: Any) -> Encoder:
    """The encoder for ``type(value)``, chosen by an ordered ``isinstance`` chain.

    The order settles types that match several branches: ``bool`` before
    ``int``, ``str``/``int`` enums as their ``str``/``int`` value, numpy
    scalars as the Python number they equal.  The choice depends only on the
    type, so it is cached in :data:`_ENCODERS`.
    """
    if isinstance(value, (bool, np.bool_)):
        encoder: Encoder = _encode_bool
    elif isinstance(value, (int, np.integer)):
        encoder = _encode_int
    elif isinstance(value, (float, np.floating)):
        encoder = _encode_float
    elif isinstance(value, str):
        encoder = _encode_str
    elif isinstance(value, (bytes, bytearray)):
        encoder = _encode_bytes
    elif isinstance(value, np.ndarray):
        encoder = _encode_array
    elif isinstance(value, enum.Enum):
        encoder = _encode_enum
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoder = _encode_dataclass
    elif isinstance(value, dict):
        encoder = _encode_dict
    elif isinstance(value, list):
        encoder = _encode_list
    elif isinstance(value, tuple):
        encoder = _encode_tuple
    elif isinstance(value, (set, frozenset)):
        encoder = _encode_set
    else:
        raise TypeError(f"cannot hash value of type {type(value).__name__!r}")
    _ENCODERS[type(value)] = encoder
    return encoder


def _encode(value: Any, out: list) -> None:
    """Append one value's unambiguous type-tagged encoding to ``out``."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _classify(value)
    encoder(value, out)


def stable_digest(*values: Any, algorithm: str = "sha256") -> str:
    """Hex digest of any nesting of supported values; stable across processes.

    The values are encoded into one byte string, hashed in a single call.
    """
    out: list = []
    for value in values:
        _encode(value, out)
    return hashlib.new(algorithm, b"".join(out)).hexdigest()


def tensor_digest(array: np.ndarray, algorithm: str = "sha256") -> str:
    """Hex digest of one array's dtype + shape + contents."""
    return stable_digest(np.asarray(array), algorithm=algorithm)
