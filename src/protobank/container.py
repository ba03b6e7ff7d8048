"""Prototype sets, memory banks, and their versioned binary containers.

Wire layout (all integers little-endian, payload float64 little-endian
row-major, trailing u64 checksum covering every byte before it):

  prototype set:  "PROTOBNK" | u32 version | u32 dim | u32 n_f | u32 n_n
                  | u32 len + source_id utf-8 | u64 created_at
                  | fraud rows | non-fraud rows | u64 checksum
  memory bank:    "PROTOMEM" | u32 version | u32 n_entries
                  | n x (u32 len + prototype-set bytes) | u64 checksum
  tensor bundle:  "PROTOPRM" | u32 version | u32 len + meta json
                  | u32 n_tensors | n x (u32 len + name | u32 ndim
                  | ndim x u32 | f64 data) | u64 checksum

The checksum is CRC-32 zero-extended to 64 bits. Any corrupted byte in a
stream is rejected: the checksum covers header and payload alike.

A prototype set or memory bank checks itself when constructed, decoded or
not, so an invalid one raises DataError instead of existing. A decoded
tensor bundle with a non-finite value raises FormatError.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError

FORMAT_VERSION = 1
MAGIC_PROTOTYPES = b"PROTOBNK"
MAGIC_BANK = b"PROTOMEM"
MAGIC_PARAMS = b"PROTOPRM"


@dataclass(frozen=True)
class PrototypeSet:
    """Per-class centroid matrices contributed by one source country.

    Checked when constructed: a nonempty source_id; each matrix (n >= 1, dim >= 1), finite;
    a created_at stamp that fits the container's unsigned 64-bit field.
    """

    source_id: str
    dim: int
    fraud_prototypes: np.ndarray
    nonfraud_prototypes: np.ndarray
    created_at: int = 0

    def __post_init__(self) -> None:
        if not self.source_id:
            raise DataError("prototype set needs a nonempty source_id")
        if self.dim < 1:
            raise DataError("prototype dimension must be positive")
        if not 0 <= self.created_at < 2**64:
            raise DataError(f"created_at {self.created_at} is outside [0, 2**64)")
        for name in ("fraud_prototypes", "nonfraud_prototypes"):
            m = getattr(self, name)
            if m.ndim != 2 or m.shape[1] != self.dim:
                raise DataError(f"{name}: expected (*, {self.dim}), got {m.shape}")
            if m.shape[0] < 1:
                raise DataError(f"{name}: at least one prototype required")
            if not np.all(np.isfinite(m)):
                raise DataError(f"{name}: non-finite prototype values")

    @property
    def n_rows(self) -> int:
        return self.fraud_prototypes.shape[0] + self.nonfraud_prototypes.shape[0]

    def rows(self) -> np.ndarray:
        """Fraud rows stacked above non-fraud rows."""
        return np.vstack([self.fraud_prototypes, self.nonfraud_prototypes])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrototypeSet)
            and self.source_id == other.source_id
            and self.dim == other.dim
            and self.created_at == other.created_at
            and np.array_equal(self.fraud_prototypes, other.fraud_prototypes)
            and np.array_equal(self.nonfraud_prototypes, other.nonfraud_prototypes)
        )


@dataclass(frozen=True)
class MemoryBank:
    """Ordered prototype sets from distinct sources of one dimension; possibly empty."""

    entries: tuple[PrototypeSet, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for ps in self.entries:
            if ps.source_id in seen:
                raise DataError(f"duplicate source_id {ps.source_id!r}")
            seen.add(ps.source_id)
            if ps.dim != self.entries[0].dim:
                raise DataError(f"dimension mismatch: {ps.dim} vs {self.entries[0].dim}")

    @property
    def dim(self) -> int | None:
        return self.entries[0].dim if self.entries else None

    def __len__(self) -> int:
        return sum(e.n_rows for e in self.entries)

    def matrix(self) -> np.ndarray:
        """All prototype rows, source order preserved."""
        if not self.entries:
            raise DataError("memory bank is empty")
        return np.vstack([e.rows() for e in self.entries])


# ---------------------------------------------------------------------------
# low-level readers/writers


def _checksum(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise FormatError("truncated stream")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def blob(self) -> memoryview:
        """A u32 length, then that many bytes."""
        return self.take(self.u32())

    def string(self) -> str:
        try:
            return str(self.blob(), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"bad utf-8 string: {e}") from None


def _finish(body: bytearray) -> bytes:
    body += struct.pack("<Q", _checksum(body))
    return bytes(body)


def _open(data, magic: bytes) -> _Reader:
    """A reader of the checksummed body of bytes-like `data`, past magic and version."""
    data = memoryview(data)
    if len(data) < len(magic) + 12:
        raise FormatError("truncated stream")
    if data[: len(magic)] != magic:
        raise FormatError(f"bad magic {bytes(data[:8])!r}")
    (stored,) = struct.unpack_from("<Q", data, len(data) - 8)
    body = data[:-8]
    if _checksum(body) != stored:
        raise FormatError("checksum mismatch")
    r = _Reader(body)
    r.pos = len(magic)
    version = r.u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    return r


def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return struct.pack("<I", len(b)) + b


def _put_f64(body: bytearray, arr: np.ndarray) -> None:
    # extend reads the array's buffer in place; memoryview.cast would refuse a zero-size one
    body.extend(np.ascontiguousarray(arr, dtype="<f8"))


def _read_f64(r: _Reader, shape: tuple[int, ...]) -> np.ndarray:
    """The next `shape` float64 values as an array that owns its data."""
    count = math.prod(shape)  # Python ints: a u32 x u32 count must not wrap
    raw = r.take(count * 8)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


# ---------------------------------------------------------------------------
# prototype set / memory bank codecs


def _ser_prototype_set(ps: PrototypeSet) -> bytes:
    body = bytearray(MAGIC_PROTOTYPES)
    body += struct.pack(
        "<IIII",
        FORMAT_VERSION,
        ps.dim,
        ps.fraud_prototypes.shape[0],
        ps.nonfraud_prototypes.shape[0],
    )
    body += _pack_str(ps.source_id)
    body += struct.pack("<Q", ps.created_at)
    _put_f64(body, ps.fraud_prototypes)
    _put_f64(body, ps.nonfraud_prototypes)
    return _finish(body)


def _deser_prototype_set(data: bytes) -> PrototypeSet:
    r = _open(data, MAGIC_PROTOTYPES)
    dim, n_f, n_n = r.u32(), r.u32(), r.u32()
    source_id = r.string()
    created_at = r.u64()
    fraud = _read_f64(r, (n_f, dim))
    nonfraud = _read_f64(r, (n_n, dim))
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after payload")
    return PrototypeSet(source_id, dim, fraud, nonfraud, created_at)


def _ser_bank(mb: MemoryBank) -> bytes:
    body = bytearray(MAGIC_BANK)
    body += struct.pack("<II", FORMAT_VERSION, len(mb.entries))
    for e in mb.entries:
        blob = _ser_prototype_set(e)
        body += struct.pack("<I", len(blob)) + blob
    return _finish(body)


def _deser_bank(data: bytes) -> MemoryBank:
    r = _open(data, MAGIC_BANK)
    entries = tuple(_deser_prototype_set(r.blob()) for _ in range(r.u32()))
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after payload")
    return MemoryBank(entries)


def serialize(obj: PrototypeSet | MemoryBank) -> bytes:
    if isinstance(obj, PrototypeSet):
        return _ser_prototype_set(obj)
    if isinstance(obj, MemoryBank):
        return _ser_bank(obj)
    raise DataError(f"cannot serialize {type(obj).__name__}")


def deserialize(data) -> PrototypeSet | MemoryBank:
    """Decode bytes-like `data`; every array of the result owns its values."""
    if bytes(data[:8]) == MAGIC_BANK:
        return _deser_bank(data)
    return _deser_prototype_set(data)  # its reader refuses a short stream or other magic


# ---------------------------------------------------------------------------
# named-tensor bundles (model parameters use the same envelope discipline)


def write_envelope(meta: dict, tensors: dict[str, np.ndarray]) -> bytes:
    body = bytearray(MAGIC_PARAMS)
    body += struct.pack("<I", FORMAT_VERSION)
    body += _pack_str(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    body += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        arr = tensors[name]
        body += _pack_str(name)
        body += struct.pack("<I", arr.ndim)
        body += struct.pack(f"<{arr.ndim}I", *arr.shape)
        _put_f64(body, arr)
    return _finish(body)


def read_envelope(data) -> tuple[dict, dict[str, np.ndarray]]:
    r = _open(data, MAGIC_PARAMS)
    try:
        meta = json.loads(r.string())
    except json.JSONDecodeError as e:
        raise FormatError(f"bad metadata json: {e}") from None
    if not isinstance(meta, dict):
        raise FormatError("metadata is not a json object")
    n = r.u32()
    tensors = {}
    for _ in range(n):
        name = r.string()
        ndim = r.u32()
        if ndim > 8:
            raise FormatError("implausible tensor rank")
        shape = tuple(r.u32() for _ in range(ndim))
        tensors[name] = _read_f64(r, shape)
        if not np.all(np.isfinite(tensors[name])):
            raise FormatError(f"tensor {name!r}: non-finite values")
    if r.pos != len(r.data):
        raise FormatError("trailing bytes after payload")
    return meta, tensors
