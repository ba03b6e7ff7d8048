"""Knowledge compression and exchange: k-means prototypes and the bank service.

Per-class centroids of the fused representations are the only artifact a
source country ships: they carry no record-level fields, and their count
is clamped to the class cardinality. The exchange service is a small
length-prefixed TCP protocol over the binary container format; uploads are
validated before storage and written atomically, so a reader always sees
a complete prototype set.

Service framing (little-endian): request = u32 length | u8 opcode | body,
response = u32 length | u8 status | body. Opcodes: PUT=1 (body is a
prototype-set container), GET=2 (u32 count + count length-prefixed ids),
LIST=3 (empty body). Status 0 carries a payload, status 1 a UTF-8 error.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import (
    MemoryBank,
    PrototypeSet,
    deserialize,
    serialize,
)
from .declarations import CountryDataset
from .encoder import EncoderParams, embed_matrix
from .errors import DataError, FormatError, NumericError

OP_PUT, OP_GET, OP_LIST = 1, 2, 3
_MAX_MESSAGE = 256 * 1024 * 1024


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    objective_history: list[float]
    n_iters: int


def _sq_dists(points: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances; `sq_norms` is `(points * points).sum(axis=1)`."""
    # in one (n, k) buffer, and bit for bit
    # max(sq_norms[:, None] - (2 * points) @ centroids.T + |centroids|^2, 0)
    d2 = (2.0 * points) @ centroids.T
    np.subtract(sq_norms[:, None], d2, out=d2)
    d2 += (centroids * centroids).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _draw(rng: np.random.Generator, weights: np.ndarray, total: float) -> int:
    """The index `rng.choice(len(weights), p=weights / total)` draws, minus its checks of p."""
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _seed_centroids(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ style: subsequent seeds drawn proportionally to squared distance."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points, sq_norms, points[chosen])[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a seed
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(_draw(rng, d2, total))
        d2 = np.minimum(
            d2, _sq_dists(points, sq_norms, points[chosen[-1] : chosen[-1] + 1])[:, 0]
        )
    return points[chosen].copy()


def _lloyd(
    points: np.ndarray, sq_norms: np.ndarray, k: int, rng, max_iters: int, tol: float
) -> KMeansResult:
    n = points.shape[0]
    centroids = _seed_centroids(points, sq_norms, k, rng)
    # distances to the current centroids: they give the assignment and, after
    # the update, both the objective and the next iteration's assignment
    d2 = _sq_dists(points, sq_norms, centroids)
    assign = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    it = 0
    for it in range(1, max_iters + 1):
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            own = d2[np.arange(n), assign]
            own[counts[assign] <= 1] = -1.0  # never orphan a singleton donor
            far = int(own.argmax())
            counts[assign[far]] -= 1
            assign[far] = empty
            counts[empty] = 1
        new_centroids = np.zeros_like(centroids)
        np.add.at(new_centroids, assign, points)
        new_centroids /= np.bincount(assign, minlength=k)[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        d2 = _sq_dists(points, sq_norms, centroids)
        history.append(float(d2[np.arange(n), assign].sum()))
        if shift < tol:
            break
    return KMeansResult(centroids, assign, history[-1], history, it)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 100,
    tol: float = 1e-6,
    n_init: int = 10,
) -> KMeansResult:
    """Seeded Lloyd iterations with n_init restarts, keeping the best objective.

    Empty clusters are repaired by reseeding them to the point currently
    farthest from its own centroid. Deterministic for a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DataError(f"kmeans expects an (n, d) matrix, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise NumericError("kmeans input contains non-finite values")
    if k < 1:
        raise DataError("k must be at least 1")
    if max_iters < 1 or n_init < 1:
        raise DataError("max_iters and n_init must be at least 1")
    k = min(k, points.shape[0])
    rng = np.random.default_rng(seed)
    sq_norms = (points * points).sum(axis=1)
    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _lloyd(points, sq_norms, k, rng, max_iters, tol)
        if best is None or result.objective < best.objective:
            best = result
        if best.objective == 0.0:
            break
    return best


# ---------------------------------------------------------------------------
# prototype extraction and assembly


def extract_prototypes(
    params: EncoderParams,
    fraud_like: CountryDataset,
    per_class: int = 500,
    seed: int = 0,
    created_at: int = 0,
) -> PrototypeSet:
    """Cluster the shared subset's embeddings per class into centroid prototypes."""
    labeled = fraud_like.labeled()
    if not labeled:
        raise DataError(f"{fraud_like.country_id}: no labeled records to compress")
    y = np.array([1 if r.illicit else 0 for r in labeled])
    h = embed_matrix(params, labeled)
    sets = {}
    for cls, name in ((1, "fraud"), (0, "non-fraud")):
        rows = h[y == cls]
        if rows.shape[0] == 0:
            raise DataError(
                f"{fraud_like.country_id}: {name} class absent from the shared subset"
            )
        sets[cls] = kmeans(rows, min(per_class, rows.shape[0]), seed=seed + (1 - cls)).centroids
    ps = PrototypeSet(
        source_id=fraud_like.country_id,
        dim=params.config.d,
        fraud_prototypes=sets[1],
        nonfraud_prototypes=sets[0],
        created_at=created_at,
    )
    ps.validate()
    return ps


def assemble(banks: list[PrototypeSet] | tuple[PrototypeSet, ...]) -> MemoryBank:
    """Order-preserving concatenation of prototype sets into one memory."""
    seen = set()
    dim = None
    for ps in banks:
        ps.validate()
        if ps.source_id in seen:
            raise DataError(f"duplicate source_id {ps.source_id!r}")
        seen.add(ps.source_id)
        if dim is None:
            dim = ps.dim
        elif ps.dim != dim:
            raise DataError(f"dimension mismatch: {ps.dim} vs {dim}")
    return MemoryBank(tuple(banks))


def random_bank(dim: int, n_rows: int, seed: int, source_id: str = "random") -> PrototypeSet:
    """Size-matched noise baseline: unit-norm gaussian rows, split over classes."""
    if n_rows < 2:
        raise DataError("random bank needs at least 2 rows")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, dim))
    rows /= np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    n_f = n_rows // 2
    return PrototypeSet(source_id, dim, rows[:n_f], rows[n_f:])


# ---------------------------------------------------------------------------
# directory-backed store


def _safe_id(source_id: str) -> str:
    if not source_id or any(c not in _ID_CHARS for c in source_id):
        raise DataError(f"source_id {source_id!r} not storable (use [A-Za-z0-9._-])")
    return source_id


_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


class BankStore:
    """Filesystem store; PUT is write-temp-then-rename so reads never tear."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, data: bytes) -> str:
        ps = deserialize(data)  # reject malformed uploads before touching disk
        if not isinstance(ps, PrototypeSet):
            raise DataError("only prototype sets can be stored")
        sid = _safe_id(ps.source_id)
        # no .pbnk suffix, so list() never sees an upload in flight
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self.root / f"{sid}.pbnk")
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return sid

    def get(self, source_id: str) -> bytes:
        try:
            return (self.root / f"{_safe_id(source_id)}.pbnk").read_bytes()
        except FileNotFoundError:
            raise DataError(f"unknown source_id {source_id!r}") from None

    def list(self) -> list[tuple[str, int]]:
        """(source_id, created_at) of every readable stored set.

        A file that cannot be read or decoded as a prototype set is left
        out, so one corrupt or foreign file does not hide the others.
        """
        out = []
        for path in sorted(self.root.glob("*.pbnk")):
            try:
                ps = deserialize(path.read_bytes())
            except (FormatError, DataError, OSError):
                continue
            if isinstance(ps, PrototypeSet):
                out.append((ps.source_id, ps.created_at))
        return out


# ---------------------------------------------------------------------------
# wire protocol


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        part = sock.recv(n - len(buf))
        if not part:
            raise ConnectionError("peer closed mid-message")
        buf += part
    return bytes(buf)


def _read_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    head = b""
    try:
        head = _read_exact(sock, 4)
    except ConnectionError:
        return None
    (length,) = struct.unpack("<I", head)
    if not 1 <= length <= _MAX_MESSAGE:
        raise FormatError(f"bad frame length {length}")
    body = _read_exact(sock, length)
    return body[0], body[1:]


def _write_frame(sock: socket.socket, tag: int, body: bytes) -> None:
    sock.sendall(struct.pack("<I", 1 + len(body)) + bytes([tag]) + body)


def _pack_blob(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


class _Cursor:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def blob(self) -> bytes:
        if self.pos + 4 > len(self.data):
            raise FormatError("truncated message body")
        (n,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        if self.pos + n > len(self.data):
            raise FormatError("truncated message body")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        if self.pos + 4 > len(self.data):
            raise FormatError("truncated message body")
        (v,) = struct.unpack_from("<I", self.data, self.pos)
        self.pos += 4
        return v

    def u64(self) -> int:
        if self.pos + 8 > len(self.data):
            raise FormatError("truncated message body")
        (v,) = struct.unpack_from("<Q", self.data, self.pos)
        self.pos += 8
        return v


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        store: BankStore = self.server.store  # type: ignore[attr-defined]
        while True:
            try:
                frame = _read_frame(self.request)
            except FormatError as e:  # bad length: framing is lost, so answer and close
                try:
                    _write_frame(self.request, 1, str(e).encode("utf-8"))
                except OSError:
                    pass
                return
            except OSError:
                return
            if frame is None:
                return
            opcode, body = frame
            try:
                reply = self._dispatch(store, opcode, body)
            except (DataError, FormatError, UnicodeDecodeError, OSError) as e:
                _write_frame(self.request, 1, str(e).encode("utf-8"))
                continue
            _write_frame(self.request, 0, reply)

    @staticmethod
    def _dispatch(store: BankStore, opcode: int, body: bytes) -> bytes:
        if opcode == OP_PUT:
            store.put(body)
            return b""
        if opcode == OP_GET:
            cur = _Cursor(body)
            ids = [cur.blob().decode("utf-8") for _ in range(cur.u32())]
            blobs = [store.get(sid) for sid in ids]
            return struct.pack("<I", len(blobs)) + b"".join(_pack_blob(b) for b in blobs)
        if opcode == OP_LIST:
            entries = store.list()
            out = struct.pack("<I", len(entries))
            for sid, created_at in entries:
                out += _pack_blob(sid.encode("utf-8")) + struct.pack("<Q", created_at)
            return out
        raise FormatError(f"unknown opcode {opcode}")


class BankServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store_dir, address: tuple[str, int] = ("127.0.0.1", 0)):
        self.store = BankStore(store_dir)
        super().__init__(address, _Handler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def bank_service(store_dir, address: tuple[str, int] = ("127.0.0.1", 0)) -> BankServer:
    """Create (but do not start) the exchange service bound to `address`."""
    return BankServer(store_dir, address)


class BankClient:
    """Blocking client for the exchange service."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self.sock = socket.create_connection(address, timeout=timeout)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "BankClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, opcode: int, body: bytes) -> bytes:
        _write_frame(self.sock, opcode, body)
        frame = _read_frame(self.sock)
        if frame is None:
            raise ConnectionError("server closed connection")
        status, payload = frame
        if status != 0:
            raise DataError(payload.decode("utf-8", "replace"))
        return payload

    def put(self, prototype_set: PrototypeSet | bytes) -> None:
        data = (
            prototype_set
            if isinstance(prototype_set, bytes)
            else serialize(prototype_set)
        )
        self._call(OP_PUT, data)

    def get(self, source_ids: list[str]) -> list[bytes]:
        body = struct.pack("<I", len(source_ids)) + b"".join(
            _pack_blob(s.encode("utf-8")) for s in source_ids
        )
        payload = self._call(OP_GET, body)
        cur = _Cursor(payload)
        return [cur.blob() for _ in range(cur.u32())]

    def list(self) -> list[tuple[str, int]]:
        payload = self._call(OP_LIST, b"")
        cur = _Cursor(payload)
        return [(cur.blob().decode("utf-8"), cur.u64()) for _ in range(cur.u32())]
