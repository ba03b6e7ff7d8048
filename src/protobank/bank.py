"""Knowledge compression and exchange: k-means prototypes and the bank service.

Per-class centroids of the fused representations are the only artifact a
source country ships: they carry no record-level fields, and their count
is clamped to the class cardinality. The exchange service is a small
length-prefixed TCP protocol over the binary container format; an upload
is decoded, which checks it, before it is stored. The server loads its
directory when it starts and answers GET and LIST from memory; a PUT is
written to disk first (temp file, then rename) and then replaces the set in
memory, so a reader always sees a complete, valid prototype set.

Service framing (little-endian): request = u32 length | u8 opcode | body,
response = u32 length | u8 status | body. Opcodes: PUT=1 (body is a
prototype-set container), GET=2 (u32 count + count length-prefixed ids),
LIST=3 (empty body). Status 0 carries a payload, status 1 a UTF-8 error.
Replies: PUT an empty payload; GET u32 count + count length-prefixed
containers, in request order; LIST u32 count + count x (length-prefixed id
| u64 created_at). A length outside 1.._MAX_MESSAGE gets an error frame
and the connection closes, since framing is lost; a request that cannot be
served gets an error frame and the connection stays open.

Bodies are parsed with the container's reader, so a truncated body or an
id that is not UTF-8 is a FormatError. Frames are received into a
per-connection buffer and decoded through views of it; replies go out with
one scatter-gather send of their parts.
A server connection ends when its peer hangs up or when one read or write
waits longer than _IDLE_TIMEOUT.
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

from .container import MemoryBank, PrototypeSet, _Reader, deserialize
from .declarations import CountryDataset, check_id
from .encoder import EncoderParams, embed_matrix
from .errors import DataError, FormatError, NumericError

OP_PUT, OP_GET, OP_LIST = 1, 2, 3
_MAX_MESSAGE = 256 * 1024 * 1024
_FIRST_RECV = 64 * 1024  # receive buffer of a new connection
_KEEP_RECV = 4 * 1024 * 1024  # a larger receive buffer is dropped after its frame
_IOV_MAX = 1024  # buffers per sendmsg call (Linux and macOS limit)
_IDLE_TIMEOUT = 300.0  # seconds a server connection may wait on one read or write


# ---------------------------------------------------------------------------
# k-means

_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITERS = 100
_KMEANS_TOL = 1e-6  # Lloyd stops once no centroid moves this far


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    objective_history: list[float]
    n_iters: int


def _sq_dists(
    twice_points: np.ndarray,
    sq_norms: np.ndarray,
    centroids: np.ndarray,
    c_norms: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Squared distances into `out`, (n, k).

    `twice_points` is `2.0 * points`, `sq_norms` is `(points * points).sum(axis=1)`
    and `c_norms` is `(centroids * centroids).sum(axis=1)` (or the same rows of
    `sq_norms` when the centroids are points). Bit for bit
    max(sq_norms[:, None] - (2 * points) @ centroids.T + |centroids|^2, 0).
    """
    np.matmul(twice_points, centroids.T, out=out)
    np.subtract(sq_norms[:, None], out, out=out)
    out += c_norms
    return np.maximum(out, 0.0, out=out)


def _draw(rng: np.random.Generator, weights: np.ndarray, cdf: np.ndarray) -> int:
    """The next k-means++ seed: the index `rng.choice(len(weights), p=weights / total)`
    draws, minus its checks of p, or `rng.integers(len(weights))` when every weight
    is 0 (all points coincide with a seed). `cdf` is scratch of the weights' length.
    """
    total = weights.sum()
    if total <= 0:
        return int(rng.integers(len(weights)))
    np.divide(weights, total, out=cdf)
    np.add.accumulate(cdf, out=cdf)  # what `cumsum` runs, without its wrappers
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _seed_centroids(
    points: np.ndarray,
    twice_points: np.ndarray,
    sq_norms: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ style: subsequent seeds drawn proportionally to squared distance."""
    n = points.shape[0]
    j = int(rng.integers(n))
    chosen = [j]
    latest = np.empty((n, 1))  # each point's distance to the latest seed
    cdf = np.empty(n)
    _sq_dists(twice_points, sq_norms, points[j : j + 1], sq_norms[j : j + 1], latest)
    d2 = latest[:, 0].copy()  # each point's distance to its nearest seed so far
    for _ in range(1, k):
        j = _draw(rng, d2, cdf)
        chosen.append(j)
        _sq_dists(twice_points, sq_norms, points[j : j + 1], sq_norms[j : j + 1], latest)
        np.minimum(d2, latest[:, 0], out=d2)
    return points[chosen].copy()


def _lloyd(
    points: np.ndarray,
    twice_points: np.ndarray,
    sq_norms: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> KMeansResult:
    n, d = points.shape
    centroids = _seed_centroids(points, twice_points, sq_norms, k, rng)
    # distances to the current centroids: they give the assignment and, after
    # the update, both the objective and the next iteration's assignment
    d2 = np.empty((n, k))
    _sq_dists(twice_points, sq_norms, centroids, (centroids * centroids).sum(axis=1), d2)
    assign = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    it = 0
    for it in range(1, _KMEANS_MAX_ITERS + 1):
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            own = d2[np.arange(n), assign]
            own[counts[assign] <= 1] = -1.0  # never orphan a singleton donor
            far = int(own.argmax())
            counts[assign[far]] -= 1
            assign[far] = empty
            counts[empty] = 1
        # per-cluster sums: like np.add.at, each cluster adds its rows in index
        # order from 0.0, as one weighted bincount over (cluster, column) bins
        new_centroids = np.bincount(
            (assign[:, None] * d + np.arange(d)).ravel(), weights=points.ravel(), minlength=k * d
        ).reshape(k, d)
        new_centroids /= np.bincount(assign, minlength=k)[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        _sq_dists(twice_points, sq_norms, centroids, (centroids * centroids).sum(axis=1), d2)
        history.append(float(d2[np.arange(n), assign].sum()))
        if shift < _KMEANS_TOL:
            break
    return KMeansResult(centroids, assign, history[-1], history, it)


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Seeded k-means of an (n, d) matrix: 10 restarts, keeping the best objective.

    Each restart runs at most 100 Lloyd iterations. Empty clusters are
    repaired by reseeding them to the point currently farthest from its own
    centroid. Deterministic for a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise DataError(f"kmeans expects an (n, d) matrix, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise NumericError("kmeans input contains non-finite values")
    if k < 1:
        raise DataError("k must be at least 1")
    k = min(k, points.shape[0])
    rng = np.random.default_rng(seed)
    twice_points = 2.0 * points
    sq_norms = (points * points).sum(axis=1)
    best: KMeansResult | None = None
    for _ in range(_KMEANS_RESTARTS):
        result = _lloyd(points, twice_points, sq_norms, k, rng)
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
    y = labeled.illicit
    h = embed_matrix(params, labeled)
    sets = {}
    for cls, name in ((1, "fraud"), (0, "non-fraud")):
        rows = h[y == cls]
        if rows.shape[0] == 0:
            raise DataError(
                f"{fraud_like.country_id}: {name} class absent from the shared subset"
            )
        sets[cls] = kmeans(rows, min(per_class, rows.shape[0]), seed=seed + (1 - cls)).centroids
    return PrototypeSet(
        source_id=fraud_like.country_id,
        dim=params.config.d,
        fraud_prototypes=sets[1],
        nonfraud_prototypes=sets[0],
        created_at=created_at,
    )


def assemble(banks: list[PrototypeSet] | tuple[PrototypeSet, ...]) -> MemoryBank:
    """Order-preserving concatenation of prototype sets with distinct ids and one dim."""
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


class BankStore:
    """Prototype sets held in memory, each persisted as `<source_id>.pbnk`.

    Construction loads every stored set once; GET and LIST answer from
    memory and open no file. A PUT is decoded (checked), written to a temp
    file and renamed over the set's file before memory takes it, so the
    directory never holds a torn set. Every stored set stays in RAM, about
    256 KB per 1000 x 32 set, and a file that another process adds to the
    directory is served only after a restart.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # a rename and its memory update are one step
        self._sets: dict[str, tuple[bytes, int]] = {}  # source_id -> (container, created_at)
        # a file that cannot be read, is not a prototype set or is not named
        # after its source id is left out, so it does not hide the others
        for path in self.root.glob("*.pbnk"):
            try:
                data = path.read_bytes()
                ps = deserialize(data)
            except (FormatError, DataError, OSError):
                continue
            if isinstance(ps, PrototypeSet) and path.name == f"{ps.source_id}.pbnk":
                self._sets[ps.source_id] = (data, ps.created_at)

    def put(self, data) -> str:
        ps = deserialize(data)  # reject malformed uploads before touching disk
        if not isinstance(ps, PrototypeSet):
            raise DataError("only prototype sets can be stored")
        sid = check_id("source_id", ps.source_id)
        blob = bytes(data)  # `data` may be a view of the caller's receive buffer
        # no .pbnk suffix, so a restart never loads an upload in flight
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            with self._lock:
                os.replace(tmp, self.root / f"{sid}.pbnk")
                self._sets[sid] = (blob, ps.created_at)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return sid

    def get(self, source_id: str) -> bytes:
        try:
            return self._sets[check_id("source_id", source_id)][0]
        except KeyError:
            raise DataError(f"unknown source_id {source_id!r}") from None

    def list(self) -> list[tuple[str, int]]:
        """(source_id, created_at) of every stored set, in file-name order."""
        with self._lock:
            entries = [(sid, created_at) for sid, (_, created_at) in self._sets.items()]
        return sorted(entries, key=lambda e: f"{e[0]}.pbnk")


# ---------------------------------------------------------------------------
# wire protocol


class _RecvBuffer:
    """One connection's receive buffer, reused from frame to frame.

    It grows only as bytes arrive, so a header that declares a large frame
    and then stalls or hangs up allocates no more than what came. Growing
    replaces the buffer instead of resizing it: a bytearray cannot be
    resized while a view of it is alive, and the caller may still hold a
    view of the previous frame (its bytes are overwritten by the next one).
    """

    def __init__(self):
        self.data = bytearray(_FIRST_RECV)

    def recv(self, sock: socket.socket, n: int) -> memoryview:
        """Exactly `n` bytes from `sock`, as a view valid until the next call."""
        buf, got = self.data, 0
        view = memoryview(buf)
        while got < n:
            if got == len(buf):
                grown = bytearray(min(n, 2 * len(buf)))
                grown[:got] = buf
                buf, view = grown, memoryview(grown)
            k = sock.recv_into(view[got:n])
            if not k:
                raise ConnectionError("peer closed mid-message")
            got += k
        if len(buf) <= _KEEP_RECV:
            self.data = buf
        return view[:n]


def _read_frame(sock: socket.socket, rx: _RecvBuffer) -> tuple[int, memoryview] | None:
    """(tag, payload) of the next frame, or None if the peer closed before one began."""
    try:
        (length,) = struct.unpack("<I", rx.recv(sock, 4))
    except ConnectionError:
        return None
    if not 1 <= length <= _MAX_MESSAGE:
        raise FormatError(f"bad frame length {length}")
    body = rx.recv(sock, length)
    return body[0], body[1:]


def _write_frame(sock: socket.socket, tag: int, parts) -> None:
    """Send one frame whose body is the concatenation of the bytes-like `parts`."""
    bufs = [struct.pack("<IB", 1 + sum(map(len, parts)), tag), *parts]
    i = 0
    while i < len(bufs):  # sendmsg may send only a prefix
        sent = sock.sendmsg(bufs[i : i + _IOV_MAX])
        while i < len(bufs) and len(bufs[i]) <= sent:
            sent -= len(bufs[i])
            i += 1
        if sent:
            bufs[i] = memoryview(bufs[i])[sent:]


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        store: BankStore = self.server.store  # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(_IDLE_TIMEOUT)
        rx = _RecvBuffer()
        try:
            while True:
                try:
                    frame = _read_frame(sock, rx)
                except FormatError as e:  # bad length: framing is lost, so answer and close
                    _write_frame(sock, 1, [str(e).encode("utf-8")])
                    return
                if frame is None:
                    return
                opcode, body = frame
                try:
                    status, reply = 0, self._dispatch(store, opcode, body)
                except (DataError, OSError) as e:
                    status, reply = 1, [str(e).encode("utf-8")]
                _write_frame(sock, status, reply)
        except OSError:  # the peer hung up or reset, or a read or write timed out
            return

    @staticmethod
    def _dispatch(store: BankStore, opcode: int, body) -> list[bytes]:
        """The reply body as a list of parts, sent without joining them."""
        if opcode == OP_PUT:
            store.put(body)
            return []
        if opcode == OP_GET:
            r = _Reader(body)
            ids = [r.string() for _ in range(r.u32())]
            parts = [struct.pack("<I", len(ids))]
            size = 1 + 4 + 4 * len(ids)
            for sid in ids:
                blob = store.get(sid)
                size += len(blob)
                if size > _MAX_MESSAGE:
                    raise DataError(f"GET reply exceeds the {_MAX_MESSAGE}-byte frame limit")
                parts += (struct.pack("<I", len(blob)), blob)
            return parts
        if opcode == OP_LIST:
            entries = store.list()
            parts = [struct.pack("<I", len(entries))]
            for sid, created_at in entries:
                b = sid.encode("utf-8")
                parts += (struct.pack("<I", len(b)), b, struct.pack("<Q", created_at))
            return parts
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


class BankClient:
    """Blocking client for the exchange service."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self._rx = _RecvBuffer()

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "BankClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, opcode: int, *parts) -> memoryview:
        """Send one request; the reply payload is a view valid until the next call."""
        _write_frame(self.sock, opcode, parts)
        frame = _read_frame(self.sock, self._rx)
        if frame is None:
            raise ConnectionError("server closed connection")
        status, payload = frame
        if status != 0:
            raise DataError(str(payload, "utf-8", "replace"))
        return payload

    def put(self, container: bytes) -> None:
        self._call(OP_PUT, container)

    def get(self, source_ids: list[str]) -> list[bytes]:
        ids = [s.encode("utf-8") for s in source_ids]
        body = struct.pack("<I", len(ids)) + b"".join(struct.pack("<I", len(i)) + i for i in ids)
        r = _Reader(self._call(OP_GET, body))
        return [bytes(r.blob()) for _ in range(r.u32())]

    def list(self) -> list[tuple[str, int]]:
        r = _Reader(self._call(OP_LIST))
        return [(r.string(), r.u64()) for _ in range(r.u32())]
