import builtins
import io
import os
import pathlib
import socket
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protobank import bank as bank_module
from protobank.bank import (
    OP_GET,
    OP_LIST,
    OP_PUT,
    BankClient,
    BankServer,
    BankStore,
    assemble,
    extract_prototypes,
    kmeans,
    random_bank,
    _Handler,
    _draw,
    _lloyd,
    _read_frame,
    _write_frame,
    _RecvBuffer,
    _sq_dists,
)
from protobank.container import MemoryBank, PrototypeSet, deserialize, serialize
from protobank.errors import DataError, FormatError, NumericError
from tests.serving import serve_in_thread
from tests.test_pretrain import separable_dataset


def _pack_blob(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def reference_lloyd(points, k, rng, iters=60):
    """Independent plain Lloyd restart used as a brute-force oracle."""
    centroids = points[rng.choice(len(points), size=k, replace=False)]
    for _ in range(iters):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        new = centroids.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new[c] = members.mean(axis=0)
        if np.allclose(new, centroids):
            break
        centroids = new
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1).sum()


def loop_sq_dists(points, centroids):
    d2 = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def loop_seed_centroids(points, k, rng):
    """k-means++ seeding recomputing every distance, kept as the bit-exact oracle."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = loop_sq_dists(points, points[chosen])[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, loop_sq_dists(points, points[chosen[-1] : chosen[-1] + 1])[:, 0])
    return points[chosen].copy()


def loop_lloyd(points, k, rng, max_iters=100, tol=1e-6):
    """Lloyd restart computing the distance matrix twice per iteration (oracle)."""
    n = points.shape[0]
    centroids = loop_seed_centroids(points, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    history = []
    it = 0
    for it in range(1, max_iters + 1):
        d2 = loop_sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            own = d2[np.arange(n), assign]
            own[counts[assign] <= 1] = -1.0
            far = int(own.argmax())
            counts[assign[far]] -= 1
            assign[far] = empty
            counts[empty] = 1
        new_centroids = np.zeros_like(centroids)
        np.add.at(new_centroids, assign, points)
        new_centroids /= np.bincount(assign, minlength=k)[:, None]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        history.append(float(loop_sq_dists(points, centroids)[np.arange(n), assign].sum()))
        if shift < tol:
            break
    return centroids, assign, history[-1], history, it


def loop_kmeans(points, k, seed, n_init=10):
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        result = loop_lloyd(points, k, rng)
        if best is None or result[2] < best[2]:
            best = result
        if best[2] == 0.0:
            break
    return best


def _result_bytes(centroids, assign, objective, history, n_iters):
    return (
        centroids.tobytes(),
        assign.tobytes(),
        np.float64(objective).tobytes(),
        np.array(history).tobytes(),
        n_iters,
    )


KMEANS_CASES = {
    "k<n": (np.random.default_rng(4).normal(size=(60, 3)), 5),
    "k=n": (np.random.default_rng(5).normal(size=(12, 2)), 12),
    "duplicates": (np.vstack([np.zeros((5, 2)), np.ones((2, 2)) * 9]), 3),
    "all-equal": (np.ones((9, 3)), 3),  # zero total: seeds drawn uniformly, then repaired
}


class TestKMeansBitExact:
    @pytest.mark.parametrize("case", sorted(KMEANS_CASES))
    def test_restarts_match_loop_oracle(self, case):
        points, k = KMEANS_CASES[case]
        sq_norms = (points * points).sum(axis=1)
        for seed in range(3):
            ours_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # later restarts continue the same generator
                r = _lloyd(points, 2.0 * points, sq_norms, k, ours_rng)
                ours = _result_bytes(r.centroids, r.assignments, r.objective,
                                     r.objective_history, r.n_iters)
                assert ours == _result_bytes(*loop_lloyd(points, k, oracle_rng))

    @pytest.mark.parametrize("case", sorted(KMEANS_CASES))
    def test_kmeans_matches_loop_oracle(self, case):
        points, k = KMEANS_CASES[case]
        for seed in range(3):
            r = kmeans(points, k, seed=seed)
            ours = _result_bytes(r.centroids, r.assignments, r.objective,
                                 r.objective_history, r.n_iters)
            assert ours == _result_bytes(*loop_kmeans(points, k, seed))

    @pytest.mark.parametrize("n, k, d", [(1, 1, 3), (40, 1, 2), (40, 7, 5), (300, 64, 32)])
    def test_sq_dists_match_oracle(self, n, k, d):
        rng = np.random.default_rng(n + k + d)
        points = rng.normal(size=(n, d)) * 10
        sq_norms = (points * points).sum(axis=1)
        for centroids in (rng.normal(size=(k, d)), points[:k] + 1e-9, points[:k]):
            out = np.full((n, k), np.nan)  # stale scratch: every entry must be written
            c_norms = (centroids * centroids).sum(axis=1)
            got = _sq_dists(2.0 * points, sq_norms, centroids, c_norms, out)
            assert got is out
            assert got.tobytes() == loop_sq_dists(points, centroids).tobytes()
            assert got.min() >= 0.0
        for j in (0, n - 1):  # a seed's own norm read from sq_norms, as seeding does
            out = np.full((n, 1), np.nan)
            got = _sq_dists(2.0 * points, sq_norms, points[j : j + 1], sq_norms[j : j + 1], out)
            assert got.tobytes() == loop_sq_dists(points, points[j : j + 1]).tobytes()

    def test_draw_matches_rng_choice_draw_by_draw(self):
        gen = np.random.default_rng(7)
        for trial in range(400):
            n = int(gen.integers(1, 50))
            weights = gen.random(n) * (gen.random(n) < 0.5)  # about half zero-weight
            weights[int(gen.integers(n))] = gen.random() + 1e-3  # at least one positive
            if trial % 4 == 0:
                weights *= 1e-300  # tiny weights
            if trial % 5 == 0:
                weights[:] = 0.0  # every point coincides with a seed: a uniform draw
            total = weights.sum()
            before = weights.copy()
            cdf = np.full(n, np.nan)  # stale scratch
            ours, oracle = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(5):
                idx = _draw(ours, weights, cdf)
                if total <= 0:
                    assert idx == int(oracle.integers(n))
                else:
                    assert idx == int(oracle.choice(n, p=weights / total))
                    assert weights[idx] > 0
            assert weights.tobytes() == before.tobytes()
            assert ours.random() == oracle.random()  # the generators stay in step


class TestKMeans:
    def test_two_points_two_clusters(self):
        res = kmeans(np.array([[0.0], [10.0]]), 2, seed=0)
        assert sorted(res.centroids.ravel().tolist()) == [0.0, 10.0]
        assert res.objective == 0.0

    def test_k1_is_global_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        res = kmeans(pts, 1, seed=0)
        assert np.allclose(res.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_k_clamped_to_n(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        res = kmeans(pts, 10, seed=0)
        assert res.centroids.shape == (3, 1)
        assert res.objective == 0.0

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            pts = rng.normal(size=(int(rng.integers(10, 60)), int(rng.integers(1, 4))))
            res = kmeans(pts, int(rng.integers(2, 5)), seed=trial)
            hist = res.objective_history
            assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_centroids_equal_assigned_means(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        res = kmeans(pts, 4, seed=0)
        for c in range(4):
            members = pts[res.assignments == c]
            assert len(members) > 0
            assert np.allclose(res.centroids[c], members.mean(axis=0), atol=1e-9)

    def test_duplicate_points_and_empty_cluster_repair(self):
        pts = np.vstack([np.zeros((5, 2)), np.ones((2, 2)) * 9])
        res = kmeans(pts, 3, seed=0)
        assert len(np.unique(res.assignments)) == 3

    def test_close_to_bruteforce_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(10, 50))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            pts = rng.normal(size=(n, d))
            ours = kmeans(pts, k, seed=trial).objective
            oracle = min(reference_lloyd(pts, k, rng) for _ in range(100))
            assert ours <= oracle * 1.05 + 1e-9

    def test_bad_inputs(self):
        with pytest.raises(NumericError):
            kmeans(np.array([[np.inf]]), 1, seed=0)
        with pytest.raises(DataError):
            kmeans(np.zeros((0, 2)), 1, seed=0)
        with pytest.raises(DataError):
            kmeans(np.zeros((3, 2)), 0, seed=0)


class TestExtractPrototypes:
    def setup_method(self):
        from protobank.pretrain import PretrainConfig, pretrain
        from protobank.declarations import SplitSpec, split
        from protobank.encoder import EncoderConfig

        ds = separable_dataset(n=200)
        parts = split(ds, SplitSpec(15, 10))
        cfg = PretrainConfig(epochs=2, batch_size=32, seed=0, encoder=EncoderConfig(k=4, d=8, n_kernels=2))
        self.params, _ = pretrain(parts["train"], parts["valid"], cfg)
        self.train = parts["train"]

    def test_clamping_to_class_counts(self):
        proto = extract_prototypes(self.params, self.train, per_class=500, seed=0)
        y = np.array([1 if r.illicit else 0 for r in self.train.records])
        assert proto.fraud_prototypes.shape == (int(y.sum()), 8)
        assert proto.nonfraud_prototypes.shape == (int((1 - y).sum()), 8)

    def test_k_equals_n_returns_permutation_of_embeddings(self):
        from protobank.encoder import embed_matrix

        proto = extract_prototypes(self.params, self.train, per_class=10**6, seed=0)
        h = embed_matrix(self.params, self.train.records)
        y = np.array([bool(r.illicit) for r in self.train.records])
        fraud_rows = {tuple(np.round(r, 9)) for r in h[y]}
        proto_rows = {tuple(np.round(r, 9)) for r in proto.fraud_prototypes}
        assert proto_rows == fraud_rows

    def test_prototypes_carry_no_record_fields(self):
        proto = extract_prototypes(self.params, self.train, per_class=5, seed=0)
        assert proto.fraud_prototypes.dtype == np.float64
        assert proto.fraud_prototypes.shape[1] == self.params.config.d
        # container round-trip carries only the matrices and source metadata
        fields = set(vars(proto))
        assert fields == {
            "source_id", "dim", "fraud_prototypes", "nonfraud_prototypes", "created_at",
        }

    def test_order_invariance_via_dataset_normalization(self):
        proto_a = extract_prototypes(self.params, self.train, per_class=7, seed=3)
        from protobank.declarations import CountryDataset

        shuffled = CountryDataset.build(self.train.country_id, self.train.records[::-1])
        proto_b = extract_prototypes(self.params, shuffled, per_class=7, seed=3)
        assert np.array_equal(proto_a.fraud_prototypes, proto_b.fraud_prototypes)
        assert np.array_equal(proto_a.nonfraud_prototypes, proto_b.nonfraud_prototypes)

    def test_missing_class_rejected(self):
        clean = self.train.subset(self.train.records.illicit != 1)
        with pytest.raises(DataError):
            extract_prototypes(self.params, clean, per_class=5, seed=0)


class TestAssembleAndRandomBank:
    def _proto(self, sid, dim=4, nf=3, nn=2, seed=0):
        rng = np.random.default_rng(seed)
        return PrototypeSet(sid, dim, rng.normal(size=(nf, dim)), rng.normal(size=(nn, dim)))

    def test_empty_bank(self):
        bank = assemble([])
        assert len(bank) == 0
        assert bank.dim is None

    def test_row_counting_and_order(self):
        a = self._proto("A", nf=10, nn=10, seed=1)
        b = self._proto("B", nf=5, nn=5, seed=2)
        bank = assemble([a, b])
        assert len(bank) == 30
        mat = bank.matrix()
        assert np.array_equal(mat[:10], a.fraud_prototypes)
        assert np.array_equal(mat[10:20], a.nonfraud_prototypes)
        assert np.array_equal(mat[20:25], b.fraud_prototypes)

    def test_dim_mismatch_and_duplicates(self):
        with pytest.raises(DataError):
            assemble([self._proto("A", dim=4), self._proto("B", dim=5)])
        with pytest.raises(DataError):
            assemble([self._proto("A"), self._proto("A", seed=9)])

    def test_random_bank_deterministic_and_normalized(self):
        a = random_bank(32, 1000, seed=5)
        b = random_bank(32, 1000, seed=5)
        assert a == b
        assert a.fraud_prototypes.shape == (500, 32)
        assert a.nonfraud_prototypes.shape == (500, 32)
        norms = np.linalg.norm(a.rows(), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_random_bank_too_small(self):
        with pytest.raises(DataError):
            random_bank(4, 1, seed=0)


class TestSerialization:
    def _proto(self, sid="XX", dim=4, nf=3, nn=2, seed=0, created_at=123):
        rng = np.random.default_rng(seed)
        return PrototypeSet(
            sid, dim, rng.normal(size=(nf, dim)), rng.normal(size=(nn, dim)), created_at
        )

    def test_round_trip_prototype_set(self):
        ps = self._proto()
        blob = serialize(ps)
        again = deserialize(blob)
        assert again == ps
        assert serialize(again) == blob

    def test_round_trip_memory_bank(self):
        bank = assemble([self._proto("A"), self._proto("B", seed=1)])
        blob = serialize(bank)
        assert deserialize(blob) == bank

    def test_empty_bank_round_trip(self):
        blob = serialize(MemoryBank())
        again = deserialize(blob)
        assert isinstance(again, MemoryBank)
        assert len(again) == 0

    def test_every_single_byte_flip_rejected(self):
        blob = bytearray(serialize(self._proto(nf=2, nn=1)))
        for pos in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            with pytest.raises(FormatError):
                deserialize(bytes(corrupted))

    def test_truncation_rejected(self):
        blob = serialize(self._proto())
        for cut in (0, 4, 8, len(blob) // 2, len(blob) - 1):
            with pytest.raises(FormatError):
                deserialize(blob[:cut])

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError):
            deserialize(b"NOTMAGIC" + b"\0" * 32)


class TestBankService:
    @pytest.fixture()
    def server(self, tmp_path):
        srv = BankServer(tmp_path / "store")
        serve_in_thread(srv)
        yield srv
        srv.shutdown()
        srv.server_close()

    def _proto(self, sid, seed=0):
        rng = np.random.default_rng(seed)
        return PrototypeSet(sid, 6, rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), 42)

    def test_put_get_byte_identity(self, server):
        blob = serialize(self._proto("AA"))
        with BankClient(server.address) as client:
            client.put(blob)
            assert client.get(["AA"]) == [blob]

    def test_get_unknown_id(self, server):
        with BankClient(server.address) as client:
            with pytest.raises(DataError, match="unknown source_id"):
                client.get(["nope"])

    def test_list_and_replace(self, server):
        with BankClient(server.address) as client:
            client.put(self._proto("AA", seed=1))
            client.put(self._proto("BB", seed=2))
            assert client.list() == [("AA", 42), ("BB", 42)]
            replacement = serialize(self._proto("AA", seed=9))
            client.put(replacement)
            assert client.get(["AA"]) == [replacement]

    def test_a_new_server_serves_what_an_earlier_one_stored(self, server):
        blobs = {sid: serialize(self._proto(sid, seed=j)) for j, sid in enumerate(("BB", "AA"))}
        with BankClient(server.address) as client:
            for blob in blobs.values():
                client.put(blob)
            listed = client.list()
        again = BankServer(server.store.root)
        serve_in_thread(again)
        try:
            with BankClient(again.address) as client:
                assert client.list() == listed == [("AA", 42), ("BB", 42)]
                assert client.get(["BB", "AA"]) == [blobs["BB"], blobs["AA"]]
        finally:
            again.shutdown()
            again.server_close()

    def test_malformed_upload_rejected_before_storage(self, server, tmp_path):
        with BankClient(server.address) as client:
            with pytest.raises(DataError):
                client.put(b"garbage bytes")
            assert client.list() == []

    def test_concurrent_puts_distinct_ids(self, server):
        blobs = {f"C{i}": serialize(self._proto(f"C{i}", seed=i)) for i in range(8)}
        errors = []

        def worker(sid):
            try:
                with BankClient(server.address) as client:
                    client.put(blobs[sid])
                    got = client.get([sid])
                    assert got == [blobs[sid]]
            except Exception as e:  # noqa: BLE001 - collected for the main thread
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(sid,)) for sid in blobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with BankClient(server.address) as client:
            for sid, blob in blobs.items():
                assert client.get([sid]) == [blob]


    def test_concurrent_put_and_list_name_each_set_once(self, server):
        blobs = [serialize(self._proto(f"C{i}", seed=i)) for i in range(4)]
        with BankClient(server.address) as client:
            for blob in blobs:
                client.put(blob)
        expected = [(f"C{i}", 42) for i in range(4)]
        stop = threading.Event()
        errors, listings = [], []

        def putter():
            try:
                with BankClient(server.address) as client:
                    while not stop.is_set():
                        for blob in blobs:
                            client.put(blob)
            except Exception as e:  # noqa: BLE001 - collected for the main thread
                errors.append(e)

        def lister():
            try:
                with BankClient(server.address) as client:
                    for _ in range(150):
                        listings.append(client.list())
            except Exception as e:  # noqa: BLE001 - collected for the main thread
                errors.append(e)

        putters = [threading.Thread(target=putter) for _ in range(2)]
        listers = [threading.Thread(target=lister) for _ in range(2)]
        for t in putters + listers:
            t.start()
        for t in listers:
            t.join(timeout=60)
        stop.set()
        for t in putters:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in putters + listers)
        assert not errors
        assert len(listings) == 300
        assert all(listing == expected for listing in listings)

    def test_bad_get_id_answers_error_frame_on_live_connection(self, server):
        with BankClient(server.address) as client:
            client.put(self._proto("AA"))
            body = struct.pack("<I", 1) + _pack_blob(b"\xff\xfe")  # not UTF-8
            with pytest.raises(DataError, match="utf-8"):
                client._call(OP_GET, body)
            assert client.list() == [("AA", 42)]

    @pytest.mark.parametrize("length", [0, 2**32 - 1])
    def test_bad_frame_length_answers_error_frame_then_closes(self, server, length):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(struct.pack("<I", length))
            frame = _read_frame(sock, _RecvBuffer())
            assert frame is not None
            status, payload = frame
            assert status == 1
            assert b"bad frame length" in bytes(payload)
            assert sock.recv(1) == b""  # framing is lost, so the server closes

    def test_store_read_error_answers_error_frame_on_live_connection(self, server, monkeypatch):
        def failing_get(source_id):
            raise OSError("read failed")

        with BankClient(server.address) as client:
            client.put(self._proto("AA"))
            monkeypatch.setattr(server.store, "get", failing_get)
            with pytest.raises(DataError, match="read failed"):
                client.get(["AA"])
            assert client.list() == [("AA", 42)]

    @staticmethod
    def _watch_connections(server, monkeypatch):
        """Lists that collect `handle_error` calls and, in order, the connections that ended."""
        errors, done = [], []
        monkeypatch.setattr(server, "handle_error", lambda request, address: errors.append(address))
        shutdown_request = server.shutdown_request

        def finished(request):
            shutdown_request(request)
            done.append(request)

        monkeypatch.setattr(server, "shutdown_request", finished)
        return errors, done

    @staticmethod
    def _wait_for(predicate, seconds=10.0):
        deadline = time.monotonic() + seconds
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            time.sleep(0.01)

    def test_client_hanging_up_before_its_reply_ends_the_connection_quietly(
        self, server, monkeypatch
    ):
        errors, done = self._watch_connections(server, monkeypatch)
        for j in range(3):  # a 15 MB reply, far beyond the socket buffers
            server.store.put(serialize(random_bank(32, 20_000, seed=j, source_id=f"S{j}")))
        body = struct.pack("<I", 3) + b"".join(_pack_blob(f"S{j}".encode()) for j in range(3))
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(struct.pack("<IB", 1 + len(body), OP_GET) + body)
        sock.recv(4)  # the reply has started
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()  # reset, with most of the reply unsent
        self._wait_for(lambda: len(done) == 1)
        assert errors == []
        with BankClient(server.address) as client:
            assert [s for s, _ in client.list()] == ["S0", "S1", "S2"]

    def test_idle_connections_time_out(self, server, monkeypatch):
        errors, done = self._watch_connections(server, monkeypatch)
        monkeypatch.setattr(bank_module, "_IDLE_TIMEOUT", 0.5)
        idle = socket.create_connection(server.address, timeout=10)
        mid_header = socket.create_connection(server.address, timeout=10)
        mid_header.sendall(b"\x10\x00")
        mid_body = socket.create_connection(server.address, timeout=10)
        mid_body.sendall(struct.pack("<IB", 100, OP_PUT) + b"x" * 10)
        with BankClient(server.address) as client:  # served while the others wait
            client.put(self._proto("AA"))
            assert client.list() == [("AA", 42)]
        for sock in (idle, mid_header, mid_body):
            with sock:
                assert sock.recv(1) == b""  # closed by the server
        self._wait_for(lambda: len(done) == 4)
        assert errors == []
        with BankClient(server.address) as client:
            assert client.get(["AA"]) == [serialize(self._proto("AA"))]


class TestBankStore:
    def test_atomic_replace_and_safe_ids(self, tmp_path):
        store = BankStore(tmp_path)
        rng = np.random.default_rng(0)
        ps = PrototypeSet("ok-id_1.x", 3, rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
        store.put(serialize(ps))
        assert store.get("ok-id_1.x") == serialize(ps)
        bad = PrototypeSet("../evil", 3, rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
        with pytest.raises(DataError):
            store.put(serialize(bad))

    def test_leftover_temp_file_not_listed(self, tmp_path, monkeypatch):
        store = BankStore(tmp_path)
        rng = np.random.default_rng(0)
        blob = serialize(PrototypeSet("AA", 3, rng.normal(size=(1, 3)), rng.normal(size=(1, 3))))
        store.put(blob)
        # an upload that never reached its rename leaves its temp file behind
        with monkeypatch.context() as m:
            m.setattr(os, "replace", lambda src, dst: None)
            store.put(blob)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert store.list() == [("AA", 0)]
        assert store.get("AA") == blob

    def test_list_skips_unreadable_files(self, tmp_path):
        rng = np.random.default_rng(0)
        ps = PrototypeSet("AA", 3, rng.normal(size=(1, 3)), rng.normal(size=(1, 3)), 7)
        BankStore(tmp_path).put(serialize(ps))
        (tmp_path / "ZZ.pbnk").write_bytes(b"ZZZZ")  # truncated stream
        (tmp_path / "BB.pbnk").write_bytes(serialize(MemoryBank((ps,))))  # not a set
        (tmp_path / "CC.pbnk").mkdir()  # unreadable: a directory
        (tmp_path / "XX.pbnk").write_bytes(serialize(ps))  # holds AA: not named after its id
        store = BankStore(tmp_path)
        assert store.list() == [("AA", 7)]
        assert store.get("AA") == serialize(ps)
        with pytest.raises(DataError, match="unknown source_id"):
            store.get("XX")

    @staticmethod
    def _blob(sid, seed=0, created_at=0):
        rng = np.random.default_rng(seed)
        return serialize(PrototypeSet(sid, 3, rng.normal(size=(2, 3)), rng.normal(size=(1, 3)),
                                      created_at))

    def test_a_new_store_serves_what_an_earlier_one_wrote(self, tmp_path):
        first = BankStore(tmp_path)
        for j, sid in enumerate(("BB", "AA", "A-B", "A")):
            first.put(self._blob(sid, seed=j, created_at=10 + j))
        first.put(self._blob("AA", seed=9, created_at=99))  # a replaced set
        again = BankStore(tmp_path)
        assert again.list() == first.list()
        for sid, _ in first.list():
            assert again.get(sid) == first.get(sid)
        assert again.get("AA") == self._blob("AA", seed=9, created_at=99)

    def test_list_is_in_file_name_order(self, tmp_path):
        store = BankStore(tmp_path)
        for j, sid in enumerate(("A", "A-B", "B")):
            store.put(self._blob(sid, seed=j, created_at=j))
        # "A-B.pbnk" sorts before "A.pbnk", although "A" sorts before "A-B"
        assert store.list() == [("A-B", 1), ("A", 0), ("B", 2)]
        assert [s for s, _ in store.list()] == [p.stem for p in sorted(tmp_path.glob("*.pbnk"))]
        assert BankStore(tmp_path).list() == store.list()

    def test_get_and_list_open_no_file(self, tmp_path, monkeypatch):
        blobs = {sid: self._blob(sid, seed=j) for j, sid in enumerate(("AA", "BB"))}
        for blob in blobs.values():
            BankStore(tmp_path).put(blob)
        store = BankStore(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("a file was opened")

        for owner, name in ((pathlib.Path, "read_bytes"), (builtins, "open"), (io, "open"),
                            (os, "open")):
            monkeypatch.setattr(owner, name, refuse)
        assert store.list() == [("AA", 0), ("BB", 0)]
        assert [store.get(sid) for sid in blobs] == list(blobs.values())
        reply = _Handler._dispatch(store, OP_GET, _ids_body(2, [b"BB", b"AA"]))
        assert b"".join(reply) == _ids_body(2, [blobs["BB"], blobs["AA"]])

    def test_concurrent_puts_of_one_id_leave_memory_and_disk_equal(self, tmp_path):
        store = BankStore(tmp_path)
        versions = [self._blob("AA", seed=v, created_at=v) for v in range(4)]
        errors = []

        def putter(k):
            try:
                for i in range(40):
                    store.put(memoryview(versions[(k + i) % len(versions)]))
            except Exception as e:  # noqa: BLE001 - collected for the main thread
                errors.append(e)

        threads = [threading.Thread(target=putter, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, between rename and memory update too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        on_disk = (tmp_path / "AA.pbnk").read_bytes()
        assert store.get("AA") == on_disk == BankStore(tmp_path).get("AA")
        assert store.list() == [("AA", versions.index(on_disk))]
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]

    def test_a_put_renames_and_updates_memory_in_one_step(self, tmp_path, monkeypatch):
        store = BankStore(tmp_path)
        first, second = (self._blob("AA", seed=v, created_at=v) for v in (1, 2))
        renamed, second_done = threading.Event(), threading.Event()
        replace = os.replace

        def first_replace_stalls(src, dst):
            replace(src, dst)
            if not renamed.is_set():
                renamed.set()
                # the second PUT runs here in full unless the store locks it out
                second_done.wait(timeout=0.5)

        monkeypatch.setattr(os, "replace", first_replace_stalls)
        putter = threading.Thread(target=store.put, args=(first,))
        putter.start()
        assert renamed.wait(timeout=10)
        store.put(second)
        second_done.set()
        putter.join(timeout=10)
        assert not putter.is_alive()
        assert store.get("AA") == (tmp_path / "AA.pbnk").read_bytes() == second
        assert BankStore(tmp_path).get("AA") == second


def _ids_body(count, ids):
    return struct.pack("<I", count) + b"".join(_pack_blob(i) for i in ids)


_STORED = PrototypeSet("AA", 3, np.ones((2, 3)), np.zeros((1, 3)), 5)
_ID_BYTES = st.one_of(
    st.sampled_from([b"AA", b"ZZ", b"../AA", b"", b"A/B", b"\xff\xfe"]),
    st.binary(max_size=6),
)


def _mutated_set(edits):
    body = bytearray(serialize(_STORED)[:-8])
    for pos, value in edits:
        body[pos % len(body)] = value
    return bytes(body) + struct.pack("<Q", zlib.crc32(bytes(body)) & 0xFFFFFFFF)


class TestDispatchContract:
    """Any opcode and body: `_Handler._dispatch` answers bytes or raises an error it frames."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.one_of(st.sampled_from([OP_PUT, OP_GET, OP_LIST]), st.integers(0, 255)),
        st.one_of(
            st.binary(max_size=64),
            st.builds(_ids_body, st.integers(0, 2**32 - 1), st.lists(_ID_BYTES, max_size=4)),
            st.builds(_mutated_set, st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)),
                                             max_size=3)),
        ),
    )
    def test_any_request(self, opcode, body):
        with tempfile.TemporaryDirectory() as root:
            store = BankStore(root)
            store.put(serialize(_STORED))
            try:
                reply = _Handler._dispatch(store, opcode, body)
            except (DataError, OSError):  # what the handler answers with an error frame
                return
            assert isinstance(reply, list) and all(isinstance(p, bytes) for p in reply)

    def test_put_with_overflowing_row_count_is_refused(self, tmp_path):
        body = bytearray(serialize(_STORED)[:-8])
        struct.pack_into("<II", body, 12, 2**32 - 1, 2**32 - 1)  # dim, fraud rows
        blob = bytes(body) + struct.pack("<Q", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
        with pytest.raises(FormatError):
            _Handler._dispatch(BankStore(tmp_path), OP_PUT, blob)


def _old_frame(tag: int, body: bytes) -> bytes:
    """The frame bytes the exchange has always sent: the oracle for `_write_frame`."""
    return struct.pack("<I", 1 + len(body)) + bytes([tag]) + body


class _ChunkySocket:
    """A socket that receives `incoming` in random chunks and sends random prefixes."""

    def __init__(self, incoming: bytes = b"", seed: int = 0, max_chunk: int = 70_000):
        self.incoming, self.pos = incoming, 0
        self.rng = np.random.default_rng(seed)
        self.max_chunk = max_chunk
        self.sent = bytearray()

    def recv_into(self, view) -> int:
        n = min(len(view), len(self.incoming) - self.pos, int(self.rng.integers(1, self.max_chunk)))
        view[:n] = self.incoming[self.pos : self.pos + n]
        self.pos += n
        return n

    def sendmsg(self, buffers) -> int:
        assert len(buffers) <= bank_module._IOV_MAX
        data = b"".join(buffers)
        n = int(self.rng.integers(1, len(data) + 1)) if data else 0
        self.sent += data[:n]
        return n


def _parts(seed: int, sizes: list[int]) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [rng.bytes(n) for n in sizes]


class TestWireFrames:
    """`_write_frame` sends the old bytes; `_read_frame` returns what was sent."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255),
                st.one_of(
                    st.lists(st.integers(0, 300), max_size=8),
                    st.lists(st.sampled_from([0, 4, 8, 40_000, 300_000]), max_size=4),
                    st.integers(1020, 2100).map(lambda n: [4, 0, 9] * (n // 3)),  # > _IOV_MAX parts
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_frames_round_trip_in_random_chunks(self, frames, seed):
        out = _ChunkySocket(seed=seed)
        expected = []
        for k, (tag, sizes) in enumerate(frames):
            parts = _parts(seed + k, sizes)
            _write_frame(out, tag, parts)
            expected.append((tag, b"".join(parts)))
        assert bytes(out.sent) == b"".join(_old_frame(tag, body) for tag, body in expected)
        sock, rx = _ChunkySocket(bytes(out.sent), seed=seed + 1), _RecvBuffer()
        for tag, body in expected:
            got_tag, payload = _read_frame(sock, rx)
            assert (got_tag, bytes(payload)) == (tag, body)
        assert _read_frame(sock, rx) is None

    def test_larger_frame_while_previous_payload_is_alive(self):
        small, large = b"s" * 10, _parts(1, [1_000_000])[0]
        big = _parts(2, [bank_module._KEEP_RECV + 1])[0]
        sock = _ChunkySocket(_old_frame(1, small) + _old_frame(2, large) + _old_frame(3, big))
        rx = _RecvBuffer()
        first = _read_frame(sock, rx)
        assert bytes(first[1]) == small
        second = _read_frame(sock, rx)  # grows the buffer while `first` holds a view of it
        assert (second[0], bytes(second[1])) == (2, large)
        third = _read_frame(sock, rx)
        assert (third[0], bytes(third[1])) == (3, big)
        assert len(rx.data) <= bank_module._KEEP_RECV  # not kept past its frame

    @pytest.mark.parametrize("received", [0, 1_000_000])
    def test_declared_length_is_not_allocated_before_it_arrives(self, received):
        head = struct.pack("<I", 200 * 1024 * 1024) + bytes(received)
        sock, rx = _ChunkySocket(head), _RecvBuffer()
        tracemalloc.start()
        try:
            with pytest.raises(ConnectionError):
                _read_frame(sock, rx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    def test_replies_join_to_the_old_bodies(self, tmp_path):
        store = BankStore(tmp_path)
        blobs = [serialize(random_bank(4, 6, seed=j, source_id=f"S{j}")) for j in range(3)]
        for blob in blobs:
            store.put(blob)
        ids = ["S2", "S0", "S2"]
        reply = _Handler._dispatch(store, OP_GET, _ids_body(3, [i.encode() for i in ids]))
        by_id = dict(zip(["S0", "S1", "S2"], blobs))
        old_get = struct.pack("<I", 3) + b"".join(_pack_blob(by_id[i]) for i in ids)
        assert b"".join(reply) == old_get
        old_list = struct.pack("<I", 3)
        for sid in ("S0", "S1", "S2"):
            old_list += _pack_blob(sid.encode()) + struct.pack("<Q", 0)
        assert b"".join(_Handler._dispatch(store, OP_LIST, b"")) == old_list
        assert _Handler._dispatch(store, OP_PUT, blobs[0]) == []

    def test_get_reply_over_the_frame_limit_is_refused(self, tmp_path, monkeypatch):
        store = BankStore(tmp_path)
        blob = serialize(random_bank(4, 6, seed=0, source_id="S0"))
        store.put(blob)
        limit = 1 + 4 + 2 * (4 + len(blob))
        monkeypatch.setattr(bank_module, "_MAX_MESSAGE", limit)
        reply = _Handler._dispatch(store, OP_GET, _ids_body(2, [b"S0"] * 2))
        assert 1 + len(b"".join(reply)) == limit  # exactly at the limit: served
        with pytest.raises(DataError, match="frame limit"):
            _Handler._dispatch(store, OP_GET, _ids_body(3, [b"S0"] * 3))

    def test_client_requests_are_the_old_frames(self):
        """What `BankClient` sends for PUT, GET and LIST, read off a one-shot server."""
        blob = serialize(random_bank(4, 6, seed=0, source_id="S0"))
        calls = [
            (lambda c: c.put(blob), _old_frame(OP_PUT, blob), b""),
            (lambda c: c.get(["S0", "é"]),
             _old_frame(OP_GET, _ids_body(2, [b"S0", "é".encode()])),
             _ids_body(2, [blob, b"x"])),
            (lambda c: c.list(), _old_frame(OP_LIST, b""), b"\0\0\0\0"),
        ]
        with socket.create_server(("127.0.0.1", 0)) as listener:
            received = []

            def serve():
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as reader:
                    for _, request, reply in calls:
                        received.append(reader.read(len(request)))
                        conn.sendall(_old_frame(0, reply))

            thread = threading.Thread(target=serve)
            thread.start()
            with BankClient(listener.getsockname()) as client:
                results = [call(client) for call, _, _ in calls]
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert received == [request for _, request, _ in calls]
        assert results == [None, [blob, b"x"], []]
        assert all(type(b) is bytes for b in results[1])
