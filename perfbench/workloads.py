"""The four benchmark workloads: set-up, one operation, and output checks.

Every workload is a closed loop: a client issues its next operation only
after the previous one returned, because every caller of this system
blocks on its result. The workload seed is the only input; it fixes the
generated world (score_bulk), the pipeline or k-means seeds (transfer,
export) and the payloads, offices and request order (exchange), so the same
seed gives the same inputs and the program sees only those inputs.

Why these four (each later perf claim names one metric on one of them):

* transfer   - one seed of the paper's proto_single pipeline. The training
               path (autodiff, encoder conv, pretrain, finetune) does ~95 %
               of the work; k-means, the exchange and ingest a few percent.
* score_bulk - CSV ingest, split and mask, then forward-only scoring of
               every row against a 2000-row memory bank. No backward pass,
               no optimizer, no k-means: data path and inference path only.
* export     - one source office's export: fraud-like selection over a big
               source, per-class k-means with k=500, serialization. The
               only workload where k-means is a large share.
* exchange   - two connections against the shipped `serve-bank` CLI in a
               subprocess, replaying the bank traffic of the `multi`
               experiment suite (PUT per export, GET+decode per fine-tune)
               plus LIST and corrupted PUTs. The only workload dominated by
               the wire protocol and the store.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from protobank import adapt
from protobank.adapt import FinetuneConfig, finetune
from protobank.bank import BankClient, BankStore, assemble, extract_prototypes, random_bank
from protobank.container import PrototypeSet, deserialize, serialize
from protobank.declarations import (
    CountrySpec,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    load_csv,
    mask_labels,
    split,
    write_csv,
)
from protobank.encoder import embed_matrix
from protobank.errors import DataError, ProtobankError
from protobank.evaluation import revenue_at_k, suite_configs, two_country_world_config
from protobank.pretrain import PretrainConfig, pretrain, select_fraud_like

from reference import Reference
from spans import CHECK

INSPECTION_RATE = 0.05
LABEL_FRACTION = 0.01
FRAUD_LIKE_FRACTION = 0.05
PER_CLASS = 500


@dataclass
class OpResult:
    """One completed operation: its wall time, failed checks, and outputs."""

    seconds: float
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""  # what a traced rerun of the same op must reproduce
    out: dict = field(default_factory=dict)  # raw outputs, for `check` and `summary`
    kind: str = "op"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _score_checks(scores: np.ndarray, n_rows: int, revenue: float,
                  expected: float | None) -> list[str]:
    """Score shape and finiteness; Revenue@5 in [0, 1] and equal to its reference, if any."""
    out = []
    if scores.shape != (n_rows,):
        out.append(f"{scores.shape} scores for {n_rows} rows")
    elif not np.all(np.isfinite(scores)):
        out.append("non-finite scores")
    if not 0.0 <= revenue <= 1.0:
        out.append(f"revenue_at_5 {revenue} outside [0, 1]")
    if expected is not None and revenue != expected:
        out.append(f"revenue_at_5 {revenue.hex()} differs from reference.json {expected.hex()}")
    return out


# ---------------------------------------------------------------------------
# the exchange server, run through the shipped CLI in its own process


class ServerProcess:
    """`protobank serve-bank` in a subprocess, with BLAS threads pinned."""

    def __init__(self, root: Path, store_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "protobank.cli", "serve-bank", "--dir", str(store_dir),
             "--listen", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.log: list[str] = []
        address = None
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            match = re.search(r"^serving bank store .* on (.+):(\d+)$", line.strip())
            if match:
                address = (match.group(1), int(match.group(2)))
                break
        if address is None:
            self.proc.wait(timeout=30)
            raise RuntimeError("serve-bank exited before serving: " + " | ".join(self.log))
        self.ready_s = time.perf_counter() - started
        self.address = address
        # drain stderr so a chatty server can never block on a full pipe
        self._drain = threading.Thread(target=self._read_log, daemon=True)
        self._drain.start()

    def _read_log(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line.rstrip())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # serve-bank shuts down cleanly on SIGINT
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._drain.join(timeout=10)
        self.proc.stderr.close()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: one client in a closed loop over `op(i)`.

    Set-up is `prepare` then `setup`. `prepare` leaves its results in files
    under `tmp`; an untraced run calls it in a child process, so that the
    memory it needs stays out of `peak_rss_mb`. `setup` loads them.
    `op` does the timed work and keeps its raw outputs in `OpResult.out`;
    `check` then verifies them outside the timing (and, in a traced run,
    outside every measured operation), against reference.json unless
    `compare` is false.
    """

    name = ""
    # per-layer metrics that must be nonzero in this workload's traced run
    must_fire: tuple[str, ...] = ()

    def __init__(self, seed: int, root: Path, tmp: Path, compare: bool = True):
        self.seed, self.root, self.tmp = seed, root, tmp
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.server: ServerProcess | None = None
        self.reference = Reference(seed) if compare else None

    def prepare(self) -> None:
        """Heavy set-up whose results go to files under `tmp`; none by default."""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, res: OpResult) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def measure(self, seconds: float, tracer=None) -> tuple[list[OpResult], float]:
        """Ops 0, 1, ... back to back until `seconds` have passed (at least one).

        Returns the ops and the measured time, which includes the output checks.
        """
        ops: list[OpResult] = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            i = len(ops)
            if tracer is not None:
                tracer.set_op(i)
            try:
                res = self.op(i)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, the loop goes on
                traceback.print_exc()
                res = OpResult(0.0, [f"op {i}: {type(exc).__name__}: {exc}"])
            else:
                if tracer is not None:
                    tracer.set_op(CHECK)
                self.check(res)
            ops.append(res)
        return ops, time.perf_counter() - start

    def summary(self, ops: list[OpResult], elapsed: float) -> list[tuple[str, float, str, str]]:
        """This workload's named end-to-end metrics: (name, value, unit, note)."""
        raise NotImplementedError


_TRAIN_PATH = ("pretrain.pretrain_s", "pretrain.scl_loss_s", "pretrain.best_epoch_share",
               "adapt.finetune_s", "adapt.best_epoch_share", "numerics.backward_s",
               "numerics.opt_step_s", "numerics.opt_step_calls")
_ENCODER = ("encoder.batch_inputs_s", "encoder.embed_batch_s", "encoder.records",
            "numerics.fwd_s.conv2d", "numerics.fwd_s.outer", "numerics.fwd_s.matmul",
            "numerics.fwd_s.relu", "numerics.fwd_s.tanh", "numerics.fwd_s.sigmoid",
            "numerics.fwd_s.reduce_mean", "numerics.fwd_s.gather_rows",
            "numerics.fwd_s.concat")
_SCORING = ("adapt.target_forward_s", "adapt.memory_attend_s", "adapt.memory_attend_calls",
            "adapt.bank_rows", "adapt.score_records_s", "numerics.fwd_s.softmax",
            "evaluation.revenue_at_k_s", "evaluation.revenue_at_k_calls")
_EXPORT = ("pretrain.select_fraud_like_s", "encoder.score_records_s", "encoder.embed_matrix_s",
           "bank.kmeans_s", "bank.kmeans_calls", "bank.kmeans_points", "bank.kmeans_iters",
           "bank.extract_prototypes_s", "container.serialize_s", "container.bytes")
_CLIENT = ("bank.client_put_ms", "bank.client_get_ms", "bank.bytes_put", "bank.bytes_got",
           "container.deserialize_s", "cli.serve_bank_ready_s")
_SELF = tuple(f"{layer}.self_s" for layer in
              ("declarations", "numerics", "encoder", "pretrain", "bank", "container", "adapt",
               "evaluation"))


class Transfer(Workload):
    """One seed of proto_single on the default two-country world per operation."""

    name = "transfer"
    must_fire = (_TRAIN_PATH + _ENCODER + _SCORING + _EXPORT + _CLIENT
                 + tuple(f"numerics.fwd_s.{op}" for op in
                         ("reduce_sum", "exp", "log", "l2_normalize", "bce"))
                 + ("declarations.generate_world_s", "declarations.mask_labels_s") + _SELF)

    def setup(self) -> None:
        world = generate_world(two_country_world_config())
        self.src = split(world["SRC"], SplitSpec())
        self.tgt = split(world["TGT"], SplitSpec())
        self.server = ServerProcess(self.root, self.tmp / "store")
        self.client = BankClient(self.server.address)

    def close(self) -> None:
        if self.server is not None:
            self.client.close()
        super().close()

    def op(self, i: int) -> OpResult:
        s = self.seed * 1000 + i  # pipeline seed of this operation
        t0 = time.perf_counter()
        src_model, _ = pretrain(self.src["train"], self.src["valid"], PretrainConfig(seed=s))
        fraud_like = select_fraud_like(src_model, self.src["train"], FRAUD_LIKE_FRACTION)
        protos = extract_prototypes(src_model, fraud_like, PER_CLASS, seed=s)
        blob = serialize(protos)
        self.client.put(blob)
        (got,) = self.client.get([protos.source_id])
        bank = assemble([deserialize(got)])
        train = mask_labels(self.tgt["train"], LABEL_FRACTION, s)
        cfg = FinetuneConfig(init_from_source=True, use_memory=True, seed=s)
        model, _ = finetune(train, self.tgt["valid"], bank, src_model, cfg)
        scores = adapt.score_records(model, self.tgt["test"].records)
        revenue = revenue_at_k(scores, self.tgt["test"], INSPECTION_RATE)
        return OpResult(time.perf_counter() - t0, out={
            "op": i, "blob": blob, "got": got, "scores": scores, "revenue": revenue})

    def check(self, res: OpResult) -> None:
        out = res.out
        if out["got"] != out["blob"]:
            res.failures.append("GET bytes differ from PUT bytes")
        expected = self.reference.revenue(self.name) if self.reference and out["op"] == 0 else None
        res.failures += _score_checks(out["scores"], len(self.tgt["test"]), out["revenue"],
                                      expected)
        res.fingerprint = f"{out['revenue'].hex()} {_sha(out['blob'])}"

    def summary(self, ops, elapsed):
        first = ops[0].out
        return [
            ("transfer_s", statistics.median(o.seconds for o in ops), "s",
             f"median of {len(ops)} pipeline seeds"),
            ("revenue_at_5", first["revenue"], "fraction",
             f"pipeline seed {self.seed * 1000 + first['op']}"
             + (f", {self.reference.note(self.name)}" if first["op"] == 0 else "")),
        ]


class ScoreBulk(Workload):
    """Ingest, split, mask and score a big declarations CSV with one fixed model."""

    name = "score_bulk"
    N_ROWS = 20000  # declarations in the CSV read by every operation
    BANK_ROWS = 2000  # 10x the bank of `transfer`
    must_fire = (_ENCODER + _SCORING + ("declarations.load_csv_s", "declarations.split_s",
                 "declarations.mask_labels_s", "declarations.rows",
                 "declarations.generate_world_s", "declarations.self_s", "encoder.self_s",
                 "numerics.self_s", "adapt.self_s", "evaluation.self_s"))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.csv = self.tmp / "TGT.csv"
        self.fixed = self.tmp / "fixed.pkl"

    def prepare(self) -> None:
        cfg = SyntheticWorldConfig(
            seed=self.seed,
            countries=(
                CountrySpec("SRC", 5000, 210, 0.04, (0,)),
                CountrySpec("TGT", self.N_ROWS, 180, 0.05, (0,)),
            ),
            n_shared_patterns=1,
        )
        world = generate_world(cfg)
        write_csv(world["TGT"], self.csv)
        parts = split(world["TGT"], SplitSpec())
        expected = {k: len(v) for k, v in parts.items()}
        # one fixed fine-tuned memory model; short schedules keep set-up small
        src = split(world["SRC"], SplitSpec())
        enc, _ = pretrain(src["train"], src["valid"], PretrainConfig(epochs=2, seed=self.seed))
        labeled = src["train"].labeled()[: self.BANK_ROWS]
        h = embed_matrix(enc, labeled)
        fraud = np.array([r.illicit for r in labeled])
        # raw source representations: a 2000-row bank without running k-means
        bank = assemble([PrototypeSet("SRC", enc.config.d, h[fraud], h[~fraud])])
        train = mask_labels(parts["train"], LABEL_FRACTION, self.seed)
        ft = FinetuneConfig(epochs=3, init_from_source=True, use_memory=True, seed=self.seed)
        model, _ = finetune(train, parts["valid"], bank, enc, ft)
        self.fixed.write_bytes(pickle.dumps({"expected": expected, "model": model}))

    def setup(self) -> None:
        fixed = pickle.loads(self.fixed.read_bytes())
        self.expected, self.model = fixed["expected"], fixed["model"]

    def op(self, i: int) -> OpResult:
        t0 = time.perf_counter()
        ds = load_csv(self.csv, country_id="TGT")
        parts = split(ds, SplitSpec())
        train = mask_labels(parts["train"], LABEL_FRACTION, self.seed * 1000 + i)
        records = train.records + parts["valid"].records + parts["test"].records
        scores = adapt.score_records(self.model, records)
        test = parts["test"]
        revenue = revenue_at_k(scores[len(records) - len(test):], test, INSPECTION_RATE)
        return OpResult(time.perf_counter() - t0, out={
            "rows": len(ds), "parts": {k: len(v) for k, v in parts.items()},
            "labeled": len(train.labeled()), "scores": scores, "revenue": revenue})

    def check(self, res: OpResult) -> None:
        out = res.out
        if out["rows"] != self.N_ROWS:
            res.failures.append(f"load_csv read {out['rows']} rows, wrote {self.N_ROWS}")
        if out["parts"] != self.expected:
            res.failures.append(f"split sizes {out['parts']} != {self.expected}")
        budget = round(LABEL_FRACTION * self.expected["train"])
        if out["labeled"] != budget:
            res.failures.append(f"mask_labels kept {out['labeled']} labels, budget {budget}")
        expected = self.reference.revenue(self.name) if self.reference else None
        res.failures += _score_checks(out["scores"], self.N_ROWS, out["revenue"], expected)
        res.fingerprint = f"{out['revenue'].hex()} {_sha(out['scores'].tobytes())}"

    def summary(self, ops, elapsed):
        rows = sum(o.out["rows"] for o in ops)
        return [
            ("score_rows_per_s", rows / elapsed, "rows/s",
             f"{rows} rows in {len(ops)} passes of {self.N_ROWS}"),
            ("revenue_at_5", ops[0].out["revenue"], "fraction",
             f"fixed model, every op; {self.reference.note(self.name)}"),
        ]


class Export(Workload):
    """One source office's export over a big source with a fixed encoder."""

    name = "export"
    N_ROWS = 40000  # source declarations scored by select_fraud_like
    # The world and the encoder are fixed so that every seed exports the same
    # records (with 500+ of each class, so both k-means runs have k=500); the
    # workload seed drives the k-means seed of each export.
    WORLD_SEED = 14
    must_fire = _EXPORT + ("declarations.generate_world_s", "encoder.batch_inputs_s",
                           "encoder.embed_batch_s", "numerics.fwd_s.conv2d", "bank.self_s",
                           "encoder.self_s", "pretrain.self_s", "numerics.self_s",
                           "container.self_s")

    def setup(self) -> None:
        cfg = SyntheticWorldConfig(
            seed=self.WORLD_SEED,
            countries=(
                CountrySpec("TRAIN", 5000, 210, 0.04, (0, 1)),
                CountrySpec("SRC", self.N_ROWS, 240, 0.04, (0, 1)),
            ),
            n_shared_patterns=2,
        )
        world = generate_world(cfg)
        self.source = world["SRC"]
        # the encoder is trained on a smaller office of the same world
        part = split(world["TRAIN"], SplitSpec())
        self.encoder, _ = pretrain(part["train"], part["valid"],
                                   PretrainConfig(epochs=2, seed=self.WORLD_SEED))
        self._h_key = None

    def op(self, i: int) -> OpResult:
        t0 = time.perf_counter()
        fraud_like = select_fraud_like(self.encoder, self.source, FRAUD_LIKE_FRACTION)
        protos = extract_prototypes(self.encoder, fraud_like, PER_CLASS, seed=self.seed * 1000 + i)
        blob = serialize(protos)
        return OpResult(time.perf_counter() - t0,
                        out={"op": i, "fraud_like": fraud_like, "protos": protos, "blob": blob})

    def check(self, res: OpResult) -> None:
        out = res.out
        labeled = out["fraud_like"].labeled()
        key = tuple(r.id for r in labeled)
        if self._h_key != key:  # the subset repeats across ops: embed it once
            self._h_key, self._h = key, embed_matrix(self.encoder, labeled)
        fraud = np.array([r.illicit for r in labeled])
        protos = out["protos"]
        inertia = 0.0
        for rows, cents, label in ((self._h[fraud], protos.fraud_prototypes, "fraud"),
                                   (self._h[~fraud], protos.nonfraud_prototypes, "non-fraud")):
            if cents.shape[0] != min(PER_CLASS, rows.shape[0]):
                res.failures.append(f"{cents.shape[0]} {label} prototypes for {rows.shape[0]} records")
            d2 = (rows * rows).sum(1)[:, None] - 2 * rows @ cents.T + (cents * cents).sum(1)
            inertia += float(np.maximum(d2, 0.0).min(axis=1).sum())
        if deserialize(out["blob"]) != protos:
            res.failures.append("deserialize(serialize(ps)) does not round-trip")
        if not math.isfinite(inertia):
            res.failures.append("non-finite export inertia")
        limit = self.reference.inertia_limit() if self.reference and out["op"] == 0 else None
        if limit is not None and inertia > limit:
            res.failures.append(f"export inertia {inertia:.6g} above {limit:.6g} from reference.json")
        out["inertia"], out["records"] = inertia, len(labeled)
        res.fingerprint = _sha(out["blob"])

    def summary(self, ops, elapsed):
        out = ops[0].out
        return [
            ("export_s", statistics.median(o.seconds for o in ops), "s",
             f"median of {len(ops)} exports, {out['records']} records -> {len(out['blob'])} bytes"),
            ("export_inertia", statistics.median(o.out["inertia"] for o in ops),
             "squared_distance", f"median over exports; op 0: {self.reference.note(self.name)}"),
        ]


class Exchange(Workload):
    """Two blocking connections replaying the bank traffic of the `multi` suite.

    The traffic comes from `evaluation.suite_configs("multi", ...)`, the
    repo's experiment where a fine-tune fetches from several sources. One
    round is one seed of that suite on a world of OFFICES offices drawn from
    the stored sets: every office exports (one PUT), then every prototype
    scenario fine-tunes a target on its sources (one GET of those sets,
    decoded and assembled as `fetch-bank` does). With four offices that is
    4 PUTs and 28 GETs (12 of one set, 12 of two, 4 of three), so PUT:GET is
    1:7. Two requests per round have no caller in the repo and are
    assumptions: one LIST (an office looking up which sources and versions
    the bank holds; the only request that reads every stored set), and one
    PUT with one byte flipped (fault injection: it must be refused and the
    connection must then still answer a LIST).

    A LIST never overlaps a PUT in flight on the other connection: the two
    connections take `store_lock` around each valid PUT and LIST round trip
    (wait time excluded from the latency; a refused PUT writes nothing). `BankStore.list` globs `*.pbnk`,
    which also matches the `.tmp-*.pbnk` file of a concurrent PUT, so an
    overlapping LIST can return a duplicate entry, fail to decode the
    half-written file, or kill the server's handler thread. That is a
    defect of the store, not of this load, and its fix (a store change)
    lifts the need for the lock.
    """

    name = "exchange"
    N_SETS = 8  # prototype sets in the store
    SET_ROWS = 1000  # rows per set (500 per class) x 32 dims, about 256 KB
    VERSIONS = 4  # created_at values a PUT re-publishes
    CONNECTIONS = 2
    OFFICES = 4  # countries of evaluation.multi_source_world_config()
    must_fire = ("bank.client_put_ms", "bank.client_get_ms", "bank.bytes_put", "bank.bytes_got",
                 "bank.rejected_puts", "container.serialize_s", "container.deserialize_s",
                 "container.bytes", "cli.serve_bank_ready_s")

    def setup(self) -> None:
        store_dir = self.tmp / "store"
        store = BankStore(store_dir)
        self.base: dict[str, PrototypeSet] = {}
        # the exact bytes of every version, to check GET payloads byte for byte
        self.blobs: dict[str, list[bytes]] = {}
        for j in range(self.N_SETS):
            ps = random_bank(32, self.SET_ROWS, seed=self.seed * 100 + j, source_id=f"S{j}")
            self.base[ps.source_id] = ps
            self.blobs[ps.source_id] = [
                serialize(replace(ps, created_at=v)) for v in range(self.VERSIONS)
            ]
            store.put(self.blobs[ps.source_id][0])
        self.ids = sorted(self.base)
        self.published = {sid: {0} for sid in self.ids}  # versions PUT so far
        self.lock = threading.Lock()
        self.store_lock = threading.Lock()  # see the class docstring
        self.server = ServerProcess(self.root, store_dir)

    def round(self, rng: np.random.Generator) -> list[tuple[str, tuple[str, ...]]]:
        """The requests of one seed of the `multi` suite, in order: (kind, source ids)."""
        offices = sorted(str(s) for s in rng.choice(self.ids, size=self.OFFICES, replace=False))
        # only the office ids matter to the scenario grid, not their data
        scenarios = suite_configs("multi", dict.fromkeys(offices, ()), seeds=(0,))
        gets = [("get", cfg.source_ids) for cfg in scenarios if cfg.source_ids]
        sources = sorted({sid for _, ids in gets for sid in ids})
        return ([("put", (sid,)) for sid in sources]
                + [gets[k] for k in rng.permutation(len(gets))]
                + [("list", ()), ("corrupt", (str(rng.choice(offices)),))])

    def _request(self, client: BankClient, rng: np.random.Generator, kind: str,
                 ids: tuple[str, ...]) -> OpResult:
        res = OpResult(0.0, kind=kind)
        if kind == "get":
            t0 = time.perf_counter()
            blobs = client.get(list(ids))
            assemble([deserialize(b) for b in blobs])  # what fetch-bank does
            res.seconds = time.perf_counter() - t0
            if len(blobs) != len(ids):
                res.failures.append("GET returned the wrong number of sets")
            with self.lock:
                for sid, blob in zip(ids, blobs):
                    if not any(blob == self.blobs[sid][v] for v in self.published[sid]):
                        res.failures.append(f"GET {sid} returned bytes never PUT")
            return res
        version = int(rng.integers(self.VERSIONS))
        if kind == "put":  # re-publish: encode, then the round trip
            (sid,) = ids
            with self.store_lock:
                t0 = time.perf_counter()
                blob = serialize(replace(self.base[sid], created_at=version))
                with self.lock:
                    self.published[sid].add(version)
                client.put(blob)
                res.seconds = time.perf_counter() - t0
            if blob != self.blobs[sid][version]:
                res.failures.append("serialize is not deterministic")
        elif kind == "list":
            with self.store_lock:
                t0 = time.perf_counter()
                listed = client.list()
                res.seconds = time.perf_counter() - t0
            if sorted(s for s, _ in listed) != self.ids:
                res.failures.append("LIST does not name every stored set")
        else:  # a PUT with one byte flipped must be refused on a live connection
            (sid,) = ids
            blob = bytearray(self.blobs[sid][version])
            blob[int(rng.integers(len(blob)))] ^= int(rng.integers(1, 256))
            t0 = time.perf_counter()
            try:
                client.put(bytes(blob))
                res.failures.append("corrupted PUT was accepted")
            except DataError:
                pass
            res.seconds = time.perf_counter() - t0
            try:  # the connection must still serve requests
                with self.store_lock:
                    client.list()
            except ProtobankError as exc:
                res.failures.append(f"LIST after the refused PUT: {type(exc).__name__}: {exc}")
            except OSError as exc:
                raise ConnectionError(f"LIST after the refused PUT: {exc}") from exc
        return res

    def _connection(self, conn: int, state: dict, seconds: float, tracer) -> None:
        """Closed loop on one connection, round after round, until `seconds` have passed."""
        rng, out = state["rng"], state["out"]
        pending: list[tuple[str, tuple[str, ...]]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if not pending:
                pending = self.round(rng)[::-1]
            kind, ids = pending.pop()
            if tracer is not None:
                tracer.set_op((conn, len(out)))
            try:
                if state["client"] is None:
                    state["client"] = BankClient(self.server.address)
                res = self._request(state["client"], rng, kind, ids)
            except (OSError, ProtobankError) as exc:  # dropped connection or refused request
                res = OpResult(0.0, [f"{kind}: {type(exc).__name__}: {exc}"], kind=kind)
                if state["client"] is not None:
                    state["client"].close()
                state["client"] = None
            out.append(res)

    def measure(self, seconds: float, tracer=None) -> tuple[list[OpResult], float]:
        states = [{"rng": np.random.default_rng([self.seed, c]), "client": None, "out": []}
                  for c in range(self.CONNECTIONS)]
        threads = [threading.Thread(target=self._connection, args=(c, st, seconds, tracer))
                   for c, st in enumerate(states)]
        start = time.perf_counter()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            for st in states:
                if st["client"] is not None:
                    st["client"].close()
        return [op for st in states for op in st["out"]], time.perf_counter() - start

    def summary(self, ops, elapsed):
        def lat(kind):
            return sorted(o.seconds * 1e3 for o in ops if o.kind == kind and not o.failures)

        gets, puts = lat("get"), lat("put")
        rank = math.ceil(0.99 * len(gets))
        beyond = len(gets) - rank
        busy = sum(o.seconds for o in ops)
        shares = ", ".join(
            f"{kind} {sum(o.kind == kind for o in ops) / len(ops):.1%} of requests / "
            f"{sum(o.seconds for o in ops if o.kind == kind) / busy:.1%} of time"
            for kind in ("get", "put", "list", "corrupt"))
        return [
            ("exchange_ops_per_s", len(ops) / elapsed, "1/s", f"{len(ops)} requests, 2 connections"),
            ("get_p50_ms", statistics.median(gets), "ms", f"{len(gets)} GETs incl. decode"),
            ("get_p99_ms", gets[rank - 1], "ms",
             f"{beyond} samples beyond" + ("" if beyond >= 10 else " (too few: does not count)")),
            ("put_p50_ms", statistics.median(puts), "ms", f"{len(puts)} valid PUTs incl. encode"),
            ("request_mix", len(ops), "count", shares),
        ]


WORKLOADS = {w.name: w for w in (Transfer, ScoreBulk, Export, Exchange)}
