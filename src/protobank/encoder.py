"""Transaction encoder producing the shared fused representation.

A declaration enters as five standardized numeric features plus two
categorical ids (HS6 code, origin country). The transaction embedding p
and the category embedding q interact through their outer product; a small
convolution over that k x k map is pooled into an interaction vector g,
and the fused representation h = ReLU(affine([p, g])) feeds every
downstream consumer: the contrastive loss, prototype clustering, memory
attention, and the fraud head.

The width of h is fixed by configuration, not by the data, so prototype
sets built by different countries are dimension-compatible by
construction. Categories unseen at training time map to a reserved
learned "unknown" row of each embedding table.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics as nm
from .container import read_envelope, write_envelope
from .declarations import CountryDataset, Records, map_column
from .errors import DataError, FormatError, NumericError
from .numerics import Tensor

FEATURE_NAMES = (
    "log_quantity",
    "log_gross_weight",
    "log_cif_value",
    "log1p_total_taxes",
    "price_per_kg",
)


@dataclass(frozen=True)
class EncoderConfig:
    k: int = 16  # embedding width of p and q
    d: int = 32  # fused representation width
    n_kernels: int = 8
    use_interaction: bool = True  # outer-product path; False = plain [p, q] concat

    def __post_init__(self) -> None:
        widths_ok = all(type(w) is int and w >= 1 for w in (self.k, self.d, self.n_kernels))
        if not widths_ok or type(self.use_interaction) is not bool:
            raise DataError(f"invalid {self}: widths must be integers >= 1, the flag a bool")


@dataclass(frozen=True)
class FeatureStats:
    mean: np.ndarray  # (5,)
    std: np.ndarray  # (5,), floored at 1e-6


def record_features(records: Records) -> np.ndarray:
    """The (n, 5) features of `records`, one row per record."""
    feats = np.empty((len(records), len(FEATURE_NAMES)))
    feats[:, 0] = map_column(math.log, records.quantity)
    feats[:, 1] = map_column(math.log, records.gross_weight)
    feats[:, 2] = map_column(math.log, records.cif_value)
    feats[:, 3] = map_column(math.log1p, records.total_taxes)
    feats[:, 4] = records.cif_value / records.gross_weight
    return feats


def standardize_stats(train: CountryDataset) -> FeatureStats:
    """Per-feature mean/stdev over the train split; stdev floored at 1e-6."""
    if not train.records:
        raise DataError("cannot compute feature statistics on an empty split")
    feats = record_features(train.records)
    return FeatureStats(feats.mean(axis=0), np.maximum(feats.std(axis=0), 1e-6))


def tensor_specs(config: EncoderConfig, n_hs6: int, n_country: int) -> dict[str, tuple]:
    """Shape and initial scale of each encoder tensor, in draw order."""
    k, d, c, f = config.k, config.d, config.n_kernels, len(FEATURE_NAMES)
    # extra row in each table is the learned "unknown" embedding
    specs = {
        "hs6_table": ((n_hs6 + 1, k), 0.1),
        "country_table": ((n_country + 1, k), 0.1),
        "w_num": ((f, k), 1.0 / math.sqrt(f)),
        "b_p": ((k,), 0.0),
    }
    if config.use_interaction:
        specs["conv_kernels"] = ((c, 3, 3), 1.0 / 3.0)
        specs["conv_bias"] = ((c,), 0.0)
        specs["w_pool"] = ((c, k), 1.0 / math.sqrt(c))
        specs["b_pool"] = ((k,), 0.0)
    specs["w_fuse"] = ((2 * k, d), 1.0 / math.sqrt(2 * k))
    specs["b_fuse"] = ((d,), 0.0)
    return {**specs, **_head_specs(d)}


def _head_specs(d: int) -> dict[str, tuple]:
    return {"head_w": ((d, 1), 1.0 / math.sqrt(d)), "head_b": ((1,), 0.0)}


def draw_tensors(rng: np.random.Generator, specs) -> dict[str, Tensor]:
    """Trainable tensors drawn from N(0, scale^2) in spec order; scale 0 gives zeros."""
    return {
        name: Tensor(
            rng.normal(0.0, scale, shape) if scale else np.zeros(shape), requires_grad=True
        )
        for name, (shape, scale) in specs.items()
    }


def check_tensors(tensors: dict[str, np.ndarray], specs, what: str) -> None:
    """FormatError unless `tensors` has exactly the names and shapes of `specs`."""
    for name in sorted(specs.keys() | tensors.keys()):
        want = specs[name][0] if name in specs else None
        got = tensors[name].shape if name in tensors else None
        if got != want:
            raise FormatError(f"{what} tensor {name!r} has shape {got}, expected {want}")


@dataclass
class EncoderParams:
    """All learnable encoder state plus the frozen featurization context."""

    config: EncoderConfig
    hs6_vocab: dict[str, int]
    country_vocab: dict[str, int]
    stats: FeatureStats
    tensors: dict[str, Tensor] = field(default_factory=dict)

    @staticmethod
    def init(
        rng: np.random.Generator,
        hs6_vocab: dict[str, int],
        country_vocab: dict[str, int],
        stats: FeatureStats,
        config: EncoderConfig = EncoderConfig(),
    ) -> "EncoderParams":
        tensors = draw_tensors(rng, tensor_specs(config, len(hs6_vocab), len(country_vocab)))
        return EncoderParams(config, hs6_vocab, country_vocab, stats, tensors)

    @staticmethod
    def from_split(
        rng: np.random.Generator, train: CountryDataset, config: EncoderConfig = EncoderConfig()
    ) -> "EncoderParams":
        """A fresh encoder fitted to a train split: its sorted distinct HS6 codes
        and origins, and its feature statistics."""
        recs = train.records
        hs6_vocab = _vocab_from_list(_present(recs.hs6_pool, recs.hs6))
        country_vocab = _vocab_from_list(_present(recs.country_pool, recs.country_code))
        return EncoderParams.init(rng, hs6_vocab, country_vocab, standardize_stats(train), config)

    def reinit_head(self, rng: np.random.Generator) -> None:
        self.tensors.update(draw_tensors(rng, _head_specs(self.config.d)))

    def copy(self) -> "EncoderParams":
        """Fresh tensors; the frozen context (config, vocabularies, stats) is shared."""
        return replace(self, tensors=copy_tensors(self.tensors))


def copy_tensors(tensors: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(t.data.copy(), requires_grad=True) for k, t in tensors.items()}


def _present(pool: tuple[str, ...], codes: np.ndarray) -> list[str]:
    """The sorted distinct pooled values that `codes` use."""
    return sorted(pool[c] for c in np.unique(codes).tolist())


def _vocab_indices(vocab: dict[str, int], pool: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """`vocab` index of each pooled value; an unseen value gets len(vocab)."""
    used, inverse = np.unique(codes, return_inverse=True)
    index = np.array([vocab.get(pool[c], len(vocab)) for c in used.tolist()], dtype=np.int64)
    return index[inverse]


def batch_inputs(
    params: EncoderParams, records: Records
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardized features and vocab indices for a record sequence."""
    feats = (record_features(records) - params.stats.mean) / params.stats.std
    hs6_idx = _vocab_indices(params.hs6_vocab, records.hs6_pool, records.hs6)
    cty_idx = _vocab_indices(params.country_vocab, records.country_pool, records.country_code)
    return feats, hs6_idx, cty_idx


# Records per interaction pass when no graph is recorded. At the default
# widths each of a block's (n, c, k, k) maps is 1 MiB; 128-record blocks
# (2 MiB maps) scored slower on a machine with a 2 MiB L2 cache per core.
_INTERACTION_BLOCK = 64


def _pooled_interaction(t: dict[str, Tensor], p: Tensor, q: Tensor) -> Tensor:
    """(N, c) channel means of the ReLU'd convolution over each p q^T map."""
    interaction = nm.outer(p, q)  # (N, k, k)
    conv = nm.conv2d(interaction, t["conv_kernels"], t["conv_bias"])
    # One (N, c, k, k) buffer is the conv output, the ReLU output and the
    # ReLU's gradient: conv2d's VJP reads only its input and kernels, and
    # reduce_mean's only the shape.
    return nm.reduce_mean(nm.relu(conv, out=conv.data), axis=(2, 3))  # mean per channel


def embed_batch(
    params: EncoderParams,
    feats: np.ndarray,
    hs6_idx: np.ndarray,
    cty_idx: np.ndarray,
) -> Tensor:
    """Forward pass to the fused representations h, shape (N, d), for a batch."""
    t = params.tensors
    f = Tensor(feats)
    p = nm.tanh(
        nm.add(
            nm.add(nm.matmul(f, t["w_num"]), nm.gather_rows(t["country_table"], cty_idx)),
            t["b_p"],
        )
    )
    q = nm.gather_rows(t["hs6_table"], hs6_idx)
    if params.config.use_interaction:
        n = p.shape[0]
        if nm.grad_enabled() or n <= _INTERACTION_BLOCK:
            pooled = _pooled_interaction(t, p, q)
        else:
            # Without a graph nothing keeps the (N, c, k, k) maps alive, so they
            # are built a block of records at a time; every pooled row is the
            # same bits as in one pass over the batch. Block rows are taken with an
            # op, which does not rescan them: `forward_rows` checks the output.
            blocks = np.array_split(np.arange(n), range(_INTERACTION_BLOCK, n, _INTERACTION_BLOCK))
            pooled = nm.concat(
                [_pooled_interaction(t, nm.gather_rows(p, b), nm.gather_rows(q, b)) for b in blocks]
            )
        g = nm.add(nm.matmul(pooled, t["w_pool"]), t["b_pool"])
        z = nm.concat([p, g], axis=1)
    else:
        z = nm.concat([p, q], axis=1)
    return nm.relu(nm.add(nm.matmul(z, t["w_fuse"]), t["b_fuse"]))


def score_batch(params: EncoderParams, h: Tensor) -> Tensor:
    """Fraud probabilities in (0,1), shape (N, 1)."""
    t = params.tensors
    return nm.sigmoid(nm.add(nm.matmul(h, t["head_w"]), t["head_b"]))


SCORE_CHUNK = 1024  # records per forward pass when scoring many records


def _processes(n_records: int) -> int:
    """Processes that one scoring call over `n_records` records runs in.

    More than one only where fork and a CPU affinity mask exist, while this
    process runs one Python thread (a forked child of a threaded process can
    inherit a lock that another thread holds), and only so many that each
    process gets at least two SCORE_CHUNK-record chunks to pay for its fork.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_records // (2 * SCORE_CHUNK)))


def forward_rows(params: EncoderParams, records, forward, width: int, chunk: int) -> np.ndarray:
    """Rows of `forward(feats, hs6_idx, cty_idx)` over many records, without a graph.

    The one scoring loop: records go through `batch_inputs` and `forward` in
    `chunk`-record slices under `no_grad`, and each slice's output is written
    into an (n, width) array. A large call splits its chunks into contiguous
    runs, one per process (`_processes`): this process scores the first run
    and a forked child each other one. Every chunk runs the same ops on the
    same shapes, so every row is the same bits as in one process. NumericError
    if a row is not finite: ops do not scan their outputs, and scores and
    embeddings leave the model here.
    """
    n = len(records)
    rows = np.empty((n, width))

    def run(lo: int, hi: int) -> None:
        for a in range(lo, hi, chunk):
            b = min(a + chunk, hi)
            rows[a:b] = forward(*batch_inputs(params, records[a:b])).data

    n_chunks = -(-n // chunk)
    procs = max(1, min(_processes(n), n_chunks))
    bounds = [min(n, chunk * (n_chunks * i // procs)) for i in range(procs + 1)]
    (lo, hi), *others = zip(bounds, bounds[1:])
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), in run order
    received = False
    with nm.no_grad():
        try:
            for a, b in others:
                children.append(_fork_run(run, rows[a:b], a, b, [fd for _, fd in children]))
            run(lo, hi)
            for (pid, fd), (a, b) in zip(children, others):
                _receive(pid, fd, rows[a:b])
            received = True
        finally:
            for pid, fd in children:
                os.close(fd)
                if not received:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not np.all(np.isfinite(rows)):
        raise NumericError("non-finite model output")
    return rows


def _fork_run(run, out: np.ndarray, lo: int, hi: int, inherited: list[int]) -> tuple[int, int]:
    """(pid, read fd) of a forked child that calls `run(lo, hi)` and sends back
    through a pipe a 0 byte and the raw bytes of `out`, its rows, or a 1 byte
    and the pickled exception. The child never returns; it ends with os._exit."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            for fd in (r, *inherited):
                os.close(fd)
            try:
                run(lo, hi)
                _write_all(w, b"\0")
                _write_all(w, out)
            except BaseException as e:  # the parent re-raises it; this process ends here
                _write_all(w, b"\1" + pickle.dumps(e))
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _receive(pid: int, fd: int, out: np.ndarray) -> None:
    """Read a child's rows into `out`, or raise the exception it sent."""
    head = os.read(fd, 1)
    if head == b"\1":
        raise pickle.loads(b"".join(iter(lambda: os.read(fd, 1 << 16), b"")))
    view, got = memoryview(out).cast("B"), 0
    if head == b"\0":
        while got < len(view) and (step := os.readv(fd, [view[got:]])):
            got += step
    if got < len(view):
        raise ChildProcessError(f"scoring process {pid} ended without sending its rows")


def embed_matrix(params: EncoderParams, records) -> np.ndarray:
    """Fused representations h for many records."""
    return forward_rows(
        params, records, lambda *x: embed_batch(params, *x), params.config.d, SCORE_CHUNK
    )


def score_records(params: EncoderParams, records) -> np.ndarray:
    """Fraud scores for many records."""
    return forward_rows(
        params, records, lambda *x: score_batch(params, embed_batch(params, *x)), 1, SCORE_CHUNK
    )[:, 0]


# ---------------------------------------------------------------------------
# serialization via the shared container envelope


def _vocab_to_list(vocab: dict[str, int]) -> list[str]:
    return [k for k, _ in sorted(vocab.items(), key=lambda kv: kv[1])]


def encoder_meta(params: EncoderParams) -> dict:
    return {
        "kind": "encoder",
        "config": asdict(params.config),
        "hs6_vocab": _vocab_to_list(params.hs6_vocab),
        "country_vocab": _vocab_to_list(params.country_vocab),
        "feature_mean": params.stats.mean.tolist(),
        "feature_std": params.stats.std.tolist(),
    }


def _vocab_from_list(names) -> dict[str, int]:
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise FormatError("a vocabulary must be a list of strings")
    return {n: i for i, n in enumerate(names)}  # a repeated name fails the table shape check


def encoder_from_meta(meta: dict, tensors: dict[str, np.ndarray]) -> EncoderParams:
    """The encoder a bundle describes; DataError unless its config is valid and
    its tensors are exactly the ones `EncoderParams.init` makes for it."""
    try:
        cfg = EncoderConfig(**meta["config"])
        hs6_vocab = _vocab_from_list(meta["hs6_vocab"])
        country_vocab = _vocab_from_list(meta["country_vocab"])
        mean = np.asarray(meta["feature_mean"], dtype=np.float64)
        std = np.asarray(meta["feature_std"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed encoder metadata: {e!r}") from None
    if not (mean.shape == std.shape == (len(FEATURE_NAMES),) and np.isfinite(mean).all()
            and np.isfinite(std).all() and (std > 0).all()):
        raise FormatError("feature statistics must be 5 finite means and 5 positive stdevs")
    check_tensors(tensors, tensor_specs(cfg, len(hs6_vocab), len(country_vocab)), "encoder")
    return EncoderParams(
        cfg,
        hs6_vocab,
        country_vocab,
        FeatureStats(mean, std),
        {k: Tensor(v, requires_grad=True) for k, v in tensors.items()},
    )


def save_encoder(params: EncoderParams) -> bytes:
    return write_envelope(encoder_meta(params), {k: t.data for k, t in params.tensors.items()})


def load_encoder(data: bytes) -> EncoderParams:
    meta, tensors = read_envelope(data)
    if meta.get("kind") != "encoder":
        raise FormatError(f"expected an encoder bundle, got kind={meta.get('kind')!r}")
    return encoder_from_meta(meta, tensors)
