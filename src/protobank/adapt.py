"""Target-side fine-tuning with prototype memory attention and calibration.

Each target representation attends over the full multi-source bank, which a
model holds as one `FrozenBank`, with softmax dot-product weights; a learned
sigmoid gate decides elementwise how much of the attended summary to let
through, and the refined representation h + h_bar feeds a freshly
initialized fraud head. With the memory disabled the same code path degrades
exactly to plain fine-tuning (the Vanilla Transfer baseline when initialized
from a source model, the Target Only baseline when initialized fresh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .container import MemoryBank, read_envelope, write_envelope
from .declarations import CountryDataset
from .encoder import (
    SCORE_CHUNK,
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    check_tensors,
    copy_tensors,
    draw_tensors,
    embed_batch,
    embed_matrix,
    encoder_from_meta,
    encoder_meta,
    forward_rows,
    score_batch,
)
from .encoder import score_records as encoder_scores
from .errors import DataError, FormatError, ShapeError
from .numerics import Tensor
from .pretrain import check_schedule, fit, labeled_targets


def _adapt_specs(d: int) -> dict[str, tuple]:
    """Shape and initial scale of each adaptation tensor, in draw order."""
    return {
        "gate_w1": ((2 * d, d), 1.0 / math.sqrt(2 * d)),
        "gate_b1": ((d,), 0.0),
        "gate_w2": ((d, d), 0.01),
        "gate_b2": ((d,), 0.0),
        "fuse_w": ((2 * d, d), 0.01),
        "fuse_b": ((d,), 0.0),
    }


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.005
    weight_decay: float = 0.01
    init_from_source: bool = False
    use_memory: bool = True
    use_calibration: bool = True  # False wires the attended summary in directly
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self) -> None:
        check_schedule(self, min_batch=1)
        for name in ("init_from_source", "use_memory", "use_calibration"):
            if type(getattr(self, name)) is not bool:
                raise DataError(f"{name} must be a bool, got {getattr(self, name)!r}")


class FrozenBank:
    """The memory rows a width-`d` target attends over, and their transpose;
    both are constant tensors, so the bank gets no gradient. The one check of a
    bank against a model: a finite (M, d) matrix with M >= 1."""

    def __init__(self, matrix, d: int):
        rows = np.asarray(matrix, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"a memory bank must be an (M, d) matrix, got shape {rows.shape}")
        if rows.shape[0] < 1:
            raise DataError("memory bank is empty")
        if rows.shape[1] != d:
            raise DataError(f"bank dimension {rows.shape[1]} != representation width {d}")
        self.rows = Tensor(rows)  # the bank's one finiteness scan
        # a C-contiguous copy: BLAS multiplies by the `.T` view with another
        # kernel, and the logits' bits would move
        self.rows_t = nm.transpose(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


@dataclass
class AdaptParams:
    """Target model: encoder (with fraud head), adaptation layers and the
    frozen bank it attends over (None disables the memory)."""

    encoder: EncoderParams
    tensors: dict[str, Tensor]
    bank: FrozenBank | None = None
    use_calibration: bool = True

    @staticmethod
    def init(
        encoder: EncoderParams,
        rng: np.random.Generator,
        bank: FrozenBank | None = None,
        use_calibration: bool = True,
    ) -> "AdaptParams":
        tensors = draw_tensors(rng, _adapt_specs(encoder.config.d))
        return AdaptParams(encoder, tensors, bank, use_calibration)

    def copy(self) -> "AdaptParams":
        """Fresh tensors; the encoder's frozen context and the bank are shared."""
        return replace(self, encoder=self.encoder.copy(), tensors=copy_tensors(self.tensors))

    def all_tensors(self) -> dict[str, Tensor]:
        return {**self.encoder.tensors, **self.tensors}


def memory_attend(h, bank: FrozenBank) -> tuple[Tensor, Tensor]:
    """Softmax dot-product attention of each row of h over every bank row.

    h: (N, d); bank: M rows of width d. Returns (attended, weights), (N, d)
    and (N, M).
    """
    ht = h if isinstance(h, Tensor) else Tensor(h)
    if ht.data.ndim != 2:
        raise ShapeError(f"memory_attend expects an (N, d) matrix, got {ht.shape}")
    if ht.shape[1] != bank.shape[1]:
        raise ShapeError(f"dimension mismatch: h has {ht.shape[1]}, bank has {bank.shape[1]}")
    logits = nm.matmul(ht, bank.rows_t)
    # the weights overwrite the logits, so a scoring chunk holds one (N, M)
    # array, not two; nothing reads the logits later (matmul's VJP reads only
    # its inputs)
    weights = nm.softmax(logits, axis=1, out=logits.data)
    attended = nm.matmul(weights, bank.rows)
    return attended, weights


def calibrate(params: AdaptParams, h_t: Tensor, h_ts: Tensor) -> tuple[Tensor, Tensor]:
    """Gate the attended summary elementwise, then fuse with the target feature."""
    t = params.tensors
    z = nm.concat([h_t, h_ts], axis=1)
    hidden = nm.tanh(nm.add(nm.matmul(z, t["gate_w1"]), t["gate_b1"]))
    gate = nm.sigmoid(nm.add(nm.matmul(hidden, t["gate_w2"]), t["gate_b2"]))
    fused_in = nm.concat([nm.mul(gate, h_ts), h_t], axis=1)
    h_bar = nm.add(nm.matmul(fused_in, t["fuse_w"]), t["fuse_b"])
    return h_bar, gate


def refine(h_t: Tensor, h_bar: Tensor) -> Tensor:
    """Residual refinement: the fused representation plus its augmentation."""
    if h_t.shape != h_bar.shape:
        raise ShapeError(f"refine shapes differ: {h_t.shape} vs {h_bar.shape}")
    return nm.add(h_t, h_bar)


def target_forward(
    params: AdaptParams,
    feats: np.ndarray,
    hs6_idx: np.ndarray,
    cty_idx: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Score a batch through embed -> attend -> calibrate -> refine -> head."""
    h = embed_batch(params.encoder, feats, hs6_idx, cty_idx)
    if params.bank is not None:
        h_ts, _ = memory_attend(h, params.bank)
        h_bar = calibrate(params, h, h_ts)[0] if params.use_calibration else h_ts
        h_hat = refine(h, h_bar)
    else:
        h_hat = h
    return score_batch(params.encoder, h_hat), h_hat


# Attention logits (records x bank rows) per scoring chunk: 2**20 float64 is 8 MiB.
_LOGITS_BUDGET = 1 << 20


def score_chunk(bank_rows: int) -> int:
    """Records per scoring chunk against a bank of `bank_rows` rows.

    The largest power of two up to SCORE_CHUNK whose (chunk, bank_rows)
    logits stay within _LOGITS_BUDGET elements, and never below 1. A bank of
    at most 1024 rows keeps SCORE_CHUNK-record chunks.
    """
    chunk = SCORE_CHUNK
    while chunk > 1 and chunk * bank_rows > _LOGITS_BUDGET:
        chunk //= 2
    return chunk


def score_records(params: AdaptParams, records) -> np.ndarray:
    """Fraud scores for many records through the full target model."""
    chunk = score_chunk(0 if params.bank is None else params.bank.shape[0])
    return forward_rows(
        params.encoder, records, lambda *x: target_forward(params, *x)[0], 1, chunk
    )[:, 0]


def _init_model(
    target_train: CountryDataset,
    source_params: EncoderParams | None,
    cfg: FinetuneConfig,
    rng: np.random.Generator,
    memory: MemoryBank | None = None,
) -> AdaptParams:
    if cfg.init_from_source:
        if source_params is None:
            raise DataError("init_from_source requires source parameters")
        enc = source_params.copy()
        # class priors differ across countries; the head restarts fresh
        enc.reinit_head(rng)
    else:
        enc = EncoderParams.from_split(rng, target_train, cfg.encoder)
    use_bank = cfg.use_memory and memory is not None
    bank = FrozenBank(memory.matrix(), enc.config.d) if use_bank else None
    return AdaptParams.init(enc, rng, bank, cfg.use_calibration)


def finetune(
    target_train: CountryDataset,
    target_valid: CountryDataset,
    memory: MemoryBank | None,
    source_params: EncoderParams | None,
    cfg: FinetuneConfig,
    extra_loss=None,
) -> tuple[AdaptParams, list[dict]]:
    """Fine-tune on labeled target records, returning the best-validation model.

    `extra_loss(params) -> Tensor` is an optional additive objective hook
    (the consistency penalty of the adaptive-transfer baseline uses it).
    """
    labeled, y = labeled_targets(target_train, "fine-tuning")
    rng = np.random.default_rng(cfg.seed)
    params = _init_model(target_train, source_params, cfg, rng, memory)
    feats, hs6_idx, cty_idx = batch_inputs(params.encoder, labeled)

    def batch_loss(idx):
        pred, _ = target_forward(params, feats[idx], hs6_idx[idx], cty_idx[idx])
        loss = nm.bce(pred, Tensor(y[idx].astype(np.float64).reshape(-1, 1)))
        bce_val = loss.item()
        if extra_loss is not None:
            loss = nm.add(loss, extra_loss(params))
        return loss, {"train_bce": bce_val}

    return fit(params, params.all_tensors(), score_records, target_valid, y, batch_loss, cfg, rng)


def consistency_subset(labeled, src_scores, tgt_scores, keep_fraction: float):
    """Records with the smallest |source - target| score gap, ties by id.

    Keeps exactly max(1, round(keep_fraction * n)) records.
    """
    if not 0 < keep_fraction <= 1:
        raise DataError(f"keep_fraction {keep_fraction} out of (0, 1]")
    gap = np.abs(np.asarray(src_scores) - np.asarray(tgt_scores))
    order = np.lexsort((labeled.ids, gap))
    return labeled[order[: max(1, round(keep_fraction * len(labeled)))]]


def akc_finetune(
    target_train: CountryDataset,
    target_valid: CountryDataset,
    source_params: EncoderParams,
    cfg: FinetuneConfig,
    target_pretrained: AdaptParams,
    keep_fraction: float = 0.2,
    akc_weight: float = 1.0,
) -> tuple[AdaptParams, list[dict]]:
    """Adaptive-transfer baseline: source fine-tuning plus a feature-consistency
    penalty on the target records whose source score is closest to that of
    `target_pretrained`, the reference target-only model."""
    if source_params is None:
        raise DataError("adaptive transfer requires source parameters")
    labeled = target_train.labeled()
    src_scores = encoder_scores(source_params, labeled)
    tgt_scores = score_records(target_pretrained, labeled)
    selected = consistency_subset(labeled, src_scores, tgt_scores, keep_fraction)

    source_h = Tensor(embed_matrix(source_params, selected))
    # the fine-tuned encoder starts as a copy of the source one and keeps its
    # feature statistics and vocabularies, so these inputs stay valid
    sel_inputs = batch_inputs(source_params, selected)

    def consistency(params: AdaptParams) -> Tensor:
        h = embed_batch(params.encoder, *sel_inputs)
        diff = nm.sub(h, source_h)
        return nm.mul(nm.reduce_mean(nm.mul(diff, diff)), akc_weight)

    run_cfg = replace(cfg, init_from_source=True, use_memory=False)
    return finetune(target_train, target_valid, None, source_params, run_cfg, extra_loss=consistency)


# ---------------------------------------------------------------------------
# serialization


def save_adapt(params: AdaptParams) -> bytes:
    meta = encoder_meta(params.encoder)
    meta["kind"] = "adapt"
    meta["use_calibration"] = params.use_calibration
    tensors = {k: t.data for k, t in params.encoder.tensors.items()}
    tensors.update({f"adapt.{k}": t.data for k, t in params.tensors.items()})
    if params.bank is not None:
        tensors["memory.bank"] = params.bank.rows.data
    return write_envelope(meta, tensors)


def load_model(data: bytes) -> EncoderParams | AdaptParams:
    """The encoder or target model a bundle describes; FormatError unless its
    tensors are exactly the ones `EncoderParams.init` (and `AdaptParams.init`)
    make for it, plus at most one memory bank, which `FrozenBank` checks."""
    meta, tensors = read_envelope(data)
    kind = meta.get("kind")
    if kind == "encoder":
        return encoder_from_meta(meta, tensors)
    if kind != "adapt":
        raise FormatError(f"unknown model kind {kind!r}")
    bank = tensors.pop("memory.bank", None)
    adapt_tensors = {k[len("adapt.") :]: v for k, v in tensors.items() if k.startswith("adapt.")}
    enc = encoder_from_meta(meta, {k: v for k, v in tensors.items() if not k.startswith("adapt.")})
    check_tensors(adapt_tensors, _adapt_specs(enc.config.d), "adaptation")
    use_calibration = meta.get("use_calibration")
    if type(use_calibration) is not bool:
        raise FormatError(f"use_calibration must be a boolean, got {use_calibration!r}")
    tensors = {k: Tensor(v, requires_grad=True) for k, v in adapt_tensors.items()}
    frozen = None if bank is None else FrozenBank(bank, enc.config.d)
    return AdaptParams(enc, tensors, frozen, use_calibration)
