"""Target-side fine-tuning with prototype memory attention and calibration.

Each target representation attends over the full multi-source bank with
softmax dot-product weights, a learned sigmoid gate decides elementwise
how much of the attended summary to let through, and the refined
representation h + h_bar feeds a freshly initialized fraud head. With the
memory disabled the same code path degrades exactly to plain fine-tuning
(the Vanilla Transfer baseline when initialized from a source model, the
Target Only baseline when initialized fresh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .container import MemoryBank, read_envelope, write_envelope
from .declarations import CountryDataset
from .encoder import (
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    embed_batch,
    encoder_from_meta,
    encoder_meta,
    forward_rows,
    score_batch,
    standardize_stats,
)
from .errors import DataError, FormatError, ShapeError
from .numerics import OptimizerState, Tensor
from .pretrain import stratified_batches, valid_metric

_ADAPT_TENSORS = ("gate_w1", "gate_b1", "gate_w2", "gate_b2", "fuse_w", "fuse_b")


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

    def validate(self) -> None:
        if self.epochs < 0:
            raise DataError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise DataError("batch_size must be positive")


@dataclass
class AdaptParams:
    """Target model: encoder (with fraud head) plus adaptation layers."""

    encoder: EncoderParams
    tensors: dict[str, Tensor]
    bank_matrix: np.ndarray | None = None  # frozen memory rows used at inference
    use_memory: bool = False
    use_calibration: bool = True

    @staticmethod
    def init(encoder: EncoderParams, rng: np.random.Generator) -> "AdaptParams":
        d = encoder.config.d

        def w(shape, scale):
            return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)

        tensors = {
            "gate_w1": w((2 * d, d), 1.0 / math.sqrt(2 * d)),
            "gate_b1": Tensor(np.zeros(d), requires_grad=True),
            "gate_w2": w((d, d), 0.01),
            "gate_b2": Tensor(np.zeros(d), requires_grad=True),
            "fuse_w": w((2 * d, d), 0.01),
            "fuse_b": Tensor(np.zeros(d), requires_grad=True),
        }
        return AdaptParams(encoder, tensors)

    def copy(self) -> "AdaptParams":
        return AdaptParams(
            self.encoder.copy(),
            {k: Tensor(t.data.copy(), requires_grad=True) for k, t in self.tensors.items()},
            None if self.bank_matrix is None else self.bank_matrix.copy(),
            self.use_memory,
            self.use_calibration,
        )

    def all_tensors(self) -> dict[str, Tensor]:
        merged = dict(self.encoder.tensors)
        merged.update(self.tensors)
        return merged


def memory_attend(h, memory) -> tuple[Tensor, Tensor]:
    """Softmax dot-product attention of each row of h over every bank row.

    h: (N, d); memory: the (M, d) bank matrix. Returns (attended, weights),
    (N, d) and (N, M).
    """
    rows = np.asarray(memory, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"memory_attend expects an (M, d) bank matrix, got {rows.shape}")
    if rows.shape[0] < 1:
        raise DataError("memory bank is empty")
    ht = h if isinstance(h, Tensor) else Tensor(h)
    if ht.data.ndim != 2:
        raise ShapeError(f"memory_attend expects an (N, d) matrix, got {ht.shape}")
    if ht.shape[1] != rows.shape[1]:
        raise ShapeError(f"dimension mismatch: h has {ht.shape[1]}, bank has {rows.shape[1]}")
    bank = Tensor(rows)
    weights = nm.softmax(nm.matmul(ht, nm.transpose(bank)), axis=1)
    attended = nm.matmul(weights, bank)
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
    bank_rows: np.ndarray | None,
) -> tuple[Tensor, Tensor]:
    """Score a batch through embed -> attend -> calibrate -> refine -> head."""
    _, _, _, h = embed_batch(params.encoder, feats, hs6_idx, cty_idx)
    if bank_rows is not None:
        h_ts, _ = memory_attend(h, bank_rows)
        h_bar = calibrate(params, h, h_ts)[0] if params.use_calibration else h_ts
        h_hat = refine(h, h_bar)
    else:
        h_hat = h
    return score_batch(params.encoder, h_hat), h_hat


def score_records(params: AdaptParams, records) -> np.ndarray:
    """Fraud scores for many records through the full target model."""
    bank = params.bank_matrix if params.use_memory else None
    return forward_rows(
        params.encoder, records, lambda *x: target_forward(params, *x, bank)[0], 1
    )[:, 0]


def _init_model(
    target_train: CountryDataset,
    source_params: EncoderParams | None,
    cfg: FinetuneConfig,
    rng: np.random.Generator,
) -> AdaptParams:
    if cfg.init_from_source:
        if source_params is None:
            raise DataError("init_from_source requires source parameters")
        enc = source_params.copy()
        # class priors differ across countries; the head restarts fresh
        enc.reinit_head(rng)
    else:
        enc = EncoderParams.init(
            rng,
            target_train.hs6_vocab,
            target_train.country_vocab,
            standardize_stats(target_train),
            cfg.encoder,
        )
    return AdaptParams.init(enc, rng)


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
    cfg.validate()
    labeled = target_train.labeled()
    y = np.array([1 if r.illicit else 0 for r in labeled])
    if len(labeled) < 1 or len(np.unique(y)) < 2:
        raise DataError(
            f"{target_train.country_id}: fine-tuning needs labeled records of both classes"
        )
    rng = np.random.default_rng(cfg.seed)
    params = _init_model(target_train, source_params, cfg, rng)
    use_memory = bool(cfg.use_memory and memory is not None and len(memory) > 0)
    bank = memory.matrix() if use_memory else None
    if bank is not None and bank.shape[1] != params.encoder.config.d:
        raise ShapeError(
            f"bank dimension {bank.shape[1]} != representation width {params.encoder.config.d}"
        )
    params.bank_matrix = bank
    params.use_memory = use_memory
    params.use_calibration = cfg.use_calibration

    trainable = params.all_tensors()
    opt = OptimizerState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
    feats, hs6_idx, cty_idx = batch_inputs(params.encoder, labeled)

    best = params.copy()
    best_metric = -np.inf
    curve: list[dict] = []
    for epoch in range(cfg.epochs):
        bce_sum = 0.0
        for idx in stratified_batches(y, cfg.batch_size, rng):
            pred, _ = target_forward(params, feats[idx], hs6_idx[idx], cty_idx[idx], bank)
            loss = nm.bce(pred, Tensor(y[idx].astype(np.float64).reshape(-1, 1)))
            bce_val = loss.item()
            if extra_loss is not None:
                loss = nm.add(loss, extra_loss(params))
            nm.zero_grads(params.all_tensors())
            loss.backward()
            nm.opt_step(trainable, opt)
            bce_sum += bce_val * len(idx)
        metric, _ = valid_metric(score_records(params, target_valid.records), target_valid, 0.05)
        curve.append({"epoch": epoch, "train_bce": bce_sum / len(labeled), "valid_metric": metric})
        if metric > best_metric:
            best_metric = metric
            best = params.copy()
    return best, curve


def consistency_subset(labeled, src_scores, tgt_scores, keep_fraction: float):
    """Records with the smallest |source - target| score gap, ties by id.

    Keeps exactly max(1, round(keep_fraction * n)) records.
    """
    if not 0 < keep_fraction <= 1:
        raise DataError(f"keep_fraction {keep_fraction} out of (0, 1]")
    gap = np.abs(np.asarray(src_scores) - np.asarray(tgt_scores))
    ids = np.array([r.id for r in labeled])
    order = np.lexsort((ids, gap))
    n_keep = max(1, round(keep_fraction * len(labeled)))
    return [labeled[i] for i in order[:n_keep]]


def akc_finetune(
    target_train: CountryDataset,
    target_valid: CountryDataset,
    source_params: EncoderParams,
    cfg: FinetuneConfig,
    keep_fraction: float = 0.2,
    akc_weight: float = 1.0,
    target_pretrained: AdaptParams | None = None,
) -> tuple[AdaptParams, list[dict]]:
    """Adaptive-transfer baseline: source fine-tuning plus a feature-consistency
    penalty on the target records whose source/target score gap is smallest."""
    if not 0 < keep_fraction <= 1:
        raise DataError(f"keep_fraction {keep_fraction} out of (0, 1]")
    if source_params is None:
        raise DataError("adaptive transfer requires source parameters")
    if target_pretrained is None:
        pre_cfg = replace(cfg, init_from_source=False, use_memory=False)
        target_pretrained, _ = finetune(target_train, target_valid, None, None, pre_cfg)

    labeled = target_train.labeled()
    from .encoder import score_records as enc_scores  # plain encoder scoring

    src_scores = enc_scores(source_params, labeled)
    tgt_scores = score_records(target_pretrained, labeled)
    selected = consistency_subset(labeled, src_scores, tgt_scores, keep_fraction)

    from .encoder import embed_matrix

    source_h = Tensor(embed_matrix(source_params, selected))
    sel_inputs = None

    def consistency(params: AdaptParams) -> Tensor:
        nonlocal sel_inputs
        if sel_inputs is None:
            sel_inputs = batch_inputs(params.encoder, selected)
        _, _, _, h = embed_batch(params.encoder, *sel_inputs)
        diff = nm.sub(h, source_h)
        return nm.mul(nm.reduce_mean(nm.mul(diff, diff)), akc_weight)

    run_cfg = replace(cfg, init_from_source=True, use_memory=False)
    return finetune(target_train, target_valid, None, source_params, run_cfg, extra_loss=consistency)


# ---------------------------------------------------------------------------
# serialization


def save_adapt(params: AdaptParams) -> bytes:
    meta = encoder_meta(params.encoder)
    meta["kind"] = "adapt"
    meta["use_memory"] = params.use_memory
    meta["use_calibration"] = params.use_calibration
    meta["has_bank"] = params.bank_matrix is not None
    tensors = {k: t.data for k, t in params.encoder.tensors.items()}
    tensors.update({f"adapt.{k}": t.data for k, t in params.tensors.items()})
    if params.bank_matrix is not None:
        tensors["memory.bank"] = params.bank_matrix
    return write_envelope(meta, tensors)


def load_adapt(data: bytes) -> AdaptParams:
    meta, tensors = read_envelope(data)
    if meta.get("kind") != "adapt":
        raise FormatError(f"expected an adaptation bundle, got kind={meta.get('kind')!r}")
    bank = tensors.pop("memory.bank", None)
    adapt_tensors = {}
    enc_tensors = {}
    for name, arr in tensors.items():
        if name.startswith("adapt."):
            adapt_tensors[name[len("adapt.") :]] = Tensor(arr, requires_grad=True)
        else:
            enc_tensors[name] = arr
    missing = set(_ADAPT_TENSORS) - set(adapt_tensors)
    if missing:
        raise FormatError(f"adaptation bundle missing tensors {sorted(missing)}")
    enc = encoder_from_meta(meta, enc_tensors)
    return AdaptParams(
        enc,
        adapt_tensors,
        bank,
        bool(meta.get("use_memory", False)),
        bool(meta.get("use_calibration", True)),
    )


def load_model(data: bytes):
    """Load either an encoder bundle or an adaptation bundle."""
    meta, _ = read_envelope(data)
    kind = meta.get("kind")
    if kind == "encoder":
        from .encoder import load_encoder

        return load_encoder(data)
    if kind == "adapt":
        return load_adapt(data)
    raise FormatError(f"unknown model kind {kind!r}")
