"""Source-side pretraining: supervised contrastive loss plus fraud head.

The contrastive term pulls same-class fused representations together on
the unit sphere and pushes classes apart; the auxiliary binary
cross-entropy trains the fraud head whose scores later pick the
fraud-like subset that a country is willing to share. Anchors whose class
appears only once in a batch contribute zero to the contrastive sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .declarations import CountryDataset
from .encoder import (
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    embed_batch,
    score_batch,
    score_records,
    standardize_stats,
)
from .errors import DataError, MetricError
from .numerics import OptimizerState, Tensor


@dataclass(frozen=True)
class PretrainConfig:
    tau: float = 0.07
    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 0.005
    weight_decay: float = 0.01
    cls_weight: float = 1.0  # auxiliary classification loss weight
    scl_weight: float = 1.0  # 0 disables the contrastive term (ablation)
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self) -> None:
        if self.tau <= 0:
            raise DataError("tau must be positive")
        if self.batch_size < 2:
            raise DataError("batch_size must be at least 2")
        if self.epochs < 0:
            raise DataError("epochs must be nonnegative")


def scl_loss(h: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Supervised contrastive loss over a batch of fused representations.

    Similarity is the dot product of L2-normalized rows. For each anchor i
    with at least one same-class partner, the loss averages
    -log(exp(s_ij/tau) / sum_{k != i} exp(s_ik/tau)) over partners j, and
    the per-anchor terms are summed over the batch.
    """
    labels = np.asarray(labels)
    n = h.shape[0]
    if n < 2:
        raise DataError("contrastive loss needs a batch of at least 2")
    if tau <= 0:
        raise DataError("tau must be positive")
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch {n}")
    same = labels[:, None] == labels[None, :]
    offdiag = 1.0 - np.eye(n)
    pos_mask = same * offdiag
    pos_count = pos_mask.sum(axis=1)
    if not pos_count.any():
        return Tensor(0.0)
    # weight matrix folds the 1/(N_y - 1) averaging; singleton anchors get zero
    weights = pos_mask / np.maximum(pos_count, 1.0)[:, None]

    hn = nm.l2_normalize(h, axis=1)
    logits = nm.mul(nm.matmul(hn, nm.transpose(hn)), 1.0 / tau)
    expo = nm.mul(nm.exp(logits), offdiag)
    denom = nm.reduce_sum(expo, axis=1, keepdims=True)
    ratio = nm.div(expo, denom)
    # masked entries are replaced by 1 so log stays finite; their weight is 0
    safe = nm.add(nm.mul(ratio, pos_mask), 1.0 - pos_mask)
    return nm.neg(nm.reduce_sum(nm.mul(nm.log(safe), weights)))


def stratified_batches(
    labels: np.ndarray, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled batches carrying every present class when counts allow it."""
    n = len(labels)
    n_batches = max(1, math.ceil(n / batch_size))
    chunks: list[list[np.ndarray]] = [[] for _ in range(n_batches)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for b, part in enumerate(np.array_split(idx, n_batches)):
            chunks[b].append(part)
    return [np.concatenate(c) for c in chunks if sum(len(p) for p in c) > 0]


def valid_metric(scores: np.ndarray, valid: CountryDataset, rate: float) -> tuple[float, bool]:
    """Validation Revenue@rate of `scores` and True; -BCE and False when revenue
    is undefined; -inf and False on an empty split."""
    from .evaluation import revenue_at_k  # local import to avoid a module cycle

    if not valid.records:
        return -np.inf, False
    try:
        return revenue_at_k(scores, valid, rate), True
    except (MetricError, DataError):
        labels = np.array(
            [1.0 if valid.sealed.get(r.id, (False,))[0] else 0.0 for r in valid.records]
        )
        p = np.clip(scores, 1e-12, 1 - 1e-12)
        return float(np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))), False


def pretrain(
    ds_train: CountryDataset,
    ds_valid: CountryDataset,
    cfg: PretrainConfig,
) -> tuple[EncoderParams, list[dict]]:
    """Train the encoder on labeled source records; keep the best-validation epoch."""
    cfg.validate()
    labeled = ds_train.labeled()
    y = np.array([1 if r.illicit else 0 for r in labeled])
    if len(labeled) < 2 or len(np.unique(y)) < 2:
        raise DataError(f"{ds_train.country_id}: pretraining needs labeled records of both classes")

    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.init(
        rng, ds_train.hs6_vocab, ds_train.country_vocab, standardize_stats(ds_train), cfg.encoder
    )
    opt = OptimizerState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
    feats, hs6_idx, cty_idx = batch_inputs(params, labeled)

    best = params.copy()
    best_metric = -np.inf
    curve: list[dict] = []
    for epoch in range(cfg.epochs):
        scl_sum = cls_sum = 0.0
        batches = stratified_batches(y, cfg.batch_size, rng)
        for idx in batches:
            _, _, _, h = embed_batch(params, feats[idx], hs6_idx[idx], cty_idx[idx])
            parts = []
            scl_val = 0.0
            if cfg.scl_weight and len(idx) >= 2:
                scl = scl_loss(h, y[idx], cfg.tau)
                scl_val = scl.item()
                # averaged per anchor in the joint objective: the raw sum grows
                # with batch size and swamps the classification term
                parts.append(nm.mul(scl, cfg.scl_weight / len(idx)))
            pred = score_batch(params, h)
            cls = nm.bce(pred, Tensor(y[idx].astype(np.float64).reshape(-1, 1)))
            parts.append(nm.mul(cls, cfg.cls_weight))
            loss = parts[0]
            for extra in parts[1:]:
                loss = nm.add(loss, extra)
            nm.zero_grads(params.tensors)
            loss.backward()
            nm.opt_step(params.tensors, opt)
            scl_sum += scl_val * len(idx)
            cls_sum += cls.item() * len(idx)
        metric, is_revenue = valid_metric(score_records(params, ds_valid.records), ds_valid, 0.05)
        curve.append(
            {
                "epoch": epoch,
                "scl_loss": scl_sum / len(labeled),
                "cls_loss": cls_sum / len(labeled),
                "valid_revenue": metric if is_revenue else float("nan"),
            }
        )
        if metric > best_metric:
            best_metric = metric
            best = params.copy()
    return best, curve


def curve_to_csv(curve: list[dict]) -> str:
    lines = ["epoch,scl_loss,cls_loss,valid_revenue"]
    for row in curve:
        lines.append(
            f"{row['epoch']},{row['scl_loss']!r},{row['cls_loss']!r},{row['valid_revenue']!r}"
        )
    return "\n".join(lines) + "\n"


def select_fraud_like(
    params: EncoderParams, ds: CountryDataset, fraction: float = 0.05
) -> CountryDataset:
    """Top ceil(fraction * n) records by fraud score, ties by ascending id."""
    if not ds.records:
        raise DataError(f"{ds.country_id}: cannot select from an empty dataset")
    if not 0 < fraction <= 1:
        raise DataError(f"fraction {fraction} out of (0, 1]")
    scores = score_records(params, ds.records)
    n_keep = math.ceil(fraction * len(ds.records))
    ids = np.array([r.id for r in ds.records])
    order = np.lexsort((ids, -scores))
    keep = {int(ids[i]) for i in order[:n_keep]}
    return ds.subset(lambda r: r.id in keep)
