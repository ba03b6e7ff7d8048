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
from .declarations import CountryDataset, Records, check_int
from .encoder import (
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    embed_batch,
    score_batch,
    score_records,
)
from .errors import DataError, MetricError, NumericError
from .numerics import OptimizerState, Tensor


def check_schedule(cfg, min_batch: int) -> None:
    """Checks the fields both stages' configs share (NaN fails every bound)."""
    check_int("epochs", cfg.epochs, 0)
    check_int("batch_size", cfg.batch_size, min_batch)
    if not 0 < cfg.learning_rate < np.inf:
        raise DataError(f"learning_rate must be finite and positive, got {cfg.learning_rate}")
    if not 0 <= cfg.weight_decay < np.inf:
        raise DataError(f"weight_decay must be finite and nonnegative, got {cfg.weight_decay}")
    check_int("seed", cfg.seed, 0)
    if type(cfg.encoder) is not EncoderConfig:
        raise DataError(f"encoder must be an EncoderConfig, got {cfg.encoder!r}")


def _check_tau(tau: float) -> None:
    # similarities lie in [-1, 1], so exp(s / tau) <= e^100 stays far from
    # overflow, and so do the loss's sums, squared denominators and log ratios
    if not tau >= 0.01:  # also rejects NaN
        raise DataError(f"tau must be at least 0.01, got {tau}")


@dataclass(frozen=True)
class PretrainConfig:
    tau: float = 0.07
    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 0.005
    weight_decay: float = 0.01
    scl_weight: float = 1.0  # 0 disables the contrastive term (ablation)
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        check_schedule(self, min_batch=2)
        if not 0 <= self.scl_weight < np.inf:
            raise DataError(f"scl_weight must be finite and nonnegative, got {self.scl_weight}")


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
    _check_tau(tau)
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


def inspected(scores: np.ndarray, records, rate: float) -> np.ndarray:
    """Indices of the ceil(rate * n) records an inspector opens: the highest
    scores first, ties broken by ascending record id."""
    order = np.lexsort((records.ids, -scores))
    return order[: math.ceil(rate * len(records))]


def valid_metric(scores: np.ndarray, valid: CountryDataset) -> tuple[float, bool]:
    """Validation Revenue@5% of `scores` and True; -BCE and False when revenue
    is undefined."""
    from .evaluation import revenue_at_k  # local import to avoid a module cycle

    try:
        return revenue_at_k(scores, valid, 0.05), True
    except (MetricError, DataError):
        labels = (valid.sealed.illicit == 1).astype(np.float64)
        p = np.clip(scores, 1e-12, 1 - 1e-12)
        return float(np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))), False


def labeled_targets(ds: CountryDataset, stage: str) -> tuple[Records, np.ndarray]:
    """Labeled records and their 0/1 targets; both classes must be present."""
    labeled = ds.labeled()
    y = labeled.illicit.astype(np.int64)
    if len(np.unique(y)) < 2:
        raise DataError(f"{ds.country_id}: {stage} needs labeled records of both classes")
    return labeled, y


def fit(model, tensors: dict[str, Tensor], score, valid: CountryDataset, y, batch_loss, cfg, rng):
    """The epoch loop of both stages: per stratified batch `idx` of targets `y`,
    one optimizer step of `tensors` on `batch_loss(idx) -> (loss, {part: value})`.

    Returns the best-validation `model.copy()` (ties keep the earlier epoch) and
    one curve row per epoch: each part's batch-weighted mean, `valid_metric` of
    `score(model, valid.records)`, and `valid_revenue` (NaN after a fallback).
    """
    if not valid.records:  # no epoch could win, so the untrained model would come back
        raise DataError(f"{valid.country_id}: the validation split is empty")
    opt = OptimizerState(learning_rate=cfg.learning_rate, weight_decay=cfg.weight_decay)
    best, best_metric = model.copy(), -np.inf
    curve: list[dict] = []
    for epoch in range(cfg.epochs):
        sums: dict[str, float] = {}
        for idx in stratified_batches(y, cfg.batch_size, rng):
            loss, parts = batch_loss(idx)
            if not np.isfinite(loss.data):  # ops do not scan their outputs
                raise NumericError(f"non-finite training loss in epoch {epoch}")
            nm.zero_grads(tensors)
            loss.backward()
            nm.opt_step(tensors, opt)
            for name, value in parts.items():
                sums[name] = sums.get(name, 0.0) + value * len(idx)
        metric, is_revenue = valid_metric(score(model, valid.records), valid)
        means = {name: s / len(y) for name, s in sums.items()}
        revenue = metric if is_revenue else float("nan")
        curve.append({"epoch": epoch, **means, "valid_metric": metric, "valid_revenue": revenue})
        if metric > best_metric:
            best, best_metric = model.copy(), metric
    return best, curve


def pretrain(
    ds_train: CountryDataset,
    ds_valid: CountryDataset,
    cfg: PretrainConfig,
) -> tuple[EncoderParams, list[dict]]:
    """Train the encoder on labeled source records; keep the best-validation epoch."""
    labeled, y = labeled_targets(ds_train, "pretraining")
    rng = np.random.default_rng(cfg.seed)
    params = EncoderParams.from_split(rng, ds_train, cfg.encoder)
    feats, hs6_idx, cty_idx = batch_inputs(params, labeled)

    def batch_loss(idx):
        h = embed_batch(params, feats[idx], hs6_idx[idx], cty_idx[idx])
        scl_val, scl_part = 0.0, None
        if cfg.scl_weight and len(idx) >= 2:
            scl = scl_loss(h, y[idx], cfg.tau)
            scl_val = scl.item()
            # averaged per anchor in the joint objective: the raw sum grows
            # with batch size and swamps the classification term
            scl_part = nm.mul(scl, cfg.scl_weight / len(idx))
        cls = nm.bce(score_batch(params, h), Tensor(y[idx].astype(np.float64).reshape(-1, 1)))
        loss = cls if scl_part is None else nm.add(scl_part, cls)
        return loss, {"scl_loss": scl_val, "cls_loss": cls.item()}

    return fit(params, params.tensors, score_records, ds_valid, y, batch_loss, cfg, rng)


def curve_to_csv(curve: list[dict], columns: tuple[str, ...]) -> str:
    """The `columns` of each curve row as CSV, floats in repr form."""
    lines = [",".join(columns)]
    lines += [",".join(repr(row[c]) for c in columns) for row in curve]
    return "\n".join(lines) + "\n"


def select_fraud_like(
    params: EncoderParams, ds: CountryDataset, fraction: float = 0.05
) -> CountryDataset:
    """Top ceil(fraction * n) records by fraud score, ties by ascending id."""
    if not ds.records:
        raise DataError(f"{ds.country_id}: cannot select from an empty dataset")
    if not 0 < fraction <= 1:
        raise DataError(f"fraction {fraction} out of (0, 1]")
    keep = np.zeros(len(ds), dtype=bool)
    keep[inspected(score_records(params, ds.records), ds.records, fraction)] = True
    return ds.subset(keep)
