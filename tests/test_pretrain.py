import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from protobank.adapt import FinetuneConfig
from protobank.declarations import CountryDataset, SplitSpec, mask_labels, split
from protobank.encoder import (
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    embed_batch,
    embed_matrix,
    score_records,
)
from protobank.errors import DataError, NumericError
from protobank.numerics import Tensor
from protobank import numerics as nm
from protobank.pretrain import (
    PretrainConfig,
    curve_to_csv,
    fit,
    labeled_targets,
    pretrain,
    scl_loss,
    select_fraud_like,
    stratified_batches,
    valid_metric,
)
from tests.records_edge import records_of
from tests.test_declarations import make_record

FAST = PretrainConfig(epochs=4, batch_size=32, seed=0, encoder=EncoderConfig(k=4, d=8, n_kernels=2))


def separable_dataset(n=300, n_days=80, seed=0):
    """Fraud records have much lower cif for their weight; linearly separable."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        fraud = i % 5 == 0
        weight = float(rng.uniform(5, 15))
        value = weight * (3.0 if fraud else 30.0) * float(rng.uniform(0.9, 1.1))
        records.append(
            make_record(
                i,
                day=int(rng.integers(0, n_days)),
                illicit=fraud,
                revenue=10.0 if fraud else 0.0,
            ).__class__(
                id=i,
                date=make_record(i, day=int(i * n_days / n)).date,
                quantity=weight / 2,
                gross_weight=weight,
                hs6="100001" if i % 2 == 0 else "100002",
                country_code="US",
                cif_value=value,
                total_taxes=value * 0.1,
                illicit=fraud,
                revenue=25.0 if fraud else 0.0,
            )
        )
    return CountryDataset.build("SEP", records_of(records))


class TestSclLoss:
    def test_two_identical_same_class_is_exact_zero(self):
        h = Tensor(np.array([[0.6, 0.8], [0.6, 0.8]]))
        assert scl_loss(h, np.array([1, 1]), 0.07).item() == 0.0

    def test_three_point_hand_case(self):
        h = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        loss = scl_loss(h, np.array([0, 0, 1]), 1.0)
        assert abs(loss.item() - 2 * math.log(1 + math.exp(-1))) < 1e-12

    def test_singleton_classes_contribute_zero(self):
        h = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert scl_loss(h, np.array([0, 1, 2]), 0.07).item() == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(10, 6))
        y = rng.integers(0, 2, 10)
        base = scl_loss(Tensor(h), y, 0.07).item()
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(10)
            assert abs(scl_loss(Tensor(h[perm]), y[perm], 0.07).item() - base) < 1e-9

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            h = rng.normal(size=(n, 5))
            y = rng.integers(0, 2, n)
            assert scl_loss(Tensor(h), y, 0.07).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        from tests.gradcheck import grad_check

        rng = np.random.default_rng(3)
        h = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, 8)
        err = grad_check(lambda t: scl_loss(t, y, 0.07), Tensor(h), eps=1e-5)
        assert err <= 1e-5

    def test_tau_ordering_of_gradient_norms(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h = rng.normal(size=(10, 6))
            y = rng.integers(0, 2, 10)
            norms = []
            for tau in (1.0, 0.1, 0.07, 0.01):
                t = Tensor(h.copy(), requires_grad=True)
                scl_loss(t, y, tau).backward()
                norms.append(np.linalg.norm(t.grad))
            assert norms == sorted(norms), f"not monotone: {norms}"

    @pytest.mark.parametrize("tau", [0.001, 0.0015, float("nan")])
    def test_tau_below_floor_rejected(self, tau):
        # below 0.01, exp(s / tau) or the squared denominators of its gradient overflow
        with pytest.raises(DataError, match="tau"):
            scl_loss(Tensor(np.eye(3)), np.array([0, 0, 1]), tau)
        with pytest.raises(DataError, match="tau"):
            PretrainConfig(tau=tau)

    def test_tau_floor_accepted(self):
        PretrainConfig(tau=0.01)
        t = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]), requires_grad=True)
        loss = scl_loss(t, np.array([0, 0, 1]), 0.01)
        loss.backward()
        assert np.isfinite(loss.item()) and np.all(np.isfinite(t.grad))

    def test_batch_too_small(self):
        with pytest.raises(DataError):
            scl_loss(Tensor(np.ones((1, 3))), np.array([0]), 0.07)
        with pytest.raises(DataError):
            scl_loss(Tensor(np.ones((2, 3))), np.array([0, 1]), 0.0)


class TestConfigChecks:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("weight_decay", -0.01),
        ],
    )
    def test_bad_step_sizes_rejected(self, name, value):
        for cls in (PretrainConfig, FinetuneConfig):
            with pytest.raises(DataError, match=name):
                cls(**{name: value})

    def test_zero_weight_decay_accepted(self):
        PretrainConfig(weight_decay=0.0)
        FinetuneConfig(weight_decay=0.0)

    @pytest.mark.parametrize(
        "fields",
        [{"d": 0}, {"n_kernels": 0}, {"k": -1}, {"k": 4.0}, {"d": True}, {"use_interaction": 1}],
    )
    def test_bad_encoder_config_rejected(self, fields):
        with pytest.raises(DataError, match="invalid EncoderConfig"):
            EncoderConfig(**fields)


def nan_after(monkeypatch, op: str, calls: int) -> dict:
    """Make numerics op `op` put a NaN in its output from call `calls` + 1 on.

    Also counts `opt_step` calls in the returned dict: `steps` in all and
    `steps_after_nan` once a NaN has been emitted.
    """
    seen = {"calls": 0, "nan": False, "steps": 0, "steps_after_nan": 0}
    orig_op, orig_step = getattr(nm, op), nm.opt_step

    def bad_op(*args, **kwargs):
        out = orig_op(*args, **kwargs)
        seen["calls"] += 1
        if seen["calls"] > calls:
            out.data.flat[0] = np.nan
            seen["nan"] = True
        return out

    def counted_step(*args):
        seen["steps"] += 1
        seen["steps_after_nan"] += seen["nan"]
        return orig_step(*args)

    monkeypatch.setattr(nm, op, bad_op)
    monkeypatch.setattr(nm, "opt_step", counted_step)
    return seen


class TestFiniteBoundaries:
    """Ops do not scan their outputs; a NaN an op emits must still stop training
    before the next optimizer step, and must not leave the model as a score."""

    @pytest.mark.parametrize("scl_weight", [1.0, 0.0], ids=["scl", "no-scl"])
    def test_nan_op_stops_pretraining_before_a_step(self, monkeypatch, scl_weight):
        parts = split(separable_dataset(), SplitSpec(15, 10))
        seen = nan_after(monkeypatch, "tanh", 3)
        with pytest.raises(NumericError):
            pretrain(parts["train"], parts["valid"], dataclasses.replace(FAST, scl_weight=scl_weight))
        assert seen["nan"] and seen["steps"] == 3
        assert seen["steps_after_nan"] == 0

    @pytest.mark.parametrize("op", ["tanh", "conv2d", "relu", "sigmoid"])
    def test_nan_op_under_scoring_raises(self, monkeypatch, op):
        parts = split(separable_dataset(), SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        records = parts["test"].records
        nan_after(monkeypatch, op, 0)
        with pytest.raises(NumericError, match="non-finite model output"):
            score_records(params, records)
        if op != "sigmoid":  # the fraud head is not part of the embedding
            with pytest.raises(NumericError, match="non-finite model output"):
                embed_matrix(params, records)

    @pytest.mark.parametrize("op", ["tanh", "conv2d", "relu"])
    def test_nan_op_under_blocked_scoring_raises(self, monkeypatch, op):
        # over 64 records, the interaction maps are built a block at a time
        parts = split(separable_dataset(), SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        records = parts["train"].records
        assert len(records) > 64
        nan_after(monkeypatch, op, 0)
        for embed in (score_records, embed_matrix):
            with pytest.raises(NumericError, match="non-finite model output"):
                embed(params, records)


class TestStratifiedBatches:
    def test_covers_all_indices_once(self):
        rng = np.random.default_rng(0)
        y = np.array([0] * 90 + [1] * 10)
        batches = stratified_batches(y, 32, rng)
        all_idx = np.concatenate(batches)
        assert sorted(all_idx.tolist()) == list(range(100))

    def test_each_batch_has_both_classes(self):
        rng = np.random.default_rng(1)
        y = np.array([0] * 120 + [1] * 12)
        for batch in stratified_batches(y, 32, rng):
            assert {int(y[i]) for i in batch} == {0, 1}


class TestPretrain:
    def test_deterministic(self):
        ds = separable_dataset()
        parts = split(ds, SplitSpec(15, 10))
        a, _ = pretrain(parts["train"], parts["valid"], FAST)
        b, _ = pretrain(parts["train"], parts["valid"], FAST)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_beats_random_ranking_on_separable_data(self):
        from protobank.evaluation import revenue_at_k

        ds = separable_dataset()
        parts = split(ds, SplitSpec(15, 10))
        params, curve = pretrain(parts["train"], parts["valid"], FAST)
        scores = score_records(params, parts["test"].records)
        model_rev = revenue_at_k(scores, parts["test"], 0.2)
        rng = np.random.default_rng(0)
        random_revs = [
            revenue_at_k(rng.permutation(len(scores)), parts["test"], 0.2) for _ in range(100)
        ]
        assert model_rev > np.mean(random_revs)
        assert len(curve) == FAST.epochs

    def test_frauds_score_above_clean_after_pretraining(self):
        ds = separable_dataset()
        parts = split(ds, SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        scores = score_records(params, parts["train"].records)
        y = np.array([bool(r.illicit) for r in parts["train"].records])
        assert scores[y].mean() > scores[~y].mean()

    def test_pure_scl_still_clusters(self):
        # pretraining's loop with the contrastive term alone as the objective
        ds = separable_dataset()
        parts = split(ds, SplitSpec(15, 10))
        labeled, y = labeled_targets(parts["train"], "pretraining")
        rng = np.random.default_rng(FAST.seed)
        params = EncoderParams.from_split(rng, parts["train"], FAST.encoder)
        feats, hs6_idx, cty_idx = batch_inputs(params, labeled)

        def batch_loss(idx):
            h = embed_batch(params, feats[idx], hs6_idx[idx], cty_idx[idx])
            return nm.mul(scl_loss(h, y[idx], FAST.tau), 1 / len(idx)), {}

        params, _ = fit(params, params.tensors, score_records, parts["valid"], y, batch_loss, FAST, rng)
        h = embed_matrix(params, parts["train"].records)
        y = np.array([bool(r.illicit) for r in parts["train"].records])
        assert _silhouette(h, y) > 0.0

    def test_one_epoch_memory_peak(self):
        from protobank.declarations import generate_world
        from protobank.evaluation import two_country_world_config

        src = split(generate_world(two_country_world_config())["SRC"], SplitSpec())
        gc.collect()
        tracemalloc.start()
        try:
            pretrain(src["train"], src["valid"], PretrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 128-record step's graph holds its (128, 8, 16, 16) conv map once
        # (2 MiB) and is freed as backward consumes it: the epoch peaks near
        # 6.5 MiB; a graph kept alive until the next step's forward, with two
        # to four copies of each conv map, peaks near 14.6 MiB
        assert peak < 10 * 2**20

    def test_single_class_rejected(self):
        records = [make_record(i, day=i, illicit=False, revenue=0.0) for i in range(60)]
        ds = CountryDataset.build("XX", records_of(records))
        parts = split(ds, SplitSpec(10, 5))
        with pytest.raises(DataError):
            pretrain(parts["train"], parts["valid"], FAST)

    def test_curve_csv_shape(self):
        curve = [{"epoch": 0, "scl_loss": 1.0, "cls_loss": 0.5, "valid_revenue": 0.25}]
        text = curve_to_csv(curve, ("epoch", "scl_loss", "cls_loss", "valid_revenue"))
        assert text.splitlines()[0] == "epoch,scl_loss,cls_loss,valid_revenue"
        assert "0,1.0,0.5,0.25" in text

    def test_curve_rows_carry_metric_and_revenue(self):
        parts = split(separable_dataset(), SplitSpec(15, 10))
        _, curve = pretrain(parts["train"], parts["valid"], FAST)
        assert len(curve) == FAST.epochs
        for row in curve:
            assert set(row) == {"epoch", "scl_loss", "cls_loss", "valid_metric", "valid_revenue"}
            assert row["valid_revenue"] == row["valid_metric"] or math.isnan(row["valid_revenue"])


class _Scalar:
    """A one-tensor model for driving `fit` directly."""

    def __init__(self, value):
        self.tensors = {"w": Tensor(np.array([value]), requires_grad=True)}

    def copy(self):
        return _Scalar(self.tensors["w"].data[0])


class TestFit:
    def _run(self, valid, scores):
        model = _Scalar(1.0)
        seen = []

        def batch_loss(idx):
            seen.append(model.tensors["w"].data[0])
            w = model.tensors["w"]
            return nm.reduce_sum(nm.mul(w, w)), {"sq": 1.0}

        cfg = PretrainConfig(epochs=3, batch_size=4)
        y = np.array([0, 1] * 4)
        best, curve = fit(model, model.tensors, scores, valid, y, batch_loss, cfg,
                          np.random.default_rng(0))
        return best, curve, seen

    def test_tie_keeps_earlier_epoch(self):
        parts = split(separable_dataset(), SplitSpec(15, 10))
        constant = lambda m, records: np.full(len(records), 0.5)  # noqa: E731
        best, curve, seen = self._run(parts["valid"], constant)
        assert [r["epoch"] for r in curve] == [0, 1, 2]
        assert len({r["valid_metric"] for r in curve}) == 1
        assert len(seen) == 6  # two batches per epoch
        assert best.tensors["w"].data[0] == seen[2]  # the weight after epoch 0
        assert all(r["sq"] == 1.0 for r in curve)  # batch-weighted mean of each part

    def test_empty_validation_split_rejected(self):
        # no epoch could beat the initial -inf, so the untrained model came back
        parts = split(separable_dataset(), SplitSpec(15, 10))
        empty = parts["valid"].subset(slice(0, 0))
        with pytest.raises(DataError, match="validation split is empty"):
            self._run(empty, lambda m, records: np.zeros(0))

    def test_bce_fallback_reads_sealed_labels(self):
        # frauds without revenue leave Revenue@k undefined; masking hides the
        # labels the -BCE fallback would read if it looked at the records
        records = [make_record(i, day=i, illicit=i % 3 == 0, revenue=0.0) for i in range(30)]
        ds = CountryDataset.build("VM", records_of(records))
        scores = np.linspace(0.05, 0.95, 30)
        y = np.array([1.0 if r.illicit else 0.0 for r in ds.records])
        want = float(np.mean(y * np.log(scores) + (1 - y) * np.log(1 - scores)))
        assert valid_metric(scores, ds) == (want, False)
        assert valid_metric(scores, mask_labels(ds, 0.1, 0)) == (want, False)


def _silhouette(h: np.ndarray, labels: np.ndarray) -> float:
    # mean silhouette over points, two clusters, euclidean
    d = np.sqrt(((h[:, None, :] - h[None, :, :]) ** 2).sum(axis=2))
    vals = []
    for i in range(len(h)):
        same = labels == labels[i]
        same[i] = False
        if not same.any():
            continue
        a = d[i, same].mean()
        b = d[i, ~same & (np.arange(len(h)) != i)].mean()
        vals.append((b - a) / max(a, b))
    return float(np.mean(vals))


class TestSelectFraudLike:
    def test_top_fraction_by_score(self):
        ds = separable_dataset(n=100)
        parts = split(ds, SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        picked = select_fraud_like(params, parts["train"], 0.05)
        n = len(parts["train"].records)
        assert len(picked) == math.ceil(0.05 * n)
        scores = score_records(params, parts["train"].records)
        ids = np.array([r.id for r in parts["train"].records])
        order = np.lexsort((ids, -scores))
        expected = {int(ids[i]) for i in order[: len(picked)]}
        assert {r.id for r in picked.records} == expected

    def test_ties_resolved_by_ascending_id(self):
        params_ds = separable_dataset(n=100)
        parts = split(params_ds, SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        # constant head weights force equal scores
        params.tensors["head_w"].data[:] = 0
        params.tensors["head_b"].data[:] = 0
        picked = select_fraud_like(params, parts["train"], 0.1)
        ids = sorted(r.id for r in parts["train"].records)
        assert sorted(r.id for r in picked.records) == ids[: len(picked)]

    def test_selected_subset_is_fraud_enriched(self):
        ds = separable_dataset(n=400)
        parts = split(ds, SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        picked = select_fraud_like(params, parts["train"], 0.1)
        base_rate = np.mean([r.illicit for r in parts["train"].records])
        picked_rate = np.mean([r.illicit for r in picked.records])
        assert picked_rate > base_rate

    def test_labels_retained(self):
        ds = separable_dataset(n=100)
        parts = split(ds, SplitSpec(15, 10))
        params, _ = pretrain(parts["train"], parts["valid"], FAST)
        picked = select_fraud_like(params, parts["train"], 0.2)
        assert all(r.illicit is not None for r in picked.records)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            select_fraud_like(None, CountryDataset.build("XX", records_of([])), 0.05)
