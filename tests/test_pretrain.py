import math

import numpy as np
import pytest

from protobank.declarations import CountryDataset, SplitSpec, split
from protobank.encoder import EncoderConfig, embed_matrix, score_records
from protobank.errors import DataError
from protobank.numerics import Tensor
from protobank.pretrain import (
    PretrainConfig,
    curve_to_csv,
    pretrain,
    scl_loss,
    select_fraud_like,
    stratified_batches,
)
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
    return CountryDataset.build("SEP", records)


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
        from protobank import numerics as nm
        from protobank.numerics import grad_check

        rng = np.random.default_rng(3)
        h = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, 8)
        err = grad_check(lambda t: scl_loss(nm.reshape(t, (8, 5)), y, 0.07), Tensor(h.ravel()), eps=1e-5)
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
            PretrainConfig(tau=tau).validate()

    def test_tau_floor_accepted(self):
        PretrainConfig(tau=0.01).validate()
        t = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]), requires_grad=True)
        loss = scl_loss(t, np.array([0, 0, 1]), 0.01)
        loss.backward()
        assert np.isfinite(loss.item()) and np.all(np.isfinite(t.grad))

    def test_batch_too_small(self):
        with pytest.raises(DataError):
            scl_loss(Tensor(np.ones((1, 3))), np.array([0]), 0.07)
        with pytest.raises(DataError):
            scl_loss(Tensor(np.ones((2, 3))), np.array([0, 1]), 0.0)


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
        ds = separable_dataset()
        parts = split(ds, SplitSpec(15, 10))
        cfg = PretrainConfig(
            epochs=4, batch_size=32, seed=0, cls_weight=0.0,
            encoder=EncoderConfig(k=4, d=8, n_kernels=2),
        )
        params, _ = pretrain(parts["train"], parts["valid"], cfg)
        h = embed_matrix(params, parts["train"].records)
        y = np.array([bool(r.illicit) for r in parts["train"].records])
        assert _silhouette(h, y) > 0.0

    def test_single_class_rejected(self):
        records = [make_record(i, day=i, illicit=False, revenue=0.0) for i in range(60)]
        ds = CountryDataset.build("XX", records)
        parts = split(ds, SplitSpec(10, 5))
        with pytest.raises(DataError):
            pretrain(parts["train"], parts["valid"], FAST)

    def test_curve_csv_shape(self):
        curve = [{"epoch": 0, "scl_loss": 1.0, "cls_loss": 0.5, "valid_revenue": 0.25}]
        text = curve_to_csv(curve)
        assert text.splitlines()[0] == "epoch,scl_loss,cls_loss,valid_revenue"
        assert "0,1.0,0.5,0.25" in text


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
            select_fraud_like(None, CountryDataset.build("XX", []), 0.05)
