import math

import numpy as np
import pytest

from protobank import numerics as nm
from protobank.adapt import (
    AdaptParams,
    FinetuneConfig,
    akc_finetune,
    calibrate,
    finetune,
    load_adapt,
    load_model,
    memory_attend,
    refine,
    save_adapt,
    score_records,
    target_forward,
)
from protobank.bank import assemble
from protobank.container import PrototypeSet
from protobank.declarations import SplitSpec, split
from protobank.encoder import EncoderConfig, batch_inputs, save_encoder
from protobank.errors import DataError, ShapeError
from protobank.numerics import Tensor, grad_check
from tests.test_declarations import make_dataset
from tests.test_encoder import small_params
from tests.test_pretrain import separable_dataset

SMALL_FT = FinetuneConfig(
    epochs=3, batch_size=32, seed=0, encoder=EncoderConfig(k=4, d=8, n_kernels=2)
)


def small_adapt(seed=0, d=6):
    rng = np.random.default_rng(seed)
    enc = small_params(seed=seed, config=EncoderConfig(k=4, d=d, n_kernels=2))
    return AdaptParams.init(enc, rng)


def small_bank(dim=6, rows=5, seed=0):
    rng = np.random.default_rng(seed)
    return assemble(
        [PrototypeSet("S", dim, rng.normal(size=(rows - 2, dim)), rng.normal(size=(2, dim)))]
    )


class TestMemoryAttend:
    def test_single_prototype_bank(self):
        bank = assemble([PrototypeSet("S", 3, np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0, 3.0]]))])
        # restrict to one row by slicing the matrix directly
        h_ts, w = memory_attend(np.array([[0.5, 0.5, 0.5]]), bank.matrix()[:1])
        assert np.allclose(w.data, [[1.0]])
        assert np.allclose(h_ts.data, [[1.0, 2.0, 3.0]])

    def test_two_orthogonal_prototypes_hand_softmax(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        h_ts, w = memory_attend(np.array([[1.0, 0.0]]), rows)
        e = math.e
        assert np.allclose(w.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
        assert np.allclose(h_ts.data, w.data @ rows, atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        bank = small_bank(dim=6, rows=9)
        _, w = memory_attend(rng.normal(size=(4, 6)), bank.matrix())
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w.data >= 0)

    def test_logit_shift_invariance(self):
        # adding a constant to every logit leaves the weights unchanged
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 4))
        rows = rng.normal(size=(6, 4))
        _, w1 = memory_attend(h, rows)
        shifted = nm.softmax(nm.add(nm.matmul(Tensor(h), nm.transpose(Tensor(rows))), 57.0), axis=1)
        assert np.allclose(w1.data, shifted.data, atol=1e-12)

    def test_empty_bank_and_dim_mismatch(self):
        with pytest.raises(DataError):
            memory_attend(np.ones((1, 3)), assemble([]).matrix())
        with pytest.raises(DataError):
            memory_attend(np.ones((1, 3)), np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            memory_attend(np.ones((2, 3)), np.ones((4, 5)))


class TestCalibrate:
    def test_gate_in_unit_interval(self):
        params = small_adapt()
        rng = np.random.default_rng(0)
        h_t = Tensor(rng.normal(size=(5, 6)))
        h_ts = Tensor(rng.normal(size=(5, 6)))
        _, gate = calibrate(params, h_t, h_ts)
        assert np.all(gate.data > 0) and np.all(gate.data < 1)

    def test_zero_gate_blocks_attended_summary(self):
        params = small_adapt()
        rng = np.random.default_rng(1)
        h_t = Tensor(rng.normal(size=(3, 6)))
        d = 6
        fuse_w = params.tensors["fuse_w"].data
        h_bar_a = nm.add(
            nm.matmul(nm.concat([Tensor(np.zeros((3, d))), h_t], axis=1), Tensor(fuse_w)),
            params.tensors["fuse_b"],
        )
        # gate pinned to zero: h_bar depends on h_ts only through e*h_ts = 0
        h_ts1 = Tensor(rng.normal(size=(3, d)))
        h_ts2 = Tensor(rng.normal(size=(3, d)))
        gated1 = nm.add(
            nm.matmul(nm.concat([nm.mul(Tensor(np.zeros((3, d))), h_ts1), h_t], axis=1), Tensor(fuse_w)),
            params.tensors["fuse_b"],
        )
        gated2 = nm.add(
            nm.matmul(nm.concat([nm.mul(Tensor(np.zeros((3, d))), h_ts2), h_t], axis=1), Tensor(fuse_w)),
            params.tensors["fuse_b"],
        )
        assert np.array_equal(gated1.data, gated2.data)
        assert np.array_equal(gated1.data, h_bar_a.data)

    def test_gradient_through_calibrate(self):
        params = small_adapt(seed=2)
        rng = np.random.default_rng(3)
        h_ts = Tensor(rng.normal(size=(4, 6)))
        probe = Tensor(rng.normal(size=(4, 6)))

        def f(t):
            h_bar, _ = calibrate(params, nm.reshape(t, (4, 6)), h_ts)
            return nm.reduce_sum(nm.mul(h_bar, probe))

        assert grad_check(f, Tensor(rng.normal(size=24)), eps=1e-5) <= 1e-5


class TestRefine:
    def test_zero_augmentation_is_identity(self):
        h = Tensor(np.array([[1.0, 2.0]]))
        out = refine(h, Tensor(np.zeros((1, 2))))
        assert np.array_equal(out.data, h.data)

    def test_additivity(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(2, 4)))
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(2, 4))
        lhs = refine(h, Tensor(a + b)).data
        rhs = refine(refine(h, Tensor(a)), Tensor(b)).data
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            refine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))


class TestFinetune:
    def _parts(self, n=260, seed=0):
        ds = separable_dataset(n=n, seed=seed)
        return split(ds, SplitSpec(15, 10))

    def test_deterministic(self):
        parts = self._parts()
        a, _ = finetune(parts["train"], parts["valid"], None, None, SMALL_FT)
        b, _ = finetune(parts["train"], parts["valid"], None, None, SMALL_FT)
        for name, t in a.all_tensors().items():
            assert np.array_equal(t.data, b.all_tensors()[name].data)

    def test_zero_epochs_returns_init(self):
        parts = self._parts()
        cfg = FinetuneConfig(epochs=0, seed=3, encoder=SMALL_FT.encoder)
        params, curve = finetune(parts["train"], parts["valid"], None, None, cfg)
        assert curve == []
        rng = np.random.default_rng(3)
        from protobank.adapt import _init_model

        fresh = _init_model(parts["train"], None, cfg, rng)
        for name, t in params.all_tensors().items():
            assert np.array_equal(t.data, fresh.all_tensors()[name].data)

    def test_no_memory_leaves_adapter_gradients_zero(self):
        parts = self._parts()
        cfg = FinetuneConfig(epochs=1, seed=0, use_memory=False, encoder=SMALL_FT.encoder)
        rng = np.random.default_rng(0)
        from protobank.adapt import _init_model

        params = _init_model(parts["train"], None, cfg, rng)
        labeled = parts["train"].labeled()
        feats, hi, ci = batch_inputs(params.encoder, labeled)
        y = Tensor(np.array([[1.0 if r.illicit else 0.0] for r in labeled]))
        pred, _ = target_forward(params, feats, hi, ci, None)
        nm.zero_grads(params.all_tensors())
        nm.bce(pred, y).backward()
        for name in params.tensors:
            assert params.tensors[name].grad is None  # no path into the adapter

    def test_single_class_labels_rejected(self):
        parts = self._parts()
        clean = parts["train"].subset(lambda r: not r.illicit)
        with pytest.raises(DataError):
            finetune(clean, parts["valid"], None, None, SMALL_FT)

    def test_memory_requires_matching_dim(self):
        parts = self._parts()
        with pytest.raises(ShapeError):
            finetune(parts["train"], parts["valid"], small_bank(dim=5), None, SMALL_FT)

    def test_init_from_source_reinitializes_head(self):
        parts = self._parts()
        src, _ = finetune(parts["train"], parts["valid"], None, None, SMALL_FT)
        cfg = FinetuneConfig(
            epochs=0, seed=9, init_from_source=True, use_memory=False, encoder=SMALL_FT.encoder
        )
        model, _ = finetune(parts["train"], parts["valid"], None, src.encoder, cfg)
        assert not np.array_equal(
            model.encoder.tensors["head_w"].data, src.encoder.tensors["head_w"].data
        )
        assert np.array_equal(
            model.encoder.tensors["w_fuse"].data, src.encoder.tensors["w_fuse"].data
        )

    def test_memory_pathway_used_in_scoring(self):
        parts = self._parts()
        bank = small_bank(dim=8, rows=6, seed=4)
        cfg = FinetuneConfig(epochs=2, seed=1, use_memory=True, encoder=SMALL_FT.encoder)
        model, _ = finetune(parts["train"], parts["valid"], bank, None, cfg)
        assert model.use_memory and model.bank_matrix is not None
        with_bank = score_records(model, parts["test"].records)
        model.use_memory = False
        without = score_records(model, parts["test"].records)
        assert not np.allclose(with_bank, without)


class TestAkc:
    def _parts(self):
        return split(separable_dataset(n=260), SplitSpec(15, 10))

    def _source(self, parts):
        src, _ = finetune(parts["train"], parts["valid"], None, None, SMALL_FT)
        return src.encoder

    def test_degenerate_config_matches_vanilla(self):
        parts = self._parts()
        src = self._source(parts)
        cfg = FinetuneConfig(epochs=2, seed=5, encoder=SMALL_FT.encoder)
        vanilla_cfg = FinetuneConfig(
            epochs=2, seed=5, init_from_source=True, use_memory=False, encoder=SMALL_FT.encoder
        )
        vanilla, _ = finetune(parts["train"], parts["valid"], None, src, vanilla_cfg)
        akc, _ = akc_finetune(
            parts["train"], parts["valid"], src, cfg, keep_fraction=1.0, akc_weight=0.0
        )
        for name, t in vanilla.all_tensors().items():
            assert np.array_equal(t.data, akc.all_tensors()[name].data)

    def test_consistency_subset_counts_and_ties(self):
        from protobank.adapt import consistency_subset
        from tests.test_declarations import make_record

        labeled = [make_record(i, day=i, illicit=i % 2 == 0, revenue=1.0 if i % 2 == 0 else 0.0)
                   for i in range(10)]
        src = np.linspace(0.0, 0.9, 10)
        tgt = src + np.array([0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.1, 0.2, 0.3, 0.4])
        picked = consistency_subset(labeled, src, tgt, 0.2)
        assert len(picked) == 2  # exactly round(0.2 * 10)
        assert [r.id for r in picked] == [5, 4]  # smallest gaps first
        # all-equal gaps resolve by ascending id
        flat = consistency_subset(labeled, src, src, 0.3)
        assert [r.id for r in flat] == [0, 1, 2]

    def test_mse_zero_for_identical_extractors(self):
        parts = self._parts()
        src = self._source(parts)
        from protobank.encoder import embed_matrix

        labeled = parts["train"].labeled()[:10]
        h_src = embed_matrix(src, labeled)
        h_same = embed_matrix(src.copy(), labeled)
        assert np.array_equal(h_src, h_same)
        assert float(((h_src - h_same) ** 2).mean()) == 0.0

    def test_keep_fraction_validated(self):
        parts = self._parts()
        src = self._source(parts)
        with pytest.raises(DataError):
            akc_finetune(parts["train"], parts["valid"], src, SMALL_FT, keep_fraction=0.0)


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_composition(self, seed):
        rng = np.random.default_rng(seed)
        params = small_adapt(seed=seed)
        bank_rows = rng.normal(size=(4, 6))
        ds = separable_dataset(n=8, seed=seed)
        feats, hi, ci = batch_inputs(params.encoder, ds.records)
        y = Tensor(np.array([[1.0 if r.illicit else 0.0] for r in ds.records]))
        name = ["w_num", "hs6_table", "gate_w1", "fuse_w"][seed % 4]
        holder = params.tensors if name.startswith(("gate", "fuse")) else params.encoder.tensors

        def f(t):
            saved = holder[name]
            holder[name] = t
            try:
                pred, _ = target_forward(params, feats, hi, ci, bank_rows)
                return nm.bce(pred, y)
            finally:
                holder[name] = saved

        assert grad_check(f, holder[name], eps=1e-5) <= 1e-5


class TestAdaptSerialization:
    def test_round_trip_with_bank(self):
        parts = split(separable_dataset(n=260), SplitSpec(15, 10))
        bank = small_bank(dim=8, rows=6, seed=4)
        cfg = FinetuneConfig(epochs=1, seed=1, use_memory=True, encoder=SMALL_FT.encoder)
        model, _ = finetune(parts["train"], parts["valid"], bank, None, cfg)
        blob = save_adapt(model)
        again = load_adapt(blob)
        assert again.use_memory and again.use_calibration
        assert np.array_equal(again.bank_matrix, model.bank_matrix)
        scores_a = score_records(model, parts["test"].records)
        scores_b = score_records(again, parts["test"].records)
        assert np.array_equal(scores_a, scores_b)
        assert save_adapt(again) == blob

    def test_load_model_dispatch(self):
        enc = small_params(seed=1)
        model = load_model(save_encoder(enc))
        from protobank.encoder import EncoderParams

        assert isinstance(model, EncoderParams)
        adapt = small_adapt(seed=2)
        assert isinstance(load_model(save_adapt(adapt)), AdaptParams)


class TestGraphFreeScoring:
    def test_entry_points_keep_flags_and_build_no_graph(self, monkeypatch):
        from protobank import adapt
        from protobank.bank import extract_prototypes
        from protobank.encoder import embed_matrix
        from protobank.encoder import score_records as encoder_scores
        from protobank.pretrain import select_fraud_like

        model = small_adapt(d=6)
        model.bank_matrix = small_bank(dim=6).matrix()
        model.use_memory = True
        # a mixed set of flags must come back exactly as it was
        model.tensors["gate_w1"] = Tensor(model.tensors["gate_w1"].data)
        flags = {k: t.requires_grad for k, t in model.all_tensors().items()}
        ds = make_dataset(30)

        graphs = []
        original = adapt.target_forward

        def recording(*args):
            out = original(*args)
            graphs.extend((t._vjp, t._parents) for t in out)
            return out

        monkeypatch.setattr(adapt, "target_forward", recording)
        adapt.score_records(model, ds.records)
        embed_matrix(model.encoder, ds.records)
        encoder_scores(model.encoder, ds.records)
        select_fraud_like(model.encoder, ds, 0.5)
        extract_prototypes(model.encoder, ds, per_class=2)

        assert graphs and all(g == (None, ()) for g in graphs)
        assert {k: t.requires_grad for k, t in model.all_tensors().items()} == flags
        feats, hi, ci = batch_inputs(model.encoder, ds.records)
        pred, _ = original(model, feats, hi, ci, model.bank_matrix)
        assert pred._vjp is not None  # training still records its graph
