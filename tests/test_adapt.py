import math
import tracemalloc

import numpy as np
import pytest

from protobank import adapt
from protobank import numerics as nm
from protobank.adapt import (
    AdaptParams,
    FinetuneConfig,
    FrozenBank,
    akc_finetune,
    calibrate,
    finetune,
    load_model,
    memory_attend,
    save_adapt,
    score_chunk,
    score_records,
    target_forward,
)
from protobank.bank import assemble
from protobank.container import MemoryBank, PrototypeSet
from protobank.declarations import SplitSpec, split
from protobank.encoder import (
    EncoderConfig,
    EncoderParams,
    batch_inputs,
    embed_batch,
    save_encoder,
    score_batch,
)
from protobank.errors import DataError, NumericError, ShapeError
from protobank.numerics import Tensor
from tests.gradcheck import grad_check
from tests.test_declarations import make_dataset
from tests.test_encoder import small_params, world_params, world_records
from tests.records_edge import records_of
from tests.test_pretrain import nan_after, separable_dataset

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
        h_ts, w = memory_attend(Tensor(np.full((1, 3), 0.5)), FrozenBank(bank.matrix()[:1], 3))
        assert np.allclose(w.data, [[1.0]])
        assert np.allclose(h_ts.data, [[1.0, 2.0, 3.0]])

    def test_two_orthogonal_prototypes_hand_softmax(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        h_ts, w = memory_attend(Tensor(np.array([[1.0, 0.0]])), FrozenBank(rows, 2))
        e = math.e
        assert np.allclose(w.data, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)
        assert np.allclose(h_ts.data, w.data @ rows, atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        bank = small_bank(dim=6, rows=9)
        _, w = memory_attend(Tensor(rng.normal(size=(4, 6))), FrozenBank(bank.matrix(), 6))
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w.data >= 0)

    def test_logit_shift_invariance(self):
        # adding a constant to every logit leaves the weights unchanged
        rng = np.random.default_rng(1)
        h = rng.normal(size=(3, 4))
        rows = rng.normal(size=(6, 4))
        _, w1 = memory_attend(Tensor(h), FrozenBank(rows, 4))
        shifted = nm.softmax(nm.add(nm.matmul(Tensor(h), nm.transpose(Tensor(rows))), 57.0), axis=1)
        assert np.allclose(w1.data, shifted.data, atol=1e-12)

    def test_empty_bank_and_dim_mismatch(self):
        with pytest.raises(DataError):
            FrozenBank(assemble([]).matrix(), 3)
        with pytest.raises(DataError):
            FrozenBank(np.zeros((0, 3)), 3)
        # a bank of another width than the model's is bad input, not a shape fault
        with pytest.raises(DataError, match="bank dimension 5 != representation width 3"):
            FrozenBank(np.ones((4, 5)), 3)
        with pytest.raises(ShapeError):
            memory_attend(Tensor(np.ones((2, 3))), FrozenBank(np.ones((4, 5)), 5))
        # a bank that is not a matrix is bad data, and the message names its shape
        with pytest.raises(DataError, match=r"\(3,\)"):
            FrozenBank(np.ones(3), 3)
        with pytest.raises(DataError, match=r"\(1, 4, 3\)"):
            FrozenBank(np.ones((1, 4, 3)), 3)


_SOFTMAX = nm.softmax


def two_array_softmax(a, axis=-1, out=None):
    """Softmax into a fresh array whatever `out` names, so the logits are kept."""
    return _SOFTMAX(a, axis=axis)


@pytest.fixture(scope="module")
def world():
    """An encoder over `world_records()` (1100 records) and those records."""
    return world_params(), world_records().records


def world_model(world, bank_rows: int) -> AdaptParams:
    d = world[0].config.d
    bank = FrozenBank(np.random.default_rng(bank_rows).normal(size=(bank_rows, d)), d)
    return AdaptParams.init(world[0], np.random.default_rng(1), bank)


class TestLogitsOverwrite:
    """memory_attend lets softmax write into the logits; every bit must stay."""

    @pytest.mark.parametrize("rows", [1, 197, 500, 2000])
    def test_attend_and_scores_match_two_array_form(self, rows, world, monkeypatch):
        model, records = world_model(world, rows), world[1]
        h = np.random.default_rng(0).normal(size=(1025, model.encoder.config.d))

        def outputs():
            got = []
            for n in (1, 1023, 1024, 1025):
                attended, weights = memory_attend(Tensor(h[:n]), model.bank)
                got += [attended.data, weights.data, score_records(model, records[:n])]
            return got

        in_place = outputs()
        monkeypatch.setattr(nm, "softmax", two_array_softmax)
        for got, want in zip(in_place, outputs(), strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_finetune_with_big_bank_matches_two_array_form(self, monkeypatch):
        parts = split(separable_dataset(n=260), SplitSpec(15, 10))
        bank = small_bank(dim=8, rows=2000, seed=5)
        cfg = FinetuneConfig(epochs=2, seed=2, use_memory=True, encoder=SMALL_FT.encoder)
        in_place, curve = finetune(parts["train"], parts["valid"], bank, None, cfg)
        monkeypatch.setattr(nm, "softmax", two_array_softmax)
        want, want_curve = finetune(parts["train"], parts["valid"], bank, None, cfg)
        assert save_adapt(in_place) == save_adapt(want)
        assert repr(curve) == repr(want_curve)

    @pytest.mark.parametrize("rows", [1, 197, 2000])
    def test_grad_check_wrt_h(self, rows):
        rng = np.random.default_rng(rows)
        bank = FrozenBank(rng.normal(size=(rows, 4)), 4)
        g = rng.normal(size=(3, 4))

        def f(t):
            return nm.reduce_sum(nm.mul(memory_attend(t, bank)[0], Tensor(g)))

        assert grad_check(f, Tensor(rng.normal(size=(3, 4))), eps=1e-5) <= 1e-5

    def test_score_records_memory_peak(self, world):
        model = world_model(world, 2000)
        tracemalloc.start()
        try:
            score_records(model, world[1][:1024])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2000-row bank scores 512 records per chunk: one (512, 2000) float64
        # array is 8.2 MB; keeping the logits next to the softmax output would
        # hold two of them
        assert peak < 1.5 * score_chunk(2000) * 2000 * 8


class TestScoringChunks:
    """Chunk rows follow the bank's size, so scoring memory stays flat as it grows."""

    @pytest.mark.parametrize(
        "rows, chunk",
        [(0, 1024), (1, 1024), (197, 1024), (521, 1024), (1024, 1024), (1025, 512),
         (2000, 512), (50_000, 16), (2**20, 1), (2**21, 1)],
    )
    def test_chunk_rule(self, rows, chunk):
        assert score_chunk(rows) == chunk

    @pytest.mark.parametrize("rows, calls", [(1024, [1024, 1024, 52]), (2000, [512] * 4 + [52])])
    def test_one_attend_call_per_chunk(self, rows, calls, world, monkeypatch):
        model, seen = world_model(world, rows), []
        attend = adapt.memory_attend

        def counted(h, memory):
            seen.append((h.shape[0], memory))
            return attend(h, memory)

        monkeypatch.setattr(adapt, "memory_attend", counted)
        score_records(model, (world[1] + world[1])[:2100])
        assert [n for n, _ in seen] == calls
        assert all(memory is model.bank for _, memory in seen)

    def test_score_records_memory_flat_in_bank_rows(self, world):
        model = world_model(world, 50_000)
        records = (world[1] + world[1])[:2048]
        tracemalloc.start()
        try:
            score_records(model, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1024-record chunks held a (1024, 50000) float64 logits array, 410 MB
        assert peak < 32 * 2**20


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

    @pytest.mark.parametrize("bias, gate", [(-1e3, 0.0), (0.0, 0.5), (1e3, 1.0)])
    def test_gate_scales_the_attended_summary(self, bias, gate):
        # a gate pinned shut leaves h_bar independent of h_ts
        params = small_adapt()
        params.tensors["gate_w2"].data[...] = 0.0
        params.tensors["gate_b2"].data[...] = bias
        rng = np.random.default_rng(4)
        h_t, h_ts = Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(size=(3, 6)))
        h_bar, got = calibrate(params, h_t, h_ts)
        assert np.all(got.data == gate)
        t = params.tensors
        fused_in = np.concatenate([gate * h_ts.data, h_t.data], axis=1)
        want = fused_in @ t["fuse_w"].data + t["fuse_b"].data
        assert np.allclose(h_bar.data, want, rtol=0, atol=1e-12)

    def test_gradient_through_calibrate(self):
        params = small_adapt(seed=2)
        rng = np.random.default_rng(3)
        h_ts = Tensor(rng.normal(size=(4, 6)))
        probe = Tensor(rng.normal(size=(4, 6)))

        def f(t):
            h_bar, _ = calibrate(params, t, h_ts)
            return nm.reduce_sum(nm.mul(h_bar, probe))

        assert grad_check(f, Tensor(rng.normal(size=(4, 6))), eps=1e-5) <= 1e-5


class TestTargetForward:
    """target_forward refines h by adding h_bar, the calibrated (or, without
    calibration, the attended) summary, and scores the sum."""

    def _inputs(self, bank: bool, use_calibration: bool = True):
        rng = np.random.default_rng(5)
        params = small_adapt(seed=5)
        params.bank = FrozenBank(rng.normal(size=(4, 6)), 6) if bank else None
        params.use_calibration = use_calibration
        return params, batch_inputs(params.encoder, separable_dataset(n=8, seed=5).records)

    @pytest.mark.parametrize("use_calibration", [True, False], ids=["calibrated", "direct"])
    def test_refined_representation_is_h_plus_h_bar(self, use_calibration):
        params, inputs = self._inputs(bank=True, use_calibration=use_calibration)
        h = embed_batch(params.encoder, *inputs)
        h_ts, _ = memory_attend(h, params.bank)
        h_bar = calibrate(params, h, h_ts)[0] if use_calibration else h_ts
        pred, h_hat = target_forward(params, *inputs)
        want = h.data + h_bar.data
        assert h_hat.data.tobytes() == want.tobytes()
        assert pred.data.tobytes() == score_batch(params.encoder, Tensor(want)).data.tobytes()

    def test_no_bank_leaves_the_representation_unrefined(self):
        params, inputs = self._inputs(bank=False)
        _, h_hat = target_forward(params, *inputs)
        assert h_hat.data.tobytes() == embed_batch(params.encoder, *inputs).data.tobytes()


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

    def test_curve_rows_carry_metric_and_revenue(self):
        parts = self._parts()
        _, curve = finetune(parts["train"], parts["valid"], small_bank(dim=8), None, SMALL_FT)
        assert [r["epoch"] for r in curve] == list(range(SMALL_FT.epochs))
        for row in curve:
            assert set(row) == {"epoch", "train_bce", "valid_metric", "valid_revenue"}
            assert row["valid_revenue"] == row["valid_metric"] or math.isnan(row["valid_revenue"])

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
        pred, _ = target_forward(params, feats, hi, ci)
        nm.zero_grads(params.all_tensors())
        nm.bce(pred, y).backward()
        for name in params.tensors:
            assert params.tensors[name].grad is None  # no path into the adapter

    def test_single_class_labels_rejected(self):
        parts = self._parts()
        clean = parts["train"].subset(parts["train"].records.illicit != 1)
        with pytest.raises(DataError):
            finetune(clean, parts["valid"], None, None, SMALL_FT)

    def test_memory_requires_matching_dim(self):
        parts = self._parts()
        with pytest.raises(DataError, match="bank dimension 5 != representation width 8"):
            finetune(parts["train"], parts["valid"], small_bank(dim=5), None, SMALL_FT)

    def test_empty_bank_is_refused(self):
        # None is the one way to say "no memory"; an empty bank is bad data
        parts = self._parts()
        with pytest.raises(DataError, match="memory bank is empty"):
            finetune(parts["train"], parts["valid"], MemoryBank(), None, SMALL_FT)

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
        assert model.bank is not None
        with_bank = score_records(model, parts["test"].records)
        model.bank = None
        without = score_records(model, parts["test"].records)
        assert not np.allclose(with_bank, without)

    def test_scores_follow_bank_content(self):
        """With the weights fixed, other bank rows of the same shape move the scores."""
        parts = self._parts()
        cfg = FinetuneConfig(epochs=2, seed=1, use_memory=True, encoder=SMALL_FT.encoder)
        model, _ = finetune(parts["train"], parts["valid"], small_bank(8, 6, seed=4), None, cfg)
        trained = score_records(model, parts["test"].records)
        model.bank = FrozenBank(small_bank(8, 6, seed=5).matrix(), 8)
        swapped = score_records(model, parts["test"].records)
        assert np.abs(swapped - trained).max() > 1e-6

    def test_copy_shares_bank_and_context_with_fresh_tensors(self):
        enc = small_params(seed=1, config=EncoderConfig(k=4, d=6, n_kernels=2))
        bank = FrozenBank(small_bank(dim=6).matrix(), 6)
        model = AdaptParams.init(enc, np.random.default_rng(1), bank, False)
        twin = model.copy()
        assert twin.bank is model.bank and twin.use_calibration is False  # checked and transposed once
        assert twin.encoder.stats is enc.stats and twin.encoder.hs6_vocab is enc.hs6_vocab
        assert twin.all_tensors().keys() == model.all_tensors().keys()
        for name, t in model.all_tensors().items():
            fresh = twin.all_tensors()[name]
            assert fresh is not t and not np.shares_memory(fresh.data, t.data)
            assert fresh.data.tobytes() == t.data.tobytes()
        # the transpose is a C-order copy of the rows' transpose
        assert bank.rows_t.data.flags.c_contiguous
        assert bank.rows_t.data.tobytes() == bank.rows.data.T.tobytes()

    def test_memory_finetune_keeps_bank_and_split_context(self, monkeypatch):
        parts = self._parts()
        bank = small_bank(dim=8, rows=6, seed=4)
        rng = np.random.default_rng(0)
        fresh = EncoderParams.from_split(rng, parts["train"], SMALL_FT.encoder)

        def context(m):
            enc = m.encoder
            vocabs = list(enc.hs6_vocab.items()), list(enc.country_vocab.items())
            return m.bank.rows.data.tobytes(), vocabs, enc.stats.mean.tobytes(), enc.stats.std.tobytes()

        # the context every copy shares, read each time `fit` copies the model
        seen, copy = [], AdaptParams.copy
        monkeypatch.setattr(AdaptParams, "copy", lambda m: (seen.append(context(m)), copy(m))[1])
        model, _ = finetune(parts["train"], parts["valid"], bank, None, SMALL_FT)
        want = context(AdaptParams(fresh, {}, FrozenBank(bank.matrix(), 8)))
        assert model.bank.shape == bank.matrix().shape
        assert len(seen) >= 2 and all(c == want for c in seen + [context(model)])

    @pytest.mark.parametrize("op", ["tanh", "softmax", "sigmoid"])
    def test_nan_op_stops_finetuning_before_a_step(self, monkeypatch, op):
        parts = self._parts()
        seen = nan_after(monkeypatch, op, 3)
        with pytest.raises(NumericError):
            finetune(parts["train"], parts["valid"], small_bank(dim=8), None, SMALL_FT)
        assert seen["nan"] and seen["steps"] >= 1
        assert seen["steps_after_nan"] == 0

    @pytest.mark.parametrize("op", ["tanh", "softmax", "matmul"])
    def test_nan_op_under_scoring_raises(self, monkeypatch, op):
        parts = self._parts()
        model, _ = finetune(parts["train"], parts["valid"], small_bank(dim=8), None, SMALL_FT)
        nan_after(monkeypatch, op, 0)
        with pytest.raises(NumericError, match="non-finite model output"):
            score_records(model, parts["test"].records)


class TestAkc:
    def _parts(self):
        return split(separable_dataset(n=260), SplitSpec(15, 10))

    def _target_only(self, parts):
        """A target-only model, whose encoder also serves as the source."""
        return finetune(parts["train"], parts["valid"], None, None, SMALL_FT)[0]

    def test_degenerate_config_matches_vanilla(self):
        parts = self._parts()
        reference = self._target_only(parts)
        src = reference.encoder
        cfg = FinetuneConfig(epochs=2, seed=5, encoder=SMALL_FT.encoder)
        vanilla_cfg = FinetuneConfig(
            epochs=2, seed=5, init_from_source=True, use_memory=False, encoder=SMALL_FT.encoder
        )
        vanilla, _ = finetune(parts["train"], parts["valid"], None, src, vanilla_cfg)
        akc, _ = akc_finetune(
            parts["train"], parts["valid"], src, cfg, reference, keep_fraction=1.0, akc_weight=0.0
        )
        for name, t in vanilla.all_tensors().items():
            assert np.array_equal(t.data, akc.all_tensors()[name].data)

    def test_consistency_subset_counts_and_ties(self):
        from protobank.adapt import consistency_subset
        from tests.test_declarations import make_record

        labeled = records_of(
            make_record(i, day=i, illicit=i % 2 == 0, revenue=1.0 if i % 2 == 0 else 0.0)
            for i in range(10)
        )
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
        src = self._target_only(parts).encoder
        from protobank.encoder import embed_matrix

        labeled = parts["train"].labeled()[:10]
        h_src = embed_matrix(src, labeled)
        h_same = embed_matrix(src.copy(), labeled)
        assert np.array_equal(h_src, h_same)
        assert float(((h_src - h_same) ** 2).mean()) == 0.0

    def test_keep_fraction_validated(self):
        parts = self._parts()
        reference = self._target_only(parts)
        for bad in (0.0, 1.5):
            with pytest.raises(DataError, match="keep_fraction"):
                akc_finetune(
                    parts["train"], parts["valid"], reference.encoder, SMALL_FT, reference,
                    keep_fraction=bad,
                )


class TestEndToEndGradient:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_composition(self, seed):
        rng = np.random.default_rng(seed)
        params = small_adapt(seed=seed)
        params.bank = FrozenBank(rng.normal(size=(4, 6)), 6)
        ds = separable_dataset(n=8, seed=seed)
        feats, hi, ci = batch_inputs(params.encoder, ds.records)
        y = Tensor(np.array([[1.0 if r.illicit else 0.0] for r in ds.records]))
        name = ["w_num", "hs6_table", "gate_w1", "fuse_w"][seed % 4]
        holder = params.tensors if name.startswith(("gate", "fuse")) else params.encoder.tensors

        def f(t):
            saved = holder[name]
            holder[name] = t
            try:
                pred, _ = target_forward(params, feats, hi, ci)
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
        again = load_model(blob)
        assert again.bank is not None and again.use_calibration
        assert np.array_equal(again.bank.rows.data, model.bank.rows.data)
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
        from protobank.bank import extract_prototypes
        from protobank.encoder import embed_matrix
        from protobank.encoder import score_records as encoder_scores
        from protobank.pretrain import select_fraud_like

        model = small_adapt(d=6)
        model.bank = FrozenBank(small_bank(dim=6).matrix(), 6)
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
        pred, _ = original(model, feats, hi, ci)
        assert pred._vjp is not None  # training still records its graph
