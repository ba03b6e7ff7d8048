import math

import numpy as np
import pytest

from protobank import numerics as nm
from protobank.encoder import (
    EncoderConfig,
    EncoderParams,
    FeatureStats,
    batch_inputs,
    embed_batch,
    embed_matrix,
    load_encoder,
    record_features,
    save_encoder,
    score_batch,
    score_records,
    standardize_stats,
)
from protobank.errors import DataError
from protobank.numerics import Tensor, grad_check
from tests.test_declarations import make_dataset, make_record

SMALL = EncoderConfig(k=4, d=6, n_kernels=3)


def small_params(seed=0, config=SMALL, n_hs6=3, n_cty=2):
    rng = np.random.default_rng(seed)
    hs6_vocab = {f"10000{i}": i for i in range(n_hs6)}
    cty_vocab = {c: i for i, c in enumerate(["DE", "US"][:n_cty])}
    stats = FeatureStats(np.zeros(5), np.ones(5))
    return EncoderParams.init(rng, hs6_vocab, cty_vocab, stats, config)


class TestStats:
    def test_hand_computed(self):
        ds = make_dataset(3, n_days=3)
        stats = standardize_stats(ds)
        logs = np.log([r.quantity for r in ds.records])
        assert abs(stats.mean[0] - logs.mean()) < 1e-12
        assert abs(stats.std[0] - logs.std()) < 1e-12

    def test_constant_feature_floored(self):
        ds = make_dataset(4)
        stats = standardize_stats(ds)
        # gross_weight is constant in the fixture
        assert stats.std[1] == 1e-6
        feats, _, _ = batch_inputs(
            EncoderParams.init(
                np.random.default_rng(0), ds.hs6_vocab, ds.country_vocab, stats, SMALL
            ),
            ds.records,
        )
        assert np.allclose(feats[:, 1], 0.0)

    def test_empty_split_errors(self):
        from protobank.declarations import CountryDataset

        with pytest.raises(DataError):
            standardize_stats(CountryDataset.build("XX", []))


class TestEmbed:
    def test_outer_product_matches_definition(self):
        p = Tensor(np.array([[1.0, 2.0]]))
        q = Tensor(np.array([[3.0, 4.0]]))
        e = nm.outer(p, q)
        assert np.array_equal(e.data[0], [[3.0, 4.0], [6.0, 8.0]])

    def test_zero_p_gives_zero_interaction_map(self):
        params = small_params()
        k = params.config.k
        p = Tensor(np.zeros((1, k)))
        q = Tensor(np.ones((1, k)))
        e = nm.outer(p, q)
        assert np.all(e.data == 0)
        conv = nm.conv2d(e, params.tensors["conv_kernels"], params.tensors["conv_bias"])
        # bias-only response, constant across the map
        assert np.allclose(conv.data[0, :, 0, 0], params.tensors["conv_bias"].data)

    def test_pure_function_and_order_invariance(self):
        params = small_params()
        ds = make_dataset(12, n_days=6)
        h_once = embed_matrix(params, ds.records)
        h_again = embed_matrix(params, ds.records)
        assert np.array_equal(h_once, h_again)
        perm = np.random.default_rng(1).permutation(len(ds.records))
        shuffled = [ds.records[i] for i in perm]
        h_shuf = embed_matrix(params, shuffled)
        assert np.array_equal(h_shuf, h_once[perm])

    def test_single_record_matches_batch(self):
        params = small_params()
        ds = make_dataset(5)
        h_one = embed_matrix(params, ds.records[2:3])
        hmat = embed_matrix(params, ds.records)
        assert h_one.shape == (1, params.config.d)
        assert np.allclose(h_one[0], hmat[2], atol=1e-12)
        (score,) = score_records(params, ds.records[2:3])
        assert 0.0 < score < 1.0

    def test_unknown_categories_use_reserved_row(self):
        params = small_params()
        rec = make_record(0, hs6="999999", cc="ZZ")
        feats, hs6_idx, cty_idx = batch_inputs(params, [rec])
        assert hs6_idx[0] == len(params.hs6_vocab)
        assert cty_idx[0] == len(params.country_vocab)
        h = embed_matrix(params, [rec])  # must not raise
        assert np.all(np.isfinite(h))

    def test_width_fixed_by_config(self):
        a = small_params(seed=1, n_hs6=3)
        b = small_params(seed=2, n_hs6=7)  # different vocab size, same config
        ds = make_dataset(4)
        assert embed_matrix(a, ds.records).shape[1] == embed_matrix(b, ds.records).shape[1]


class TestFraudScore:
    def test_zero_head_gives_half(self):
        params = small_params()
        params.tensors["head_w"].data[:] = 0
        params.tensors["head_b"].data[:] = 0
        assert score_batch(params, Tensor(np.ones((1, params.config.d)))).data[0, 0] == 0.5

    def test_monotone_in_logit(self):
        params = small_params()
        d = params.config.d
        params.tensors["head_w"].data[:] = np.ones((d, 1))
        params.tensors["head_b"].data[:] = 0
        lo, hi = score_batch(params, Tensor(np.stack([np.zeros(d), np.ones(d)]))).data[:, 0]
        assert hi > lo


class TestGradients:
    @pytest.mark.parametrize("tensor_name", ["w_num", "hs6_table", "conv_kernels", "w_fuse", "head_w"])
    def test_grad_through_embed_score_bce(self, tensor_name):
        params = small_params(seed=3)
        ds = make_dataset(6, n_days=3)
        feats, hs6_idx, cty_idx = batch_inputs(params, ds.records)
        labels = Tensor(np.array([[1.0 if r.illicit else 0.0] for r in ds.records]))
        target = params.tensors[tensor_name]

        def f(t: Tensor) -> Tensor:
            saved = params.tensors[tensor_name]
            params.tensors[tensor_name] = t
            try:
                _, _, _, h = embed_batch(params, feats, hs6_idx, cty_idx)
                return nm.bce(score_batch(params, h), labels)
            finally:
                params.tensors[tensor_name] = saved

        assert grad_check(f, target, eps=1e-5) <= 1e-5


class TestSerialization:
    def test_round_trip(self):
        params = small_params(seed=5)
        blob = save_encoder(params)
        again = load_encoder(blob)
        assert again.config == params.config
        assert again.hs6_vocab == params.hs6_vocab
        assert again.country_vocab == params.country_vocab
        assert np.array_equal(again.stats.mean, params.stats.mean)
        for name, t in params.tensors.items():
            assert np.array_equal(again.tensors[name].data, t.data)
        assert save_encoder(again) == blob

    def test_concat_variant_round_trip(self):
        params = small_params(seed=6, config=EncoderConfig(k=4, d=6, use_interaction=False))
        again = load_encoder(save_encoder(params))
        assert again.config.use_interaction is False
        ds = make_dataset(3)
        assert np.array_equal(embed_matrix(params, ds.records), embed_matrix(again, ds.records))


def test_record_features_definition():
    rec = make_record(0)
    f = record_features(rec)
    assert f[0] == math.log(rec.quantity)
    assert f[4] == rec.cif_value / rec.gross_weight
