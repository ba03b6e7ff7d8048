import functools
import math
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from protobank import numerics as nm
from protobank.declarations import (
    CountryDataset,
    CountrySpec,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    split,
)
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
from protobank.numerics import Tensor
from tests.gradcheck import grad_check
from tests.records_edge import records_of
from tests.test_declarations import make_dataset, make_record
from tests.test_numerics import single_pass_softmax

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
            EncoderParams.from_split(np.random.default_rng(0), ds, SMALL), ds.records
        )
        assert np.allclose(feats[:, 1], 0.0)

    def test_price_per_kg_at_bound_stays_finite(self):
        # the largest finite cif_value, at the largest price_per_kg a record may have
        at_bound = [
            make_record(i)._replace(cif_value=1.7e308, gross_weight=1.7e208) for i in range(3)
        ]
        ds = CountryDataset.build("XX", records_of(at_bound + [make_record(i) for i in range(3, 6)]))
        stats = standardize_stats(ds)
        assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.std))
        params = EncoderParams.from_split(np.random.default_rng(0), ds, SMALL)
        assert np.all(np.isfinite(score_records(params, ds.records)))

    def test_empty_split_errors(self):
        from protobank.declarations import CountryDataset

        with pytest.raises(DataError):
            standardize_stats(CountryDataset.build("XX", records_of([])))


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
        shuffled = ds.records[perm]
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
        feats, hs6_idx, cty_idx = batch_inputs(params, records_of([rec]))
        assert hs6_idx[0] == len(params.hs6_vocab)
        assert cty_idx[0] == len(params.country_vocab)
        h = embed_matrix(params, records_of([rec]))  # must not raise
        assert np.all(np.isfinite(h))

    def test_from_split_maps_only_the_train_codes(self):
        # SplitSpec(10, 10): days 0-39 train, 45 valid, 59 test
        codes = [("300003", "US"), ("100001", "DE"), ("200002", "US"), ("100001", "US")]
        records = [make_record(i, day=i, hs6=codes[i % 4][0], cc=codes[i % 4][1]) for i in range(40)]
        records += [make_record(40, day=45, hs6="400004", cc="FR")]  # valid
        records += [make_record(41, day=59, cc="JP")]  # test; its hs6 is a train code
        parts = split(CountryDataset.build("XX", records_of(records)), SplitSpec(10, 10))
        params = EncoderParams.from_split(np.random.default_rng(0), parts["train"], SMALL)
        assert list(params.hs6_vocab.items()) == [("100001", 0), ("200002", 1), ("300003", 2)]
        assert list(params.country_vocab.items()) == [("DE", 0), ("US", 1)]
        assert params.tensors["hs6_table"].shape[0] == 4  # the last row is "unknown"
        later = parts["valid"].records + parts["test"].records
        _, hs6_idx, cty_idx = batch_inputs(params, later)
        assert hs6_idx.tolist() == [3, 0] and cty_idx.tolist() == [2, 2]
        stats = standardize_stats(parts["train"])
        assert params.stats.mean.tobytes() == stats.mean.tobytes()
        assert params.stats.std.tobytes() == stats.std.tobytes()

    def test_copy_shares_frozen_context_with_fresh_tensors(self):
        params = small_params()
        twin = params.copy()
        for name in ("config", "hs6_vocab", "country_vocab", "stats"):
            assert getattr(twin, name) is getattr(params, name)
        assert twin.tensors.keys() == params.tensors.keys()
        for name, t in params.tensors.items():
            fresh = twin.tensors[name]
            assert fresh is not t and fresh.requires_grad
            assert not np.shares_memory(fresh.data, t.data)
            assert fresh.data.tobytes() == t.data.tobytes()

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
                h = embed_batch(params, feats, hs6_idx, cty_idx)
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
    (f,) = record_features(records_of([rec]))
    assert f[0] == math.log(rec.quantity)
    assert f[4] == rec.cif_value / rec.gross_weight


def test_featurization_bits_match_per_record_arrays():
    # the per-record arrays the features were built from, stacked (oracle)
    def per_record(r):
        return np.array(
            [
                math.log(r.quantity),
                math.log(r.gross_weight),
                math.log(r.cif_value),
                math.log1p(r.total_taxes),
                r.cif_value / r.gross_weight,
            ]
        )

    base = list(make_dataset(6).records)
    extremes = [
        dict(quantity=1e-300, gross_weight=1e300, cif_value=1e-300, total_taxes=0.0),
        dict(quantity=1e300, gross_weight=1e200, cif_value=1e300, total_taxes=1e300),  # price_per_kg at its bound
        dict(quantity=5e-324, gross_weight=1.0, cif_value=5e-324, total_taxes=5e-324),
        dict(total_taxes=0.0),
    ]
    ds = CountryDataset.build(
        "XX",
        records_of([*base, *(base[i]._replace(id=1000 + i, **e) for i, e in enumerate(extremes))]),
    )
    records = ds.records
    want = np.stack([per_record(r) for r in records])
    stats = standardize_stats(ds)
    assert stats.mean.tobytes() == want.mean(axis=0).tobytes()
    assert stats.std.tobytes() == np.maximum(want.std(axis=0), 1e-6).tobytes()
    params = EncoderParams.init(np.random.default_rng(0), {}, {}, stats, SMALL)
    feats = batch_inputs(params, records)[0]
    assert feats.tobytes() == ((want - stats.mean) / stats.std).tobytes()


# ---------------------------------------------------------------------------
# the interaction stage in record blocks must give the single-pass bits


def single_pass_embed(params, feats, hs6_idx, cty_idx):
    """embed_batch with the interaction stage over the whole batch at once (oracle)."""
    t = params.tensors
    f = Tensor(feats)
    p = nm.tanh(
        nm.add(
            nm.add(nm.matmul(f, t["w_num"]), nm.gather_rows(t["country_table"], cty_idx)),
            t["b_p"],
        )
    )
    q = nm.gather_rows(t["hs6_table"], hs6_idx)
    interaction = nm.outer(p, q)
    conv = nm.relu(nm.conv2d(interaction, t["conv_kernels"], t["conv_bias"]))
    pooled = nm.reduce_mean(conv, axis=(2, 3))
    g = nm.add(nm.matmul(pooled, t["w_pool"]), t["b_pool"])
    z = nm.concat([p, g], axis=1)
    return nm.relu(nm.add(nm.matmul(z, t["w_fuse"]), t["b_fuse"]))


@functools.lru_cache(maxsize=1)
def world_records():
    cfg = SyntheticWorldConfig(5, (CountrySpec("A", 1100, 90, 0.05, (0, 1, 2)),), n_hs6=25)
    return generate_world(cfg)["A"]


def world_params(seed=0):
    return EncoderParams.from_split(np.random.default_rng(seed), world_records())


def graph_signature(root):
    """Every node reachable from `root`, depth first: (vjp, shape, parents, requires_grad)."""
    index, nodes = {}, []

    def visit(node):
        if id(node) not in index:
            parents = tuple(visit(p) for p in node._parents)
            index[id(node)] = len(nodes)
            vjp = None if node._vjp is None else node._vjp.__qualname__
            nodes.append((vjp, node.shape, parents, node.requires_grad))
        return index[id(node)]

    visit(root)
    return nodes


class TestBlockedInteraction:
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 1061])
    def test_scoring_entry_points_match_single_pass(self, n, monkeypatch):
        from protobank import adapt, encoder

        records = world_records().records[:n]
        params = world_params()
        d = params.config.d
        bank = adapt.FrozenBank(np.random.default_rng(2).normal(size=(40, d)), d)
        model = adapt.AdaptParams.init(params, np.random.default_rng(1), bank)

        def outputs():
            return [
                embed_matrix(params, records),
                score_records(params, records),
                adapt.score_records(model, records),
            ]

        blocked = outputs()
        monkeypatch.setattr(encoder, "embed_batch", single_pass_embed)
        monkeypatch.setattr(adapt, "embed_batch", single_pass_embed)
        monkeypatch.setattr(nm, "softmax", single_pass_softmax)
        for got, want in zip(blocked, outputs()):
            assert got.shape == want.shape and got.shape[0] == n
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7, "default", 128])
    def test_interaction_block_is_bit_neutral(self, block, monkeypatch):
        from protobank import encoder

        records = world_records().records[:300]
        params = world_params()
        with nm.no_grad():
            want = single_pass_embed(params, *batch_inputs(params, records)).data
        if block != "default":
            monkeypatch.setattr(encoder, "_INTERACTION_BLOCK", block)
        assert embed_matrix(params, records).tobytes() == want.tobytes()

    def test_graph_and_gradients_unchanged_under_grad(self):
        records = world_records().records[:300]  # more than one interaction block
        base = world_params(seed=3)
        inputs = batch_inputs(base, records)
        weights = Tensor(np.random.default_rng(4).normal(size=(300, base.config.d)))
        runs = []
        for forward in (embed_batch, single_pass_embed):
            params = base.copy()
            h = forward(params, *inputs)
            loss = nm.reduce_sum(nm.mul(h, weights))
            signature = graph_signature(loss)  # backward consumes the graph
            loss.backward()
            grads = {k: t.grad.tobytes() for k, t in params.tensors.items() if t.grad is not None}
            runs.append((h.data.tobytes(), signature, grads))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert "conv_kernels" in runs[0][2] and runs[0][2] == runs[1][2]

    def test_embed_matrix_memory_peak(self):
        records = world_records().records[:1024]
        params = world_params()
        tracemalloc.start()
        try:
            embed_matrix(params, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 1024-record chunk in one pass would hold 16 MiB conv2d and relu
        # outputs; in interaction blocks the whole call peaks near 2.8 MiB
        assert peak < 4 * 2**20


@functools.lru_cache(maxsize=1)
def many_records():
    """20,000 records drawn with replacement from `world_records()`."""
    records = world_records().records
    return records[np.random.default_rng(9).integers(0, len(records), 20_000)]


def counted_forks(monkeypatch) -> list[int]:
    """The pids of the children `os.fork` starts from now on, in this test."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_children_or_fds_left(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if os.path.isdir("/proc/self/fd"):
        assert sorted(os.listdir("/proc/self/fd")) == fds_before


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


class TestSplitScoring:
    """A large scoring call split across forked processes gives the bits of one process."""

    SPLIT = 4 * 1024  # the smallest call that two CPUs split: two SCORE_CHUNK chunks each

    def test_split_size(self):
        from protobank import encoder

        if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
            pytest.skip("scoring never splits here")
        cpus = len(os.sched_getaffinity(0))
        assert encoder._processes(self.SPLIT - 1) == 1
        assert encoder._processes(self.SPLIT) == min(cpus, 2)
        assert encoder._processes(20_000) == min(cpus, 9)

    @pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1, 20_000])
    def test_entry_points_match_one_process(self, n, monkeypatch):
        from protobank import adapt, encoder

        records = many_records()[:n]
        params = world_params()
        d = params.config.d
        models = [
            adapt.AdaptParams.init(
                params, np.random.default_rng(1),
                adapt.FrozenBank(np.random.default_rng(rows).normal(size=(rows, d)), d),
            )
            for rows in (197, 2000)
        ]

        def outputs():
            return [embed_matrix(params, records), score_records(params, records)] + [
                adapt.score_records(model, records) for model in models
            ]

        split = outputs()
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 1)
        for got, want in zip(split, outputs(), strict=True):
            assert got.shape == want.shape and got.shape[0] == n
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("procs, chunk", [(2, 1024), (3, 1024), (5, 512), (7, 7)])
    def test_any_process_count_matches_one(self, procs, chunk, monkeypatch):
        from protobank import encoder

        records, params = many_records()[:2500], world_params()

        def rows():
            forward = functools.partial(embed_batch, params)
            return encoder.forward_rows(params, records, forward, params.config.d, chunk)

        want = rows()
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(encoder, "_processes", lambda n_records: procs)
        assert rows().tobytes() == want.tobytes()
        assert len(forks) == procs - 1

    def test_fewer_chunks_than_processes(self, monkeypatch):
        from protobank import encoder

        records, params = many_records()[:1500], world_params()
        want = embed_matrix(params, records)
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 8)
        assert embed_matrix(params, records).tobytes() == want.tobytes()
        assert len(forks) == 1  # two chunks: one for this process, one for a child
        assert embed_matrix(params, records[:0]).shape == (0, params.config.d)

    def test_no_child_or_fd_left_after_return(self, monkeypatch):
        from protobank import encoder

        fds = open_fds()
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 3)
        score_records(world_params(), many_records()[:5000])
        assert len(forks) == 2
        assert_no_children_or_fds_left(fds)

    @pytest.mark.parametrize(
        "error, expect",
        [(DataError("bad share"), DataError), (KeyboardInterrupt(), KeyboardInterrupt)],
    )
    def test_child_error_surfaces_with_type_and_message(self, error, expect, monkeypatch):
        from protobank import encoder

        parent, params = os.getpid(), world_params()

        def forward(*x):
            if os.getpid() != parent:
                raise error
            return embed_batch(params, *x)

        fds = open_fds()
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 3)
        with pytest.raises(expect) as raised:
            encoder.forward_rows(params, many_records()[:5000], forward, params.config.d, 1024)
        assert type(raised.value) is expect and str(raised.value) == str(error)
        assert_no_children_or_fds_left(fds)

    @pytest.mark.parametrize("error", [DataError("bad share"), KeyboardInterrupt()])
    def test_parent_error_kills_and_reaps_children(self, error, monkeypatch):
        from protobank import encoder

        parent, params = os.getpid(), world_params()

        def forward(*x):
            if os.getpid() == parent:
                raise error
            return embed_batch(params, *x)

        fds = open_fds()
        forks = counted_forks(monkeypatch)
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 3)
        with pytest.raises(type(error)):
            encoder.forward_rows(params, many_records()[:5000], forward, params.config.d, 1024)
        assert len(forks) == 2
        assert_no_children_or_fds_left(fds)

    @pytest.mark.parametrize("how", ["killed", "unpicklable error"])
    def test_child_that_sends_no_rows(self, how, monkeypatch):
        from protobank import encoder

        parent, params = os.getpid(), world_params()

        def forward(*x):
            if os.getpid() != parent:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise DataError(lambda: None)  # a lambda does not pickle
            return embed_batch(params, *x)

        fds = open_fds()
        monkeypatch.setattr(encoder, "_processes", lambda n_records: 2)
        with pytest.raises(ChildProcessError, match="ended without sending its rows"):
            encoder.forward_rows(params, many_records()[:3000], forward, params.config.d, 1024)
        assert_no_children_or_fds_left(fds)

    def test_non_finite_child_rows_raise_in_parent(self, monkeypatch):
        from protobank import encoder
        from protobank.errors import NumericError

        parent, params = os.getpid(), world_params()

        def forward(*x):
            h = embed_batch(params, *x)
            if os.getpid() != parent:
                h.data[0, 0] = np.nan
            return h

        monkeypatch.setattr(encoder, "_processes", lambda n_records: 2)
        with pytest.raises(NumericError, match="non-finite model output"):
            encoder.forward_rows(params, many_records()[:3000], forward, params.config.d, 1024)

    def test_second_thread_keeps_one_process(self, monkeypatch):
        from protobank import encoder

        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            assert encoder._processes(20_000) == 1
            forks = counted_forks(monkeypatch)
            score_records(world_params(), many_records()[: self.SPLIT])
            assert forks == []
        finally:
            stop.set()
            waiter.join()
