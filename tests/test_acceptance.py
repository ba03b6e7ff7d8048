"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The synthetic-world scenarios are deterministic,
so these checks are exact reruns of frozen configurations.
"""

import itertools
import math
import string
import threading
import time
from datetime import date, timedelta

import numpy as np
import pytest

from protobank import numerics as nm
from protobank.adapt import (
    AdaptParams,
    FinetuneConfig,
    FrozenBank,
    calibrate,
    finetune,
    memory_attend,
    refine,
    save_adapt,
    target_forward,
)
from protobank.bank import assemble, BankClient, BankServer, extract_prototypes, kmeans
from protobank.cli import main as cli_main
from protobank.container import MemoryBank, PrototypeSet, deserialize, serialize
from protobank.declarations import (
    CountryDataset,
    Row,
    SplitSpec,
    generate_world,
    mask_labels,
    split,
)
from protobank.encoder import (
    EncoderConfig,
    EncoderParams,
    FeatureStats,
    batch_inputs,
    save_encoder,
    score_batch,
)
from protobank.errors import FormatError
from protobank.evaluation import (
    ScenarioConfig,
    ScenarioRunner,
    ablation_world_config,
    multi_source_world_config,
    revenue_at_k,
    two_country_world_config,
)
from protobank.numerics import Tensor
from protobank.pretrain import PretrainConfig, pretrain, scl_loss, select_fraud_like
from tests.gradcheck import grad_check
from tests.records_edge import records_of
from tests.serving import serve_in_thread


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class _CachingRunner:
    def __init__(self, runner: ScenarioRunner):
        self.runner = runner
        self.reports: dict[ScenarioConfig, object] = {}

    def run(self, cfg: ScenarioConfig):
        if cfg not in self.reports:
            self.reports[cfg] = self.runner.run(cfg)
        return self.reports[cfg]


@pytest.fixture(scope="module")
def w2():
    return _CachingRunner(ScenarioRunner(generate_world(two_country_world_config())))


@pytest.fixture(scope="module")
def w3():
    return _CachingRunner(ScenarioRunner(generate_world(multi_source_world_config())))


@pytest.fixture(scope="module")
def w4():
    return _CachingRunner(ScenarioRunner(generate_world(ablation_world_config())))


# ---------------------------------------------------------------------------
# helpers for randomized gradient instances


_HS6 = ["100001", "100002", "200003", "300004"]
_CC = ["US", "DE", "CN"]


def _random_records(rng, n):
    records = []
    for i in range(n):
        illicit = bool(rng.random() < 0.5)
        records.append(
            Row(
                id=i,
                date=date(2024, 1, 1) + timedelta(days=i),
                quantity=float(rng.uniform(1, 50)),
                gross_weight=float(rng.uniform(1, 100)),
                hs6=_HS6[int(rng.integers(0, len(_HS6)))],
                country_code=_CC[int(rng.integers(0, len(_CC)))],
                cif_value=float(rng.uniform(10, 5000)),
                total_taxes=float(rng.uniform(0, 400)),
                illicit=illicit,
                revenue=float(rng.uniform(0.1, 30)) if illicit else 0.0,
            )
        )
    return records


def _random_adapt(rng, k, d, kernels):
    hs6_vocab = {h: i for i, h in enumerate(_HS6)}
    cc_vocab = {c: i for i, c in enumerate(_CC)}
    stats = FeatureStats(np.zeros(5), np.ones(5))
    enc = EncoderParams.init(rng, hs6_vocab, cc_vocab, stats, EncoderConfig(k, d, kernels))
    return AdaptParams.init(enc, rng)


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    probe_names = ["w_num", "hs6_table", "conv_kernels", "w_fuse", "head_w",
                   "gate_w1", "gate_w2", "fuse_w"]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 5))
        d = int(rng.integers(4, 7))
        n = int(rng.integers(3, 6))
        params = _random_adapt(rng, k, d, kernels=2)
        records = _random_records(rng, n)
        feats, hi, ci = batch_inputs(params.encoder, records_of(records))
        y = Tensor(np.array([[1.0 if r.illicit else 0.0] for r in records]))
        bank = params.bank = FrozenBank(rng.normal(size=(int(rng.integers(2, 5)), d)), d)

        # embed -> attend -> calibrate -> refine -> score -> bce, by parameter
        name = probe_names[seed % len(probe_names)]
        holder = params.tensors if name.startswith(("gate", "fuse")) else params.encoder.tensors

        def f_param(t):
            saved = holder[name]
            holder[name] = t
            try:
                pred, _ = target_forward(params, feats, hi, ci)
                return nm.bce(pred, y)
            finally:
                holder[name] = saved

        worst = max(worst, grad_check(f_param, holder[name], eps=1e-5))

        # the same composition differentiated through the fused representation
        h0 = rng.normal(size=(n, d))

        def f_h(t):
            h_ts, _ = memory_attend(t, bank)
            h_bar, _ = calibrate(params, t, h_ts)
            return nm.bce(score_batch(params.encoder, refine(t, h_bar)), y)

        worst = max(worst, grad_check(f_h, Tensor(h0), eps=1e-5))

        # contrastive loss through the batch representations
        labels = rng.integers(0, 2, n)
        if len(np.unique(labels)) > 1:
            worst = max(
                worst,
                grad_check(lambda t: scl_loss(t, labels, 0.07), Tensor(h0), eps=1e-5),
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 60
    _verdict(1, ok, f"max rel err {worst:.2e} over 20 seeds in {elapsed:.1f}s")


def test_criterion_02_scl_analytic_cases():
    identical = Tensor(np.array([[0.6, 0.8], [0.6, 0.8]]))
    zero_ok = scl_loss(identical, np.array([1, 1]), 0.07).item() == 0.0

    hand = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    expected = 2 * math.log(1 + math.exp(-1))
    hand_err = abs(scl_loss(hand, np.array([0, 0, 1]), 1.0).item() - expected)

    rng = np.random.default_rng(0)
    ordered = True
    for _ in range(10):
        h = rng.normal(size=(10, 6))
        yb = rng.integers(0, 2, 10)
        norms = []
        for tau in (1.0, 0.1, 0.07, 0.01):
            t = Tensor(h.copy(), requires_grad=True)
            scl_loss(t, yb, tau).backward()
            norms.append(float(np.linalg.norm(t.grad)))
        ordered = ordered and norms == sorted(norms)
    ok = zero_ok and hand_err < 1e-12 and ordered
    _verdict(2, ok, f"N=2 exact zero {zero_ok}, hand-case err {hand_err:.1e}, tau ordering {ordered}")


def test_criterion_03_kmeans():
    rng = np.random.default_rng(1)
    monotone = True
    means_exact = True
    for trial in range(100):
        pts = rng.normal(size=(int(rng.integers(5, 60)), int(rng.integers(1, 4))))
        res = kmeans(pts, int(rng.integers(1, 5)), seed=trial)
        hist = res.objective_history
        monotone = monotone and all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        for c in range(res.centroids.shape[0]):
            members = pts[res.assignments == c]
            means_exact = means_exact and np.allclose(
                res.centroids[c], members.mean(axis=0), atol=1e-9
            )

    def oracle_restart(points, k, orng):
        centroids = points[orng.choice(len(points), size=k, replace=False)]
        for _ in range(80):
            d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            new = centroids.copy()
            for c in range(k):
                m = points[assign == c]
                if len(m):
                    new[c] = m.mean(axis=0)
            if np.allclose(new, centroids):
                break
            centroids = new
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return d2.min(axis=1).sum()

    worst_ratio = 1.0
    orng = np.random.default_rng(99)
    for trial in range(20):
        n = int(orng.integers(8, 51))
        dd = int(orng.integers(1, 4))
        kk = int(orng.integers(2, 4))
        pts = orng.normal(size=(n, dd))
        ours = kmeans(pts, kk, seed=trial).objective
        best = min(oracle_restart(pts, kk, orng) for _ in range(500))
        if best > 0:
            worst_ratio = max(worst_ratio, ours / best)
    ok = monotone and means_exact and worst_ratio <= 1.05
    _verdict(
        3, ok,
        f"monotone {monotone}, centroid=mean {means_exact}, worst oracle ratio {worst_ratio:.4f}",
    )


def test_criterion_04_serialization_and_exchange(tmp_path):
    rng = np.random.default_rng(2)
    alphabet = string.ascii_letters + string.digits + "._-"
    round_trips_ok = True
    for trial in range(1000):
        dim = int(rng.integers(1, 7))
        sid = "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 12))))
        ps = PrototypeSet(
            sid,
            dim,
            rng.normal(size=(int(rng.integers(1, 6)), dim)),
            rng.normal(size=(int(rng.integers(1, 6)), dim)),
            created_at=int(rng.integers(0, 2**40)),
        )
        obj = ps if trial % 3 else MemoryBank((ps,))
        blob = serialize(obj)
        again = deserialize(blob)
        round_trips_ok = round_trips_ok and again == obj and serialize(again) == blob

    corrupted_all_rejected = True
    sample = serialize(
        PrototypeSet("XY", 3, rng.normal(size=(2, 3)), rng.normal(size=(1, 3)), 7)
    )
    for pos in range(len(sample)):
        bad = bytearray(sample)
        bad[pos] ^= 0x5A
        try:
            deserialize(bytes(bad))
            corrupted_all_rejected = False
        except FormatError:
            pass

    server = BankServer(tmp_path / "store")
    serve_in_thread(server)
    try:
        blobs = {
            f"c{i}": serialize(
                PrototypeSet(f"c{i}", 4, rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
            )
            for i in range(8)
        }
        failures = []

        def worker(sid):
            try:
                with BankClient(server.address) as client:
                    client.put(blobs[sid])
                    if client.get([sid]) != [blobs[sid]]:
                        failures.append(sid)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{sid}: {exc}")

        threads = [threading.Thread(target=worker, args=(sid,)) for sid in blobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with BankClient(server.address) as client:
            service_ok = not failures and all(
                client.get([sid]) == [blob] for sid, blob in blobs.items()
            )
    finally:
        server.shutdown()
        server.server_close()
    ok = round_trips_ok and corrupted_all_rejected and service_ok
    _verdict(
        4, ok,
        f"1000 round-trips {round_trips_ok}, corruption rejected {corrupted_all_rejected}, "
        f"8-client byte identity {service_ok}",
    )


def test_criterion_05_metric_oracle():
    def oracle(scores, revenues, rate):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        top = order[: math.ceil(rate * len(scores))]
        return sum(revenues[i] for i in top) / sum(revenues)

    def dataset(revenues):
        records = [
            Row(
                id=i, date=date(2024, 1, 1) + timedelta(days=i), quantity=1.0,
                gross_weight=1.0, hs6="100001", country_code="US", cif_value=1.0,
                total_taxes=0.0, illicit=rev > 0, revenue=float(rev),
            )
            for i, rev in enumerate(revenues)
        ]
        return CountryDataset.build("M", records_of(records))

    exhaustive_ok = True
    for revs, n in (([4.0, 0.0, 9.0, 1.0, 0.0], 5), ([2.0, 0.0, 5.0, 1.0, 0.0, 3.0, 0.0, 8.0], 8)):
        ds = dataset(revs)
        base = list(np.linspace(1.0, 0.0, n))
        for perm in itertools.permutations(range(n)):
            scores = [base[p] for p in perm]
            got = revenue_at_k(np.array(scores), ds, 0.3)
            exhaustive_ok = exhaustive_ok and abs(got - oracle(scores, revs, 0.3)) < 1e-12
        if not exhaustive_ok:
            break

    rng = np.random.default_rng(3)
    monotone_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 40))
        revs = (rng.uniform(0, 5, n) * (rng.random(n) < 0.4)).tolist()
        if sum(revs) == 0:
            revs[0] = 1.0
        ds = dataset(revs)
        scores = rng.normal(size=n)
        rates = sorted(rng.uniform(0.03, 1.0, 5))
        vals = [revenue_at_k(scores, ds, r) for r in rates]
        monotone_ok = monotone_ok and all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = exhaustive_ok and monotone_ok
    _verdict(5, ok, f"exhaustive permutations {exhaustive_ok}, rate monotonicity {monotone_ok}")


def test_criterion_06_single_source_transfer(w2):
    started = time.perf_counter()
    proto = w2.run(ScenarioConfig("proto_single", "TGT", ("SRC",)))
    target_only = w2.run(ScenarioConfig("target_only", "TGT"))
    vanilla = w2.run(ScenarioConfig("vanilla", "TGT", ("SRC",)))
    elapsed = time.perf_counter() - started
    ok = (
        proto.mean >= target_only.mean + 0.05
        and proto.mean >= vanilla.mean
        and elapsed < 600
    )
    _verdict(
        6, ok,
        f"proto {proto.mean:.4f} vs target-only {target_only.mean:.4f} "
        f"vs vanilla {vanilla.mean:.4f} in {elapsed:.0f}s",
    )


def test_criterion_07_multi_source_benefit(w3):
    singles = {
        s: w3.run(ScenarioConfig("proto_single", "TGT", (s,))).mean for s in ("S1", "S2", "S3")
    }
    multi = w3.run(ScenarioConfig("proto_multi", "TGT", ("S1", "S2", "S3")))
    target_only = w3.run(ScenarioConfig("target_only", "TGT"))
    best_single = max(singles.values())
    ok = multi.mean >= best_single - 0.02 and multi.mean >= target_only.mean + 0.05
    _verdict(
        7, ok,
        f"3-source {multi.mean:.4f} vs best single {best_single:.4f} "
        f"vs target-only {target_only.mean:.4f}",
    )


def test_criterion_08_prototype_count_insensitivity(w2):
    means = {
        pc: w2.run(ScenarioConfig("proto_single", "TGT", ("SRC",), per_class=pc)).mean
        for pc in (10, 100, 1000)
    }
    spread = max(means.values()) - min(means.values())
    ok = spread <= 0.08
    _verdict(8, ok, f"means {({k: round(v, 4) for k, v in means.items()})}, spread {spread:.4f}")


def test_criterion_09_memory_content_efficacy(w2):
    proto = w2.run(ScenarioConfig("proto_single", "TGT", ("SRC",)))
    noise = w2.run(ScenarioConfig("random_memory", "TGT", ("SRC",)))
    ok = proto.mean >= noise.mean
    _verdict(9, ok, f"source prototypes {proto.mean:.4f} vs random bank {noise.mean:.4f}")


def test_criterion_10_log_size_trend(w2):
    gap_small = (
        w2.run(ScenarioConfig("proto_single", "TGT", ("SRC",), label_fraction=0.01)).mean
        - w2.run(ScenarioConfig("target_only", "TGT", label_fraction=0.01)).mean
    )
    gap_large = (
        w2.run(ScenarioConfig("proto_single", "TGT", ("SRC",), label_fraction=0.10)).mean
        - w2.run(ScenarioConfig("target_only", "TGT", label_fraction=0.10)).mean
    )
    ok = gap_small >= gap_large
    _verdict(10, ok, f"gap at 1% labels {gap_small:.4f} vs gap at 10% {gap_large:.4f}")


def test_criterion_11_ablation_sanity(w4):
    full = w4.run(ScenarioConfig("proto_single", "TGT", ("SRC",)))
    ablations = {
        variant: w4.run(
            ScenarioConfig("ablation", "TGT", ("SRC",), variant=variant)
        ).mean
        for variant in ("encoding", "scl", "memory", "calibration")
    }
    ok = all(full.mean >= m - 0.02 for m in ablations.values())
    _verdict(
        11, ok,
        f"full {full.mean:.4f} vs ablations {({k: round(v, 4) for k, v in ablations.items()})}",
    )


TINY_WORLD_CFG = """
seed=5
n_hs6=15
n_shared_patterns=1
pattern_strength=0.8
country.AA.n_records=1400
country.AA.duration_days=100
country.AA.base_illicit_rate=0.04
country.AA.fraud_patterns=0
country.BB.n_records=1400
country.BB.duration_days=100
country.BB.base_illicit_rate=0.04
country.BB.fraud_patterns=0
"""


def test_criterion_12_determinism(tmp_path):
    # stage-level bit reproducibility on a small world
    from protobank.cli import parse_world_config

    world_cfg = parse_world_config(TINY_WORLD_CFG)
    world_a = generate_world(world_cfg)
    world_b = generate_world(world_cfg)
    stage_ok = all(list(world_a[c].records) == list(world_b[c].records) for c in world_a)

    parts = split(world_a["AA"], SplitSpec())
    pre_cfg = PretrainConfig(epochs=3, seed=1, encoder=EncoderConfig(k=4, d=8, n_kernels=2))
    params_a, _ = pretrain(parts["train"], parts["valid"], pre_cfg)
    params_b, _ = pretrain(parts["train"], parts["valid"], pre_cfg)
    stage_ok = stage_ok and save_encoder(params_a) == save_encoder(params_b)

    fraud_like = select_fraud_like(params_a, parts["train"], 0.15)
    proto_a = extract_prototypes(params_a, fraud_like, 20, seed=1)
    proto_b = extract_prototypes(params_b, select_fraud_like(params_b, parts["train"], 0.15), 20, seed=1)
    stage_ok = stage_ok and serialize(proto_a) == serialize(proto_b)

    tg_parts = split(world_a["BB"], SplitSpec())
    masked = mask_labels(tg_parts["train"], 0.1, 1)
    ft_cfg = FinetuneConfig(
        epochs=3, seed=1, use_memory=True, encoder=EncoderConfig(k=4, d=8, n_kernels=2)
    )
    bank = assemble([proto_a])
    ft_a, _ = finetune(masked, tg_parts["valid"], bank, None, ft_cfg)
    ft_b, _ = finetune(masked, tg_parts["valid"], bank, None, ft_cfg)
    stage_ok = stage_ok and save_adapt(ft_a) == save_adapt(ft_b)

    # whole-suite reproducibility through the CLI
    cfg_file = tmp_path / "world.cfg"
    cfg_file.write_text(TINY_WORLD_CFG)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"reports_{run}"
        rc = cli_main([
            "experiment", "--suite", "single", "--config", str(cfg_file),
            "--seeds", "2", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    cli_ok = files_a == files_b and all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes() for rel in files_a
    )
    ok = stage_ok and cli_ok
    _verdict(12, ok, f"stage bit-identity {stage_ok}, repeated CLI suite identical {cli_ok}")
