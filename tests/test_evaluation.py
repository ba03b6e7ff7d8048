import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from protobank.declarations import (
    CountryDataset,
    CountrySpec,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    mask_labels,
    split,
)
from protobank import evaluation
from protobank._version import __version__
from protobank.encoder import EncoderConfig
from protobank.errors import DataError, MetricError
from protobank.evaluation import (
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    default_world_config,
    emit_report,
    revenue_at_k,
    suite_configs,
)
from protobank.adapt import FinetuneConfig
from protobank.pretrain import PretrainConfig
from tests.records_edge import records_of
from tests.test_declarations import make_record


def revenue_dataset(revenues):
    records = [
        make_record(i, day=i, illicit=rev > 0, revenue=float(rev))
        for i, rev in enumerate(revenues)
    ]
    return CountryDataset.build("EV", records_of(records))


def oracle_revenue(scores, revenues, rate):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    k = math.ceil(rate * len(scores))
    return sum(revenues[i] for i in order[:k]) / sum(revenues)


class TestRevenueAtK:
    def test_hand_case(self):
        ds = revenue_dataset([10.0, 0.0, 5.0, 0.0])
        val = revenue_at_k(np.array([0.9, 0.8, 0.7, 0.1]), ds, 0.25)
        assert abs(val - 10.0 / 15.0) < 1e-12

    def test_perfect_oracle_full_inspection(self):
        revs = [3.0, 0.0, 7.0, 1.0, 0.0]
        ds = revenue_dataset(revs)
        assert revenue_at_k(np.array(revs), ds, 1.0) == 1.0

    def test_uniform_scores_pick_lowest_ids(self):
        revs = [5.0, 1.0, 0.0, 2.0, 4.0, 0.0]
        ds = revenue_dataset(revs)
        for rate in (0.2, 0.5, 0.9):
            got = revenue_at_k(np.zeros(6), ds, rate)
            assert abs(got - oracle_revenue([0] * 6, revs, rate)) < 1e-12

    def test_matches_exhaustive_permutations(self):
        revs = [4.0, 0.0, 9.0, 1.0, 0.0, 2.0]
        ds = revenue_dataset(revs)
        base_scores = [0.9, 0.7, 0.5, 0.3, 0.2, 0.1]
        for perm in itertools.permutations(range(6)):
            scores = [base_scores[p] for p in perm]
            got = revenue_at_k(np.array(scores), ds, 0.34)
            assert abs(got - oracle_revenue(scores, revs, 0.34)) < 1e-12

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            revs = rng.uniform(0, 5, n) * (rng.random(n) < 0.3)
            if revs.sum() == 0:
                revs[0] = 1.0
            ds = revenue_dataset(revs.tolist())
            scores = rng.normal(size=n)
            rates = sorted(rng.uniform(0.05, 1.0, 4))
            vals = [revenue_at_k(scores, ds, r) for r in rates]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        revs = [0.0, 3.0, 1.0, 0.0, 6.0]
        ds = revenue_dataset(revs)
        scores = rng.normal(size=5)
        a = revenue_at_k(scores, ds, 0.4)
        b = revenue_at_k(np.exp(2.0 * scores) + 7, ds, 0.4)
        assert a == b

    def test_errors(self):
        ds = revenue_dataset([0.0, 0.0])
        with pytest.raises(MetricError):
            revenue_at_k(np.zeros(2), ds, 0.5)
        with pytest.raises(MetricError):
            revenue_at_k(np.zeros(0), CountryDataset.build("E", records_of([])), 0.5)
        good = revenue_dataset([1.0, 0.0])
        with pytest.raises(DataError):
            revenue_at_k(np.zeros(3), good, 0.5)
        with pytest.raises(DataError):
            revenue_at_k(np.zeros(2), good, 0.0)

    def test_unlabeled_record_has_no_sealed_label(self):
        unlabeled = make_record(1, day=1)._replace(illicit=None, revenue=None)
        ds = CountryDataset.build("EV", records_of([make_record(0, illicit=True, revenue=2.0), unlabeled]))
        with pytest.raises(DataError, match="record 1 has no sealed label"):
            revenue_at_k(np.zeros(2), ds, 0.5)

    def test_masking_and_subsetting_keep_truth_aligned(self):
        revs = [float(i + 1) if i % 3 == 0 else 0.0 for i in range(90)]
        records = [
            make_record(i, day=i % 30, illicit=rev > 0, revenue=rev) for i, rev in enumerate(revs)
        ]
        ds = CountryDataset.build("EV", records_of(records))
        masked = mask_labels(ds, 0.1, 4)
        truth = {r.id: r for r in ds.records}
        scores = np.random.default_rng(0).normal(size=len(ds))
        spec = SplitSpec(10, 5)
        for plain, part in zip(split(ds, spec).values(), split(masked, spec).values()):
            assert [s.id for s in part.sealed] == [r.id for r in part.records]
            assert all(s == truth[s.id] for s in part.sealed)  # the unmasked records
            pairs = zip(part.records, part.sealed)
            assert any(r.illicit is None and s.illicit for r, s in pairs)  # hidden frauds
            got = scores[: len(part)]
            assert revenue_at_k(got, part, 0.2) == revenue_at_k(got, plain, 0.2)


class TestEmitReport:
    def _report(self, target="B", seeds=(0, 1)):
        revs = tuple(0.1 * (i + 1) for i in range(len(seeds)))
        cfg = ScenarioConfig("proto_single", target, ("A",), seeds=tuple(seeds))
        return ScenarioReport(config=cfg, revenues=revs, wall_time_s=1.0)

    def test_empty_list_header_only(self):
        csv_text, json_text = emit_report([])
        assert csv_text.splitlines()[0].startswith("scenario,kind")
        assert len(csv_text.splitlines()) == 1
        assert json.loads(json_text)["scenarios"] == []

    def test_row_counts(self):
        csv_text, _ = emit_report([self._report("B", seeds=(0, 1, 2, 3, 4)),
                                   self._report("C", seeds=(0, 1, 2, 3, 4))])
        lines = csv_text.splitlines()
        assert len(lines) == 1 + 10 + 2  # header + details + aggregates

    def test_csv_and_json_carry_identical_numbers(self):
        rep = self._report()
        csv_text, json_text = emit_report([rep])
        payload = json.loads(json_text)
        scenario = payload["scenarios"][0]
        for row, (seed, rev) in zip(csv_text.splitlines()[1:], zip(rep.config.seeds, rep.revenues)):
            cells = row.split(",")
            assert cells[8] == str(seed)
            assert float(cells[9]) == rev
        assert scenario["mean"] == rep.mean
        assert scenario["per_seed"][0]["revenue_at_k"] == rep.revenues[0]

    def test_files_written(self, tmp_path):
        rep = self._report("C")
        emit_report([rep], tmp_path)
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / rep.config.name / "report.csv").exists()
        assert (tmp_path / rep.config.name / "report.json").exists()

    def test_report_fields_come_from_its_config(self):
        rep = self._report(seeds=(0, 1, 2))
        assert [f.name for f in dataclasses.fields(rep)] == ["config", "revenues", "wall_time_s"]
        assert (rep.mean, rep.stdev) == (float(np.mean(rep.revenues)), float(np.std(rep.revenues)))
        payload = json.loads(emit_report([rep])[1])
        assert payload["version"] == __version__
        scenario = payload["scenarios"][0]
        assert scenario["scenario"] == rep.config.name
        assert scenario["source_ids"] == ["A"] and scenario["target_id"] == "B"
        assert [p["seed"] for p in scenario["per_seed"]] == [0, 1, 2]

    def test_reaggregation_from_detail_rows(self):
        rep = self._report(seeds=(0, 1, 2))
        csv_text, _ = emit_report([rep])
        detail = [float(r.split(",")[9]) for r in csv_text.splitlines()[1:-1]]
        agg = csv_text.splitlines()[-1].split(",")
        assert abs(float(agg[10]) - np.mean(detail)) < 1e-15
        assert abs(float(agg[11]) - np.std(detail)) < 1e-15


TINY_WORLD = SyntheticWorldConfig(
    seed=5,
    countries=(
        CountrySpec("AA", 1400, 100, 0.10, (0,)),
        CountrySpec("BB", 1400, 100, 0.10, (0,)),
    ),
    n_hs6=15,
    n_shared_patterns=1,
)

FAST_RUNNER = dict(
    pretrain_cfg=PretrainConfig(epochs=2, encoder=EncoderConfig(k=4, d=8, n_kernels=2)),
    finetune_cfg=FinetuneConfig(epochs=3, encoder=EncoderConfig(k=4, d=8, n_kernels=2)),
    fraud_like_fraction=0.15,
)


@pytest.fixture(scope="module")
def world():
    return generate_world(TINY_WORLD)


def _count_calls(monkeypatch, *names) -> dict[str, int]:
    """Counts the runner's calls to the named functions of the evaluation module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(evaluation, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    return calls


class TestScenarioRunner:

    def test_deterministic_reports(self, world):
        cfg = ScenarioConfig("proto_single", "BB", ("AA",), seeds=(0, 1), label_fraction=0.05)
        a = ScenarioRunner(world, **FAST_RUNNER).run(cfg)
        b = ScenarioRunner(world, **FAST_RUNNER).run(cfg)
        assert a.revenues == b.revenues
        assert a.mean == b.mean

    def test_self_transfer_is_legal(self, world):
        cfg = ScenarioConfig("proto_single", "AA", ("AA",), seeds=(0,), label_fraction=0.05)
        rep = ScenarioRunner(world, **FAST_RUNNER).run(cfg)
        assert 0.0 <= rep.revenues[0] <= 1.0

    def test_memory_ablation_equals_vanilla(self, world):
        runner = ScenarioRunner(world, **FAST_RUNNER)
        abl = runner.run(
            ScenarioConfig("ablation", "BB", ("AA",), seeds=(0,), label_fraction=0.05, variant="memory")
        )
        van = runner.run(ScenarioConfig("vanilla", "BB", ("AA",), seeds=(0,), label_fraction=0.05))
        assert abl.revenues == van.revenues

    def test_aggregate_matches_details(self, world):
        runner = ScenarioRunner(world, **FAST_RUNNER)
        rep = runner.run(ScenarioConfig("vanilla", "BB", ("AA",), seeds=(0, 1), label_fraction=0.05))
        assert rep.mean == pytest.approx(np.mean(rep.revenues))
        assert rep.stdev == pytest.approx(np.std(rep.revenues))

    def test_unknown_country_rejected(self, world):
        runner = ScenarioRunner(world, **FAST_RUNNER)
        with pytest.raises(DataError):
            runner.run(ScenarioConfig("target_only", "ZZ", seeds=(0,)))

    def test_prototype_sweep_reuses_pretrained_model(self, world, monkeypatch):
        calls = _count_calls(monkeypatch, "pretrain", "extract_prototypes")
        runner = ScenarioRunner(world, **FAST_RUNNER)
        for pc in (3, 7, 11):
            runner.run(
                ScenarioConfig("proto_single", "BB", ("AA",), seeds=(0,), label_fraction=0.05,
                               per_class=pc)
            )
        # one pretrained source model per seed, re-clustered per prototype count
        assert calls == {"pretrain": 1, "extract_prototypes": 3}

    def test_target_only_masks_once_per_seed(self, world, monkeypatch):
        calls = _count_calls(monkeypatch, "mask_labels")
        ScenarioRunner(world, **FAST_RUNNER).run(
            ScenarioConfig("target_only", "BB", seeds=(0, 1), label_fraction=0.05)
        )
        assert calls == {"mask_labels": 2}

    def test_parallel_runs_match_serial(self, world):
        from concurrent.futures import ThreadPoolExecutor

        configs = [
            ScenarioConfig("target_only", "BB", seeds=(0,), label_fraction=0.05),
            ScenarioConfig("vanilla", "BB", ("AA",), seeds=(0,), label_fraction=0.05),
        ]
        serial = [ScenarioRunner(world, **FAST_RUNNER).run(c) for c in configs]
        pool_runner = ScenarioRunner(world, **FAST_RUNNER)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel = list(pool.map(pool_runner.run, configs))
        assert [r.revenues for r in serial] == [r.revenues for r in parallel]


class TestScenarioConfigValidation:
    def test_kind_checked(self):
        with pytest.raises(DataError):
            ScenarioConfig("bogus", "A")

    def test_source_requirements(self):
        with pytest.raises(DataError):
            ScenarioConfig("vanilla", "A")
        with pytest.raises(DataError):
            ScenarioConfig("proto_single", "A", ("B", "C"))

    def test_ablation_variant_required(self):
        with pytest.raises(DataError):
            ScenarioConfig("ablation", "A", ("B",))
        ScenarioConfig("ablation", "A", ("B",), variant="scl")

    def test_target_in_sources_only_for_proto_single(self):
        ScenarioConfig("proto_single", "A", ("A",))
        with pytest.raises(DataError):
            ScenarioConfig("proto_multi", "A", ("A", "B"))


class TestSuites:
    def test_single_suite_grid_shape(self):
        world = generate_world(default_world_config())
        configs = suite_configs("single", world, seeds=(0,))
        proto = [c for c in configs if c.kind == "proto_single"]
        assert len(proto) == 12  # every ordered source->target pair of 4 countries
        assert len([c for c in configs if c.kind == "target_only"]) == 4
        assert len([c for c in configs if c.kind == "vanilla"]) == 12
        assert len([c for c in configs if c.kind == "akc"]) == 12
        names = [c.name for c in configs]
        assert len(set(names)) == len(names)

    def test_all_suites_validate(self):
        world = generate_world(default_world_config())
        for suite in ("single", "multi", "logsize", "ablation", "protocount", "randommem"):
            for cfg in suite_configs(suite, world, seeds=(0,)):
                assert dataclasses.replace(cfg) == cfg  # rebuilt from its fields, checked again

    def test_protocount_axis(self):
        world = generate_world(default_world_config())
        pcs = sorted(c.per_class for c in suite_configs("protocount", world))
        assert pcs == [10, 100, 1000]

    def test_unknown_suite(self):
        with pytest.raises(DataError):
            suite_configs("bogus", {})

    def test_built_in_worlds_leave_the_inert_field_at_its_default(self):
        worlds = (default_world_config, evaluation.two_country_world_config,
                  evaluation.multi_source_world_config, evaluation.ablation_world_config)
        assert [world().n_shared_patterns for world in worlds] == [0, 0, 0, 0]
