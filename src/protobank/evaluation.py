"""Revenue@k metric, scenario runner, and report emission.

Revenue@k ranks the test records by model score, inspects the top k
percent (ties broken by ascending record id), and reports the fraction of
the maximum collectible post-inspection tax captured. Scenario kinds cover
the no-sharing, parameter-sharing, adaptive-transfer, prototype-sharing,
and noise-bank pipelines plus the single-component ablations; the runner
caches pretrained source models so sweeps re-cluster instead of retrain.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import adapt as adapt_mod
from ._version import __version__
from .adapt import FinetuneConfig, akc_finetune, finetune
from .bank import assemble, extract_prototypes, random_bank
from .declarations import (
    CountryDataset,
    CountrySpec,
    SplitSpec,
    SyntheticWorldConfig,
    check_int,
    mask_labels,
    split,
)
from .errors import DataError, MetricError
from .pretrain import PretrainConfig, inspected, pretrain, select_fraud_like

SCENARIO_KINDS = (
    "target_only",
    "vanilla",
    "akc",
    "proto_single",
    "proto_multi",
    "random_memory",
    "ablation",
)
ABLATION_VARIANTS = ("encoding", "scl", "memory", "calibration")


def revenue_at_k(scores, test: CountryDataset, rate: float = 0.05) -> float:
    """Share of total collectible revenue captured by inspecting the top rate."""
    if not test.records:
        raise MetricError(f"{test.country_id}: empty test set")
    if not 0 < rate <= 1:
        raise DataError(f"inspection rate {rate} out of (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    n = len(test.records)
    if scores.shape != (n,):
        raise DataError(f"got {scores.shape[0] if scores.ndim else 0} scores for {n} records")
    sealed = test.sealed
    unlabeled = np.flatnonzero(sealed.illicit < 0)
    if unlabeled.size:
        raise DataError(f"record {sealed.ids[unlabeled[0]]} has no sealed label")
    revenues = sealed.revenue
    total = revenues.sum()
    if total <= 0:
        raise MetricError("total collectible revenue is zero; metric undefined")
    return float(revenues[inspected(scores, test.records, rate)].sum() / total)


# ---------------------------------------------------------------------------
# scenario configuration and reports


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    target_id: str
    source_ids: tuple[str, ...] = ()
    label_fraction: float = 0.01
    per_class: int = 500
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    inspection_rate: float = 0.05
    variant: str | None = None  # ablation component to drop

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise DataError(f"unknown scenario kind {self.kind!r}")
        if type(self.seeds) is not tuple or not self.seeds:
            raise DataError(f"seeds must be a nonempty tuple, got {self.seeds!r}")
        for seed in self.seeds:
            check_int("seeds entry", seed, 0)
        if not 0 < self.inspection_rate <= 1:
            raise DataError("inspection_rate out of (0, 1]")
        if not 0 < self.label_fraction <= 1:
            raise DataError("label_fraction out of (0, 1]")
        check_int("per_class", self.per_class, 1)
        if self.kind != "target_only" and not self.source_ids:
            raise DataError(f"{self.kind} needs at least one source country")
        if self.kind in ("proto_single", "vanilla", "akc") and len(self.source_ids) != 1:
            raise DataError(f"{self.kind} takes exactly one source")
        if self.kind == "ablation" and self.variant not in ABLATION_VARIANTS:
            raise DataError(f"ablation variant must be one of {ABLATION_VARIANTS}")
        if self.kind != "ablation" and self.variant is not None:
            raise DataError("variant is only valid for ablation scenarios")
        if self.target_id in self.source_ids and self.kind != "proto_single":
            # self-transfer is a legal proto_single sanity check only
            raise DataError("target cannot be among its own sources")

    @property
    def name(self) -> str:
        kind = self.kind if self.variant is None else f"ablation_{self.variant}"
        src = "+".join(self.source_ids) if self.source_ids else "none"
        return f"{kind}.{src}_to_{self.target_id}.lf{self.label_fraction}.pc{self.per_class}"


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    revenues: tuple[float, ...]  # one Revenue@k per seed, in config.seeds order
    wall_time_s: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.revenues))

    @property
    def stdev(self) -> float:
        return float(np.std(self.revenues))


# ---------------------------------------------------------------------------
# scenario runner


class ScenarioRunner:
    """Executes scenarios against one world, memoizing splits, source models,
    prototype sets and target-only models across scenarios and seeds."""

    def __init__(
        self,
        world: dict[str, CountryDataset],
        pretrain_cfg: PretrainConfig = PretrainConfig(),
        finetune_cfg: FinetuneConfig = FinetuneConfig(),
        fraud_like_fraction: float = 0.05,
    ):
        self.world = world
        self.pretrain_cfg = pretrain_cfg
        self.finetune_cfg = finetune_cfg
        self.fraud_like_fraction = fraud_like_fraction
        self._memo: dict[tuple, object] = {}

    def _cached(self, key: tuple, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def splits(self, country_id: str) -> dict[str, CountryDataset]:
        if country_id not in self.world:
            raise DataError(f"unknown country {country_id!r}")
        ds = self.world[country_id]
        return self._cached(("splits", country_id), lambda: split(ds, SplitSpec()))

    def pretrained(self, country_id: str, seed: int, use_interaction: bool, scl_on: bool):
        def make():
            sp = self.splits(country_id)
            cfg = replace(
                self.pretrain_cfg,
                seed=seed,
                scl_weight=self.pretrain_cfg.scl_weight if scl_on else 0.0,
                encoder=replace(self.pretrain_cfg.encoder, use_interaction=use_interaction),
            )
            return pretrain(sp["train"], sp["valid"], cfg)[0]

        return self._cached(("pretrained", country_id, seed, use_interaction, scl_on), make)

    def prototypes(
        self, country_id: str, seed: int, per_class: int, use_interaction: bool, scl_on: bool
    ):
        def make():
            params = self.pretrained(country_id, seed, use_interaction, scl_on)
            train = self.splits(country_id)["train"]
            fraud_like = select_fraud_like(params, train, self.fraud_like_fraction)
            return extract_prototypes(params, fraud_like, per_class, seed=seed)

        key = ("prototypes", country_id, seed, per_class, use_interaction, scl_on)
        return self._cached(key, make)

    def _finetune(self, cfg: ScenarioConfig, seed: int, source=None, bank=None, reference=None):
        """Fine-tunes on the target's train split, masked for this seed: from
        `source` and over `bank` when given, and with AKC's consistency penalty
        when the `reference` target-only model is given."""
        sp = self.splits(cfg.target_id)
        train = mask_labels(sp["train"], cfg.label_fraction, seed)
        ft = replace(
            self.finetune_cfg,
            init_from_source=source is not None,
            use_memory=bank is not None,
            use_calibration=cfg.variant != "calibration",
            seed=seed,
        )
        if reference is not None:  # akc_finetune sets init_from_source/use_memory itself
            return akc_finetune(train, sp["valid"], source, ft, target_pretrained=reference)[0]
        return finetune(train, sp["valid"], bank, source, ft)[0]

    def _run_seed(self, cfg: ScenarioConfig, seed: int) -> float:
        use_inter, scl_on = cfg.variant != "encoding", cfg.variant != "scl"

        def target_only():  # only variant-free kinds get here, so the variant is no key
            key = ("target_only", cfg.target_id, cfg.label_fraction, seed)
            return self._cached(key, lambda: self._finetune(cfg, seed))

        if cfg.kind == "target_only":
            model = target_only()
        else:
            src = self.pretrained(cfg.source_ids[0], seed, use_inter, scl_on)
            if cfg.kind == "akc":
                model = self._finetune(cfg, seed, src, reference=target_only())
            elif cfg.kind == "vanilla" or cfg.variant == "memory":
                model = self._finetune(cfg, seed, src)
            else:  # prototype-sharing pipelines
                protos = [
                    self.prototypes(s, seed, cfg.per_class, use_inter, scl_on)
                    for s in cfg.source_ids
                ]
                bank = assemble(protos)
                if cfg.kind == "random_memory":
                    bank = assemble([random_bank(bank.dim, max(2, len(bank)), seed)])
                model = self._finetune(cfg, seed, src, bank)

        test = self.splits(cfg.target_id)["test"]
        scores = adapt_mod.score_records(model, test.records)
        return revenue_at_k(scores, test, cfg.inspection_rate)

    def run(self, cfg: ScenarioConfig) -> ScenarioReport:
        started = time.perf_counter()
        revenues = tuple(self._run_seed(cfg, s) for s in cfg.seeds)
        return ScenarioReport(cfg, revenues, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# report emission

_CSV_COLUMNS = (
    "scenario",
    "kind",
    "source_ids",
    "target_id",
    "label_fraction",
    "per_class",
    "inspection_rate",
    "row",
    "seed",
    "revenue_at_k",
    "mean",
    "stdev",
)


def _config_fields(cfg: ScenarioConfig) -> dict:
    """The report columns both formats take from the config, `source_ids` aside."""
    return {
        "scenario": cfg.name,
        "kind": cfg.kind,
        "target_id": cfg.target_id,
        "label_fraction": cfg.label_fraction,
        "per_class": cfg.per_class,
        "inspection_rate": cfg.inspection_rate,
    }


def _report_rows(rep: ScenarioReport) -> list[dict]:
    # the csv module writes a float as its repr, like json
    base = {**_config_fields(rep.config), "source_ids": "+".join(rep.config.source_ids)}
    rows = [
        {**base, "row": "seed", "seed": seed, "revenue_at_k": rev, "mean": "", "stdev": ""}
        for seed, rev in zip(rep.config.seeds, rep.revenues)
    ]
    rows.append({**base, "row": "aggregate", "seed": "", "revenue_at_k": "",
                 "mean": rep.mean, "stdev": rep.stdev})
    return rows


def _reports_csv(reports: list[ScenarioReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        writer.writerows(_report_rows(rep))
    return buf.getvalue()


def _reports_json(reports: list[ScenarioReport]) -> str:
    payload = {
        "version": __version__,
        "scenarios": [
            {
                **_config_fields(r.config),
                "source_ids": list(r.config.source_ids),
                "per_seed": [
                    {"seed": s, "revenue_at_k": v} for s, v in zip(r.config.seeds, r.revenues)
                ],
                "mean": r.mean,
                "stdev": r.stdev,
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(reports: list[ScenarioReport], out_dir=None) -> tuple[str, str]:
    """Render reports as CSV and JSON; optionally write them under out_dir.

    Layout: <out_dir>/summary.csv|json plus one directory per scenario with
    the same rows filtered down. Contents carry no wall-clock fields, so a
    repeated run with identical seeds produces byte-identical files.
    """
    csv_text = _reports_csv(reports)
    json_text = _reports_json(reports)
    if out_dir is not None:
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        (root / "summary.csv").write_text(csv_text, encoding="utf-8")
        (root / "summary.json").write_text(json_text, encoding="utf-8")
        for rep in reports:
            sub = root / rep.config.name
            sub.mkdir(parents=True, exist_ok=True)
            (sub / "report.csv").write_text(_reports_csv([rep]), encoding="utf-8")
            (sub / "report.json").write_text(_reports_json([rep]), encoding="utf-8")
    return csv_text, json_text


# ---------------------------------------------------------------------------
# default world and experiment suites


def default_world_config(seed: int = 7) -> SyntheticWorldConfig:
    """Four countries with overlapping fraud patterns, desk-scale sizes."""
    return SyntheticWorldConfig(
        seed=seed,
        countries=(
            CountrySpec("C1", 5000, 240, 0.04, (0, 1, 2)),
            CountrySpec("C2", 4000, 210, 0.04, (0, 3)),
            CountrySpec("C3", 4000, 210, 0.04, (1, 3, 4)),
            CountrySpec("C4", 3000, 180, 0.05, (0, 1)),
        ),
        n_hs6=40,
        pattern_strength=0.8,
    )


def two_country_world_config(seed: int = 11) -> SyntheticWorldConfig:
    """Default donor/recipient pair sharing exactly one fraud pattern."""
    return SyntheticWorldConfig(
        seed=seed,
        countries=(
            CountrySpec("SRC", 5000, 210, 0.04, (0,)),
            CountrySpec("TGT", 6000, 180, 0.05, (0,)),
        ),
        n_hs6=40,
        pattern_strength=0.8,
    )


def multi_source_world_config(seed: int = 23) -> SyntheticWorldConfig:
    """Three donors with complementary (pairwise overlapping) pattern coverage."""
    return SyntheticWorldConfig(
        seed=seed,
        countries=(
            CountrySpec("S1", 4000, 210, 0.04, (0, 1)),
            CountrySpec("S2", 4000, 210, 0.04, (1, 2)),
            CountrySpec("S3", 4000, 210, 0.04, (0, 2)),
            CountrySpec("TGT", 6000, 180, 0.05, (0, 1, 2)),
        ),
        n_hs6=40,
        pattern_strength=0.8,
    )


def ablation_world_config(seed: int = 11) -> SyntheticWorldConfig:
    """Richer pair (private patterns, more categories, subtler gaps) for
    component comparisons, where representation quality matters most."""
    return SyntheticWorldConfig(
        seed=seed,
        countries=(
            CountrySpec("SRC", 5000, 210, 0.045, (0, 1)),
            CountrySpec("TGT", 6000, 180, 0.05, (0, 2)),
        ),
        n_hs6=60,
        pattern_strength=0.6,
    )


SUITES = ("single", "multi", "logsize", "ablation", "protocount", "randommem")


def _by_size(world: dict[str, CountryDataset]) -> list[str]:
    return sorted(world, key=lambda c: (-len(world[c]), c))


def suite_configs(
    suite: str,
    world: dict[str, CountryDataset],
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    label_fraction: float = 0.01,
) -> list[ScenarioConfig]:
    """Scenario grids for the six experiment families."""
    if suite not in SUITES:
        raise DataError(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite not in ("single", "multi") and len(world) < 2:
        raise DataError(f"suite {suite} needs at least 2 countries, the world has {len(world)}")
    ids = sorted(world)
    by_size = _by_size(world)
    out: list[ScenarioConfig] = []
    base = dict(seeds=seeds, label_fraction=label_fraction)
    if suite == "single":
        for t in ids:
            out.append(ScenarioConfig("target_only", t, **base))
            for s in ids:
                if s == t:
                    continue
                for kind in ("vanilla", "akc", "proto_single"):
                    out.append(ScenarioConfig(kind, t, (s,), **base))
    elif suite == "multi":
        for t in ids:
            others = [s for s in ids if s != t]
            out.append(ScenarioConfig("target_only", t, **base))
            for r in range(1, len(others) + 1):
                kind = "proto_single" if r == 1 else "proto_multi"
                for combo in combinations(others, r):
                    out.append(ScenarioConfig(kind, t, combo, **base))
    elif suite == "logsize":
        for t in ids:
            src = next(s for s in by_size if s != t)
            for lf in (0.01, 0.02, 0.05, 0.10):
                out.append(ScenarioConfig("target_only", t, seeds=seeds, label_fraction=lf))
                out.append(ScenarioConfig("proto_single", t, (src,), seeds=seeds, label_fraction=lf))
    elif suite == "ablation":
        t = by_size[-1]
        src = next(s for s in by_size if s != t)
        out.append(ScenarioConfig("proto_single", t, (src,), **base))
        for variant in ABLATION_VARIANTS:
            out.append(ScenarioConfig("ablation", t, (src,), variant=variant, **base))
    elif suite == "protocount":
        t = by_size[-1]
        src = next(s for s in by_size if s != t)
        for pc in (10, 100, 1000):
            out.append(ScenarioConfig("proto_single", t, (src,), per_class=pc, **base))
    elif suite == "randommem":
        for t in ids:
            others = tuple(s for s in ids if s != t)
            out.append(ScenarioConfig("vanilla", t, others[:1], **base))
            out.append(ScenarioConfig("random_memory", t, others, **base))
            kind = "proto_single" if len(others) == 1 else "proto_multi"
            out.append(ScenarioConfig(kind, t, others, **base))
    return out
