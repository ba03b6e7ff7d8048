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
import math
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
    mask_labels,
    split,
)
from .errors import DataError, MetricError
from .pretrain import PretrainConfig, pretrain, select_fraud_like

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
    revenues = np.empty(n)
    for i, r in enumerate(test.records):
        if r.id not in test.sealed:
            raise DataError(f"record {r.id} has no sealed label")
        revenues[i] = test.sealed[r.id][1]
    total = revenues.sum()
    if total <= 0:
        raise MetricError("total collectible revenue is zero; metric undefined")
    ids = np.array([r.id for r in test.records])
    order = np.lexsort((ids, -scores))
    n_inspect = math.ceil(rate * n)
    return float(revenues[order[:n_inspect]].sum() / total)


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

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise DataError(f"unknown scenario kind {self.kind!r}")
        if not self.seeds:
            raise DataError("scenario needs at least one seed")
        if not 0 < self.inspection_rate <= 1:
            raise DataError("inspection_rate out of (0, 1]")
        if not 0 < self.label_fraction <= 1:
            raise DataError("label_fraction out of (0, 1]")
        if self.per_class < 1:
            raise DataError("per_class must be positive")
        needs_source = self.kind not in ("target_only",)
        if needs_source and not self.source_ids:
            raise DataError(f"{self.kind} needs at least one source country")
        if self.kind == "proto_single" and len(self.source_ids) != 1:
            raise DataError("proto_single takes exactly one source")
        if self.kind in ("vanilla", "akc") and len(self.source_ids) != 1:
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
    scenario: str
    kind: str
    source_ids: tuple[str, ...]
    target_id: str
    label_fraction: float
    per_class: int
    inspection_rate: float
    seeds: tuple[int, ...]
    revenues: tuple[float, ...]
    mean: float
    stdev: float
    wall_time_s: float
    version: str


# ---------------------------------------------------------------------------
# scenario runner


class ScenarioRunner:
    """Executes scenarios against one world, caching per-seed source models."""

    def __init__(
        self,
        world: dict[str, CountryDataset],
        split_spec: SplitSpec = SplitSpec(),
        pretrain_cfg: PretrainConfig = PretrainConfig(),
        finetune_cfg: FinetuneConfig = FinetuneConfig(),
        fraud_like_fraction: float = 0.05,
    ):
        self.world = world
        self.split_spec = split_spec
        self.pretrain_cfg = pretrain_cfg
        self.finetune_cfg = finetune_cfg
        self.fraud_like_fraction = fraud_like_fraction
        self._splits: dict[str, dict[str, CountryDataset]] = {}
        self._pretrained: dict = {}
        self._protos: dict = {}
        self._target_only: dict = {}

    def splits(self, country_id: str) -> dict[str, CountryDataset]:
        if country_id not in self.world:
            raise DataError(f"unknown country {country_id!r}")
        if country_id not in self._splits:
            self._splits[country_id] = split(self.world[country_id], self.split_spec)
        return self._splits[country_id]

    def pretrained(self, country_id: str, seed: int, use_interaction: bool, scl_on: bool):
        key = (country_id, seed, use_interaction, scl_on)
        if key not in self._pretrained:
            sp = self.splits(country_id)
            cfg = replace(
                self.pretrain_cfg,
                seed=seed,
                scl_weight=self.pretrain_cfg.scl_weight if scl_on else 0.0,
                encoder=replace(self.pretrain_cfg.encoder, use_interaction=use_interaction),
            )
            self._pretrained[key] = pretrain(sp["train"], sp["valid"], cfg)[0]
        return self._pretrained[key]

    def prototypes(
        self, country_id: str, seed: int, per_class: int, use_interaction: bool, scl_on: bool
    ):
        key = (country_id, seed, per_class, use_interaction, scl_on)
        if key not in self._protos:
            params = self.pretrained(country_id, seed, use_interaction, scl_on)
            fraud_like = select_fraud_like(
                params, self.splits(country_id)["train"], self.fraud_like_fraction
            )
            self._protos[key] = extract_prototypes(params, fraud_like, per_class, seed=seed)
        return self._protos[key]

    def target_only_model(
        self, country_id: str, seed: int, label_fraction: float, use_interaction: bool
    ):
        key = (country_id, seed, label_fraction, use_interaction)
        if key not in self._target_only:
            sp = self.splits(country_id)
            train = mask_labels(sp["train"], label_fraction, seed)
            cfg = replace(
                self.finetune_cfg,
                init_from_source=False,
                use_memory=False,
                seed=seed,
                encoder=replace(self.finetune_cfg.encoder, use_interaction=use_interaction),
            )
            self._target_only[key] = finetune(train, sp["valid"], None, None, cfg)[0]
        return self._target_only[key]

    def _run_seed(self, cfg: ScenarioConfig, seed: int) -> float:
        variant = cfg.variant
        use_inter = variant != "encoding"
        scl_on = variant != "scl"
        enc_cfg = replace(self.finetune_cfg.encoder, use_interaction=use_inter)
        sp = self.splits(cfg.target_id)
        train = mask_labels(sp["train"], cfg.label_fraction, seed)
        valid, test = sp["valid"], sp["test"]

        if cfg.kind == "target_only":
            model = self.target_only_model(cfg.target_id, seed, cfg.label_fraction, use_inter)
        elif cfg.kind == "vanilla" or (cfg.kind == "ablation" and variant == "memory"):
            src = self.pretrained(cfg.source_ids[0], seed, use_inter, scl_on)
            ft = replace(
                self.finetune_cfg,
                init_from_source=True,
                use_memory=False,
                seed=seed,
                encoder=enc_cfg,
            )
            model = finetune(train, valid, None, src, ft)[0]
        elif cfg.kind == "akc":
            src = self.pretrained(cfg.source_ids[0], seed, use_inter, scl_on)
            reference = self.target_only_model(cfg.target_id, seed, cfg.label_fraction, use_inter)
            ft = replace(self.finetune_cfg, seed=seed, encoder=enc_cfg)
            model = akc_finetune(train, valid, src, ft, target_pretrained=reference)[0]
        else:  # prototype-sharing pipelines
            protos = [
                self.prototypes(s, seed, cfg.per_class, use_inter, scl_on)
                for s in cfg.source_ids
            ]
            bank = assemble(protos)
            if cfg.kind == "random_memory":
                bank = assemble([random_bank(bank.dim, max(2, len(bank)), seed)])
            src = self.pretrained(cfg.source_ids[0], seed, use_inter, scl_on)
            ft = replace(
                self.finetune_cfg,
                init_from_source=True,
                use_memory=True,
                use_calibration=variant != "calibration",
                seed=seed,
                encoder=enc_cfg,
            )
            model = finetune(train, valid, bank, src, ft)[0]

        scores = adapt_mod.score_records(model, test.records)
        return revenue_at_k(scores, test, cfg.inspection_rate)

    def run(self, cfg: ScenarioConfig) -> ScenarioReport:
        cfg.validate()
        started = time.perf_counter()
        revenues = tuple(self._run_seed(cfg, s) for s in cfg.seeds)
        return ScenarioReport(
            scenario=cfg.name,
            kind=cfg.kind,
            source_ids=cfg.source_ids,
            target_id=cfg.target_id,
            label_fraction=cfg.label_fraction,
            per_class=cfg.per_class,
            inspection_rate=cfg.inspection_rate,
            seeds=cfg.seeds,
            revenues=revenues,
            mean=float(np.mean(revenues)),
            stdev=float(np.std(revenues)),
            wall_time_s=time.perf_counter() - started,
            version=__version__,
        )


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


def _report_rows(rep: ScenarioReport) -> list[dict]:
    base = {
        "scenario": rep.scenario,
        "kind": rep.kind,
        "source_ids": "+".join(rep.source_ids),
        "target_id": rep.target_id,
        "label_fraction": repr(rep.label_fraction),
        "per_class": rep.per_class,
        "inspection_rate": repr(rep.inspection_rate),
    }
    rows = []
    for seed, rev in zip(rep.seeds, rep.revenues):
        rows.append({**base, "row": "seed", "seed": seed, "revenue_at_k": repr(rev), "mean": "", "stdev": ""})
    rows.append(
        {
            **base,
            "row": "aggregate",
            "seed": "",
            "revenue_at_k": "",
            "mean": repr(rep.mean),
            "stdev": repr(rep.stdev),
        }
    )
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
        "version": reports[0].version if reports else __version__,
        "scenarios": [
            {
                "scenario": r.scenario,
                "kind": r.kind,
                "source_ids": list(r.source_ids),
                "target_id": r.target_id,
                "label_fraction": r.label_fraction,
                "per_class": r.per_class,
                "inspection_rate": r.inspection_rate,
                "per_seed": [
                    {"seed": s, "revenue_at_k": v} for s, v in zip(r.seeds, r.revenues)
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
            sub = root / rep.scenario
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
        n_shared_patterns=3,
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
        n_shared_patterns=1,
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
        n_shared_patterns=3,
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
        n_shared_patterns=1,
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
