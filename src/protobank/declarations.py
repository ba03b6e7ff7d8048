"""Import-declaration data model, CSV ingestion, and synthetic worlds.

A CountryDataset is an immutable, chronologically sorted collection of
ImportDeclaration records plus a sealed side table of ground-truth labels.
Training code only ever sees the visible labels on the records; evaluation
reads the sealed table, so masking labels can never leak into scoring.

The synthetic world generator stands in for real customs data: frauds are
injected as (HS6 bucket x origin) pattern conjunctions with an
undervaluation multiplier, and revenue is the tariff on the value gap, so
shared patterns between countries carry transferable signal.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field, replace
from datetime import date as Date
from datetime import timedelta

import numpy as np

from .errors import DataError, SchemaError

_HS6_RE = re.compile(r"^\d{6}$")
_COUNTRY_RE = re.compile(r"^[A-Za-z]{2}$")

CSV_COLUMNS = (
    "id",
    "date",
    "quantity",
    "gross_weight",
    "hs6",
    "country_code",
    "cif_value",
    "total_taxes",
    "illicit",
    "revenue",
)


@dataclass(frozen=True)
class ImportDeclaration:
    """One trade record; `illicit`/`revenue` are None when uninspected."""

    id: int
    date: Date
    quantity: float
    gross_weight: float
    hs6: str
    country_code: str
    cif_value: float
    total_taxes: float
    illicit: bool | None = None
    revenue: float | None = None

    def validate(self) -> None:
        if not _HS6_RE.match(self.hs6):
            raise SchemaError(f"record {self.id}: hs6 {self.hs6!r} is not 6 digits")
        if not _COUNTRY_RE.match(self.country_code):
            raise SchemaError(
                f"record {self.id}: country_code {self.country_code!r} is not 2 letters"
            )
        for name in ("quantity", "gross_weight", "cif_value"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise SchemaError(f"record {self.id}: {name} must be positive, got {v}")
        if not (math.isfinite(self.total_taxes) and self.total_taxes >= 0):
            raise SchemaError(f"record {self.id}: total_taxes must be nonnegative")
        if (self.illicit is None) != (self.revenue is None):
            raise SchemaError(f"record {self.id}: illicit and revenue must be set together")
        if self.revenue is not None:
            if not (math.isfinite(self.revenue) and self.revenue >= 0):
                raise SchemaError(f"record {self.id}: revenue must be nonnegative")
            if self.illicit is False and self.revenue != 0:
                raise SchemaError(f"record {self.id}: revenue {self.revenue} on a non-fraud")
            if self.revenue > 0 and self.illicit is not True:
                raise SchemaError(f"record {self.id}: positive revenue requires illicit=1")


@dataclass(frozen=True)
class CountryDataset:
    """Sorted, validated records for one country; treat as immutable."""

    country_id: str
    records: tuple[ImportDeclaration, ...]
    hs6_vocab: dict[str, int]
    country_vocab: dict[str, int]
    # ground truth kept aside for evaluation, even when record labels are masked
    sealed: dict[int, tuple[bool, float]]

    @staticmethod
    def build(
        country_id: str,
        records,
        sealed: dict[int, tuple[bool, float]] | None = None,
    ) -> "CountryDataset":
        recs = tuple(sorted(records, key=lambda r: (r.date, r.id)))
        ids = [r.id for r in recs]
        if len(set(ids)) != len(ids):
            raise SchemaError(f"dataset {country_id}: duplicate record ids")
        for r in recs:
            r.validate()
        if sealed is None:
            sealed = {r.id: (r.illicit, r.revenue) for r in recs if r.illicit is not None}
        hs6_vocab = {h: i for i, h in enumerate(sorted({r.hs6 for r in recs}))}
        country_vocab = {c: i for i, c in enumerate(sorted({r.country_code for r in recs}))}
        return CountryDataset(country_id, recs, hs6_vocab, country_vocab, dict(sealed))

    def __len__(self) -> int:
        return len(self.records)

    def labeled(self) -> tuple[ImportDeclaration, ...]:
        return tuple(r for r in self.records if r.illicit is not None)

    def subset(self, keep) -> "CountryDataset":
        recs = [r for r in self.records if keep(r)]
        sealed = {r.id: self.sealed[r.id] for r in recs if r.id in self.sealed}
        return CountryDataset.build(self.country_id, recs, sealed)


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_row(row: dict[str, str], line: int) -> ImportDeclaration:
    try:
        illicit_raw = row["illicit"].strip()
        revenue_raw = row["revenue"].strip()
        if illicit_raw == "":
            illicit: bool | None = None
            if revenue_raw not in ("", "0", "0.0"):
                raise SchemaError(f"line {line}: revenue given for unlabeled row")
            revenue: float | None = None
        elif illicit_raw in ("0", "1"):
            illicit = illicit_raw == "1"
            revenue = float(revenue_raw) if revenue_raw else 0.0
        else:
            raise SchemaError(f"line {line}: illicit must be 0, 1, or empty")
        rec = ImportDeclaration(
            id=int(row["id"]),
            date=Date.fromisoformat(row["date"].strip()),
            quantity=float(row["quantity"]),
            gross_weight=float(row["gross_weight"]),
            hs6=row["hs6"].strip(),
            country_code=row["country_code"].strip(),
            cif_value=float(row["cif_value"]),
            total_taxes=float(row["total_taxes"]),
            illicit=illicit,
            revenue=revenue,
        )
    except SchemaError:
        raise
    except (KeyError, ValueError) as e:
        raise SchemaError(f"line {line}: malformed row ({e})") from None
    try:
        rec.validate()
    except SchemaError as e:
        raise SchemaError(f"line {line}: {e}") from None
    return rec


def _line_of_bad_utf8(path) -> int:
    """1-based number of the first line of `path` that is not valid UTF-8."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):  # no UTF-8 sequence contains a newline byte
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def load_csv(path, country_id: str | None = None) -> CountryDataset:
    """Read a declarations CSV whose header names every column of `CSV_COLUMNS`."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file")
            missing = [c for c in CSV_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise SchemaError(f"{path}: header missing columns {missing}")
            for row in reader:
                try:
                    records.append(_parse_row(row, reader.line_num))
                except (AttributeError, TypeError):
                    if None not in row.values():  # DictReader's fill for a short row
                        raise
                    line = reader.line_num
                    raise SchemaError(f"{path}: line {line}: fewer fields than the header") from None
        except csv.Error as e:
            # DictReader.line_num stops at the last whole row; its reader's counts this one
            raise SchemaError(f"{path}: line {reader.reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            line = _line_of_bad_utf8(path)
            raise SchemaError(f"{path}: line {line}: not UTF-8 ({e.reason})") from None
    cid = country_id if country_id is not None else str(path)
    return CountryDataset.build(cid, records)


def write_csv(ds: CountryDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in ds.records:
            writer.writerow(
                [
                    r.id,
                    r.date.isoformat(),
                    repr(r.quantity),
                    repr(r.gross_weight),
                    r.hs6,
                    r.country_code,
                    repr(r.cif_value),
                    repr(r.total_taxes),
                    "" if r.illicit is None else int(r.illicit),
                    "" if r.revenue is None else repr(r.revenue),
                ]
            )


# ---------------------------------------------------------------------------
# synthetic world generation


@dataclass(frozen=True)
class CountrySpec:
    country_id: str
    n_records: int
    duration_days: int
    base_illicit_rate: float
    fraud_pattern_ids: tuple[int, ...]


_N_HS6_CODES = 900_000  # distinct six-digit codes, 100000..999999
_MAX_PATTERN_ID = 999  # every id up to the largest one used builds a pattern


@dataclass(frozen=True)
class SyntheticWorldConfig:
    seed: int
    countries: tuple[CountrySpec, ...]
    n_hs6: int = 40
    n_shared_patterns: int = 2
    pattern_strength: float = 0.8

    def validate(self) -> None:
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if not self.countries:
            raise DataError("world config needs at least one country")
        ids = [c.country_id for c in self.countries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate country ids in world config")
        for c in self.countries:
            if c.n_records < 1000:
                raise DataError(f"{c.country_id}: n_records must be >= 1000")
            if not 0 < c.base_illicit_rate < 0.5:
                raise DataError(f"{c.country_id}: base_illicit_rate must be in (0, 0.5)")
            if not 60 <= c.duration_days <= _END_ANCHOR.toordinal():
                raise DataError(
                    f"{c.country_id}: duration_days must be in [60, {_END_ANCHOR.toordinal()}]"
                )
            if not c.fraud_pattern_ids:
                raise DataError(f"{c.country_id}: needs at least one fraud pattern id")
            if any(not 0 <= p <= _MAX_PATTERN_ID for p in c.fraud_pattern_ids):
                raise DataError(
                    f"{c.country_id}: fraud pattern ids must be in [0, {_MAX_PATTERN_ID}]"
                )
        if not 10 <= self.n_hs6 <= _N_HS6_CODES:
            raise DataError(f"n_hs6 must be in [10, {_N_HS6_CODES}]")
        if not 0 < self.pattern_strength <= 1:
            raise DataError("pattern_strength must be in (0, 1]")
        n_patterns = 1 + max(max(c.fraud_pattern_ids) for c in self.countries)
        if not 0 <= self.n_shared_patterns <= n_patterns:
            raise DataError("n_shared_patterns out of range")


_END_ANCHOR = Date(2024, 6, 30)
_ORIGIN_POOL = (
    "AU", "BR", "CN", "DE", "ES", "FR", "GB", "IN", "IT", "JP", "KR", "US",
)


@dataclass(frozen=True)
class _Pattern:
    hs6_bucket: tuple[str, ...]
    origins: tuple[str, ...]
    log_gap: float  # mean log undervaluation of declared vs true value


def _world_tables(cfg: SyntheticWorldConfig, rng: np.random.Generator):
    codes = rng.choice(np.arange(100000, 100000 + _N_HS6_CODES), size=cfg.n_hs6, replace=False)
    hs6_codes = [str(c) for c in codes]
    log_ppk = rng.normal(math.log(20.0), 0.9, cfg.n_hs6)
    tariff = rng.uniform(0.05, 0.30, cfg.n_hs6)
    unit_weight = np.exp(rng.normal(math.log(5.0), 0.8, cfg.n_hs6))
    n_patterns = 1 + max(max(c.fraud_pattern_ids) for c in cfg.countries)
    patterns = []
    for _ in range(n_patterns):
        bucket = rng.choice(cfg.n_hs6, size=int(rng.integers(3, 7)), replace=False)
        origins = rng.choice(len(_ORIGIN_POOL), size=int(rng.integers(2, 4)), replace=False)
        gap = (0.25 + 1.0 * cfg.pattern_strength) * float(rng.uniform(0.9, 1.1))
        patterns.append(
            _Pattern(
                tuple(hs6_codes[i] for i in sorted(bucket)),
                tuple(_ORIGIN_POOL[i] for i in sorted(origins)),
                gap,
            )
        )
    return hs6_codes, log_ppk, tariff, unit_weight, patterns


def _generate_country(
    spec: CountrySpec,
    cfg: SyntheticWorldConfig,
    tables,
    rng: np.random.Generator,
) -> CountryDataset:
    hs6_codes, log_ppk, tariff, unit_weight, patterns = tables
    n = spec.n_records
    hs6_weights = rng.dirichlet(np.full(cfg.n_hs6, 5.0))
    price_shift = rng.normal(0.0, 0.15)

    days = np.sort(rng.integers(0, spec.duration_days, n))
    start = _END_ANCHOR - timedelta(days=spec.duration_days - 1)

    n_fraud = round(spec.base_illicit_rate * n)
    fraud = np.zeros(n, dtype=bool)
    fraud[rng.choice(n, size=n_fraud, replace=False)] = True

    hs6_idx = rng.choice(cfg.n_hs6, size=n, p=hs6_weights)
    origin_idx = rng.integers(0, len(_ORIGIN_POOL), n)
    pattern_of = np.full(n, -1)
    pat_ids = np.asarray(spec.fraud_pattern_ids)
    pattern_of[fraud] = pat_ids[rng.integers(0, len(pat_ids), n_fraud)]

    quantity = np.exp(rng.normal(math.log(30.0), 1.0, n))
    weight_noise = np.exp(rng.normal(0.0, 0.25, n))
    value_noise = rng.normal(0.0, 0.35, n)
    honest_noise = rng.normal(0.0, 0.10, n)
    gap_jitter = rng.uniform(0.8, 1.2, n)

    records = []
    hs6_lookup = {h: i for i, h in enumerate(hs6_codes)}
    for i in range(n):
        if fraud[i]:
            pat = patterns[pattern_of[i]]
            hs6 = pat.hs6_bucket[int(rng.integers(0, len(pat.hs6_bucket)))]
            origin = pat.origins[int(rng.integers(0, len(pat.origins)))]
        else:
            hs6 = hs6_codes[hs6_idx[i]]
            origin = _ORIGIN_POOL[origin_idx[i]]
        j = hs6_lookup[hs6]
        gross = quantity[i] * unit_weight[j] * weight_noise[i]
        true_value = gross * math.exp(log_ppk[j] + price_shift + value_noise[i])
        if fraud[i]:
            declared = true_value * math.exp(-patterns[pattern_of[i]].log_gap * gap_jitter[i])
            revenue = tariff[j] * (true_value - declared)
        else:
            declared = true_value * math.exp(honest_noise[i])
            revenue = 0.0
        records.append(
            ImportDeclaration(
                id=i,
                date=start + timedelta(days=int(days[i])),
                quantity=float(quantity[i]),
                gross_weight=float(gross),
                hs6=hs6,
                country_code=origin,
                cif_value=float(declared),
                total_taxes=float(tariff[j] * declared),
                illicit=bool(fraud[i]),
                revenue=float(revenue),
            )
        )
    return CountryDataset.build(spec.country_id, records)


def generate_world(cfg: SyntheticWorldConfig) -> dict[str, CountryDataset]:
    """Deterministically generate one dataset per configured country."""
    cfg.validate()
    seq = np.random.SeedSequence(cfg.seed)
    children = seq.spawn(1 + len(cfg.countries))
    tables = _world_tables(cfg, np.random.default_rng(children[0]))
    world = {}
    for spec, child in zip(cfg.countries, children[1:]):
        world[spec.country_id] = _generate_country(spec, cfg, tables, np.random.default_rng(child))
    return world


# ---------------------------------------------------------------------------
# chronological splitting and label masking


@dataclass(frozen=True)
class SplitSpec:
    test_window_days: int = 30
    valid_window_days: int = 14


def split(ds: CountryDataset, spec: SplitSpec) -> dict[str, CountryDataset]:
    """Chronological partition into train, valid and test windows."""
    if not ds.records:
        raise DataError(f"{ds.country_id}: cannot split an empty dataset")
    first, last = ds.records[0].date, ds.records[-1].date
    span = (last - first).days + 1
    if span <= spec.test_window_days + spec.valid_window_days:
        raise DataError(
            f"{ds.country_id}: spans {span} days, needs more than "
            f"{spec.test_window_days + spec.valid_window_days}"
        )
    test_start = last - timedelta(days=spec.test_window_days - 1)
    valid_start = test_start - timedelta(days=spec.valid_window_days)
    return {
        "train": ds.subset(lambda r: r.date < valid_start),
        "valid": ds.subset(lambda r: valid_start <= r.date < test_start),
        "test": ds.subset(lambda r: r.date >= test_start),
    }


def mask_labels(ds: CountryDataset, fraction: float, seed: int) -> CountryDataset:
    """Keep labels on exactly round(fraction * n) records, hide the rest.

    Selection is class-stratified (proportional, at least one record per
    present class when the budget allows) so tiny label budgets still carry
    both classes. Ground truth stays in the sealed table for evaluation.
    """
    if not 0 < fraction <= 1:
        raise DataError(f"label fraction {fraction} out of (0, 1]")
    n = len(ds.records)
    budget = round(fraction * n)
    if fraction == 1.0:
        return ds
    labeled_idx = [i for i, r in enumerate(ds.records) if r.illicit is not None]
    pos = [i for i in labeled_idx if ds.records[i].illicit]
    negd = [i for i in labeled_idx if not ds.records[i].illicit]
    budget = min(budget, len(labeled_idx))
    # feasible range for the positive quota given class availability
    lo = max(0, budget - len(negd))
    hi = min(len(pos), budget)
    share = len(pos) / len(labeled_idx) if labeled_idx else 0.0
    keep_pos = min(max(round(budget * share), lo), hi)
    if budget >= 2 and pos and negd:
        keep_pos = min(max(keep_pos, 1), budget - 1)
    keep_neg = budget - keep_pos
    rng = np.random.default_rng(seed)
    chosen = set()
    for pool, quota in ((pos, keep_pos), (negd, keep_neg)):
        if quota > 0:
            order = rng.permutation(len(pool))
            chosen.update(pool[j] for j in order[:quota])
    records = [
        r if i in chosen else replace(r, illicit=None, revenue=None)
        for i, r in enumerate(ds.records)
    ]
    return CountryDataset.build(ds.country_id, records, sealed=dict(ds.sealed))
