"""Import-declaration data model, CSV ingestion, and synthetic worlds.

A CountryDataset holds one country's declarations as numpy columns, sorted
chronologically, plus the sealed records behind them: the same columns with
their labels unmasked. Training code only ever sees the visible labels;
evaluation reads the sealed ones, so masking labels can never leak into
scoring.

The synthetic world generator stands in for real customs data: frauds are
injected as (HS6 bucket x origin) pattern conjunctions with an
undervaluation multiplier, and revenue is the tariff on the value gap, so
shared patterns between countries carry transferable signal.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from datetime import date as Date
from itertools import islice, repeat
from operator import itemgetter

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
# One declaration as iterating Records gives it: plain values in CSV_COLUMNS
# order, with illicit and revenue None on an uninspected row.
Row = namedtuple("Row", CSV_COLUMNS)


# The largest cif_value / gross_weight, the price_per_kg feature. A square of
# a deviation from the mean is then at most 4e200, so their sum over any
# dataset below 1e100 rows stays finite.
_MAX_PRICE_PER_KG = 1e100


# Column -> dtype, in CSV_COLUMNS order. `hs6` and `country_code` are codes
# into the Records' string pools; `days` are date.toordinal(); `illicit` is -1
# where uninspected, and `revenue` is 0 there.
_COLUMNS = {
    "ids": np.int64,
    "days": np.int32,
    "quantity": np.float64,
    "gross_weight": np.float64,
    "hs6": np.int32,
    "country_code": np.int32,
    "cif_value": np.float64,
    "total_taxes": np.float64,
    "illicit": np.int8,
    "revenue": np.float64,
}
_BLOCK_ROWS = 1024  # rows parsed, written or iterated per pass


def map_column(fn, column: np.ndarray) -> np.ndarray:
    """`fn` applied to each value of a float column, as a float64 array.

    For math.log, math.log1p and math.exp: np.log, np.log1p and np.exp round
    differently on some values, and every feature and generated value keeps
    the bits of the per-value math.* call.
    """
    return np.fromiter(map(fn, column.tolist()), np.float64, len(column))


class Records:
    """Read-only columns of declarations, in dataset order.

    A slice, boolean mask or index array selects rows as Records (a slice
    shares the columns); `+` concatenates; iteration gives `Row`s, built on
    demand. The pools may hold values that no selected row uses.
    """

    __slots__ = (*_COLUMNS, "hs6_pool", "country_pool")

    def __init__(self, columns: dict, hs6_pool: tuple[str, ...], country_pool: tuple[str, ...]):
        for name, dtype in _COLUMNS.items():
            column = np.asarray(columns[name], dtype)
            column.flags.writeable = False
            setattr(self, name, column)
        self.hs6_pool, self.country_pool = hs6_pool, country_pool

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError("Records select rows by slice, mask or index array")
        columns = {name: getattr(self, name)[key] for name in _COLUMNS}
        return Records(columns, self.hs6_pool, self.country_pool)

    def __iter__(self):
        hs6, countries = self.hs6_pool, self.country_pool
        for lo in range(0, len(self), _BLOCK_ROWS):
            block = [getattr(self, name)[lo : lo + _BLOCK_ROWS].tolist() for name in _COLUMNS]
            for rid, day, q, w, h, c, v, t, label, revenue in zip(*block):
                labels = (None, None) if label < 0 else (label == 1, revenue)
                yield Row(rid, Date.fromordinal(day), q, w, hs6[h], countries[c], v, t, *labels)

    def _aligned(self, other: "Records") -> tuple[dict, tuple, tuple]:
        """`other`'s columns with their codes recoded into pools that extend
        these Records' pools, and those two pools."""
        tail = {name: getattr(other, name) for name in _COLUMNS}
        hs6_pool, tail["hs6"] = _merge(self.hs6_pool, other.hs6_pool, other.hs6)
        country_pool, tail["country_code"] = _merge(
            self.country_pool, other.country_pool, other.country_code
        )
        return tail, hs6_pool, country_pool

    def __add__(self, other: "Records") -> "Records":
        if not isinstance(other, Records):
            return NotImplemented
        tail, *pools = self._aligned(other)
        columns = {name: np.concatenate((getattr(self, name), tail[name])) for name in _COLUMNS}
        return Records(columns, *pools)

    def __eq__(self, other) -> bool:
        """Equal when every column holds the same values in the same order,
        `hs6` and `country_code` compared as their pooled strings."""
        if not isinstance(other, Records):
            return NotImplemented
        tail = self._aligned(other)[0]
        return all(np.array_equal(getattr(self, name), tail[name]) for name in _COLUMNS)

    def relabeled(self, illicit: np.ndarray) -> "Records":
        """These rows with visible labels `illicit` (-1 hides one, and its
        revenue reads 0), sharing every other column."""
        columns = {name: getattr(self, name) for name in _COLUMNS}
        columns["illicit"] = illicit
        columns["revenue"] = np.where(illicit >= 0, self.revenue, 0.0)
        return Records(columns, self.hs6_pool, self.country_pool)


def _merge(pool: tuple, other_pool: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """A pool holding `pool` then the new values of `other_pool`, and `codes`
    into `other_pool` recoded into it."""
    if other_pool is pool:
        return pool, codes
    index = {value: code for code, value in enumerate(pool)}
    recode = np.array([index.setdefault(v, len(index)) for v in other_pool], dtype=np.int32)
    return tuple(index), recode[codes]


# ---------------------------------------------------------------------------
# record rules


def _record_faults(r: Records) -> list:
    """The record rules in check order, each as (mask of the rows that break
    it, message for row i)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        price = r.cif_value / r.gross_weight
    hs6, country, taxes, revenue = r.hs6_pool, r.country_pool, r.total_taxes, r.revenue
    rules = [
        (_unmatched(_HS6_RE, hs6, r.hs6), lambda i: f"hs6 {hs6[r.hs6[i]]!r} is not 6 digits"),
        (
            _unmatched(_COUNTRY_RE, country, r.country_code),
            lambda i: f"country_code {country[r.country_code[i]]!r} is not 2 letters",
        ),
    ]
    for name in ("quantity", "gross_weight", "cif_value"):
        v = getattr(r, name)
        positive = np.isfinite(v) & (v > 0)
        rules.append((~positive, lambda i, n=name, v=v: f"{n} must be positive, got {float(v[i])}"))
    rules += [
        (
            ~(price <= _MAX_PRICE_PER_KG),
            lambda i: f"price_per_kg {float(price[i])} over {_MAX_PRICE_PER_KG:g}",
        ),
        (~(np.isfinite(taxes) & (taxes >= 0)), lambda i: "total_taxes must be nonnegative"),
        (
            (r.illicit >= 0) & ~(np.isfinite(revenue) & (revenue >= 0)),
            lambda i: "revenue must be nonnegative",
        ),
        (
            (r.illicit == 0) & (revenue != 0),
            lambda i: f"revenue {float(revenue[i])} on a non-fraud",
        ),
        # load_csv rejects these two while parsing; Records built in code meet them here
        (~np.isin(r.illicit, (-1, 0, 1)), lambda i: "illicit must be 0, 1, or empty"),
        ((r.illicit == -1) & (revenue != 0), lambda i: "revenue given for unlabeled row"),
    ]
    return [(bad, lambda i, say=say: f"record {r.ids[i]}: {say(i)}") for bad, say in rules]


def _unmatched(pattern: re.Pattern, pool: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """Mask of the rows whose pooled value `pattern` does not match."""
    return np.array([not pattern.match(value) for value in pool], dtype=bool)[codes]


def _first_fault(faults) -> tuple[int, str] | None:
    """(row, message) of the first row any fault marks, with the message of
    the first fault in check order that marks it; None when none does."""
    firsts = [int(np.argmax(bad)) for bad, _ in faults if bad.any()]
    if not firsts:
        return None
    row = min(firsts)
    return row, next(message for bad, message in faults if bad[row])(row)


def _check(records: Records) -> None:
    """SchemaError for the first row that breaks a record rule."""
    fault = _first_fault(_record_faults(records))
    if fault is not None:
        raise SchemaError(fault[1])


@dataclass(frozen=True)
class CountryDataset:
    """Sorted, checked declarations of one country, held as columns."""

    country_id: str
    records: Records
    # ground truth for evaluation: `records` with every label unmasked over the
    # same columns, and the same object until mask_labels hides labels
    sealed: Records

    @staticmethod
    def build(country_id: str, recs: Records) -> "CountryDataset":
        """A dataset of Records in any order, sorted by (date, id); SchemaError
        for the first row that breaks a record rule, or naming the first id
        that repeats."""
        _check(recs)
        return CountryDataset._sorted(country_id, recs)

    @staticmethod
    def _sorted(country_id: str, recs: Records) -> "CountryDataset":
        """`build` for Records that already meet the record rules."""
        ids = recs.ids
        by_id = np.argsort(ids, kind="stable")
        repeats = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]
        if repeats.size:
            raise SchemaError(
                f"dataset {country_id}: duplicate record ids ({ids[repeats.min()]} repeats)"
            )
        order = np.lexsort((ids, recs.days))
        if not np.array_equal(order, np.arange(len(order))):
            recs = recs[order]
        return CountryDataset(country_id, recs, recs)

    def __len__(self) -> int:
        return len(self.records)

    def labeled(self) -> Records:
        return self.records[self.records.illicit >= 0]

    def subset(self, keep) -> "CountryDataset":
        """The rows `keep` selects, in order, with their truth: `keep` is a
        boolean mask over the rows or a slice with a positive step."""
        if isinstance(keep, slice):
            if keep.step is not None and keep.step < 1:
                raise ValueError(f"subset slice step must be positive, got {keep.step}")
        elif not (
            isinstance(keep, np.ndarray) and keep.dtype == bool and keep.shape == (len(self),)
        ):
            raise ValueError(f"subset takes a slice or a boolean mask of {len(self)} rows")
        recs = self.records[keep]
        sealed = recs if self.sealed is self.records else self.sealed[keep]
        return CountryDataset(self.country_id, recs, sealed)


# ---------------------------------------------------------------------------
# CSV ingestion


_LABELS = {"": -1, "0": 0, "1": 1}  # anything else reads as -2
_NO_REVENUE = frozenset(("", "0", "0.0"))


def _revenue(text: str) -> float:
    return float(text) if text else 0.0


def _ordinal(text: str) -> int:
    return Date.fromisoformat(text.strip()).toordinal()


def _converted(fn, values, dtype, faults: list) -> np.ndarray:
    """`fn` over `values` as a `dtype` array. The first value it rejects ends
    the conversion, and its row becomes a malformed-row fault at the end of
    `faults`; that row and the ones after it read as 1."""
    try:
        return np.fromiter(map(fn, values), dtype, len(values))
    except (ValueError, OverflowError):
        pass
    out = np.ones(len(values), dtype)
    for i, value in enumerate(values):
        try:
            out[i] = fn(value)
        except (ValueError, OverflowError) as e:  # an id beyond int64 overflows here
            faults.append((np.arange(len(values)) == i, lambda _, e=e: f"malformed row ({e})"))
            break
    return out


def _coded(pool: dict[str, int], values) -> np.ndarray:
    """Codes of the stripped `values` in `pool`, which grows by each new value."""
    stripped = list(map(str.strip, values))
    for value in dict.fromkeys(stripped):
        pool.setdefault(value, len(pool))
    return np.fromiter(map(pool.__getitem__, stripped), np.int32, len(stripped))


def _parse_block(rows: list, position: dict, width: int, pools, ordinal, start: int):
    """Columns of `rows`, which start at data row `start`, up to the block's
    first faulty row, and that fault as (data row, message, whether the
    message names the file), or None.

    A row's checks run in this order: its field count (at most the header's
    `width`, and enough to hold every CSV column, so a row may leave off
    trailing extra cells); the labels; then id, date, quantity,
    gross_weight, cif_value and total_taxes. The record rules run later,
    over every row read.
    """
    fault = None
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    wrong = np.flatnonzero((lengths <= max(position.values())) | (lengths > width))
    if wrong.size:
        k = int(wrong[0])
        more = "more" if lengths[k] > width else "fewer"
        fault = (start + k, f"{more} fields than the header", True)
        rows = rows[:k]
    n = len(rows)

    def cell(name):
        return list(map(itemgetter(position[name]), rows))

    revenue_text = list(map(str.strip, cell("revenue")))
    illicit_text = map(str.strip, cell("illicit"))
    illicit = np.fromiter(map(_LABELS.get, illicit_text, repeat(-2)), np.int8, n)
    given = ~np.fromiter(map(_NO_REVENUE.__contains__, revenue_text), bool, n)
    faults = [
        (illicit == -2, lambda i: "illicit must be 0, 1, or empty"),
        ((illicit == -1) & given, lambda i: "revenue given for unlabeled row"),
    ]
    columns = {
        "revenue": _converted(_revenue, revenue_text, np.float64, faults),
        "illicit": illicit,
        "ids": _converted(int, cell("id"), np.int64, faults),
        "days": _converted(ordinal, cell("date"), np.int32, faults),
        "quantity": _converted(float, cell("quantity"), np.float64, faults),
        "gross_weight": _converted(float, cell("gross_weight"), np.float64, faults),
        "hs6": _coded(pools[0], cell("hs6")),
        "country_code": _coded(pools[1], cell("country_code")),
        "cif_value": _converted(float, cell("cif_value"), np.float64, faults),
        "total_taxes": _converted(float, cell("total_taxes"), np.float64, faults),
    }
    first = _first_fault(faults)
    if first is not None:
        row, message = first
        kept = {name: column[:row] for name, column in columns.items()}
        return kept, (start + row, message, False)
    return columns, fault


def _positions(path, header: list[str]) -> dict[str, int]:
    """Index of each CSV column in `header`; SchemaError unless the header
    names every one and no column twice."""
    missing = [c for c in CSV_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"{path}: header missing columns {missing}")
    repeated = [name for name, count in Counter(header).items() if count > 1]
    if repeated:
        raise SchemaError(f"{path}: header names column {repeated[0]!r} more than once")
    return {c: header.index(c) for c in CSV_COLUMNS}


def _read_error(path, reader, e: Exception) -> SchemaError:
    if isinstance(e, UnicodeDecodeError):
        return SchemaError(f"{path}: line {_line_of_bad_utf8(path)}: not UTF-8 ({e.reason})")
    return SchemaError(f"{path}: line {reader.line_num}: {e}")


def _data_rows(path, reader):
    """The nonempty rows after the header; then, if reading stops on an
    error, its SchemaError."""
    try:
        yield from filter(None, reader)
    except (csv.Error, UnicodeDecodeError) as e:
        yield _read_error(path, reader, e)


def _line_of_row(path, index: int) -> int:
    """The line on which data row `index` (counted from 0, blank lines skipped) ends."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        for _ in islice(filter(None, reader), index + 1):
            pass
        return reader.line_num


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
    """Read a declarations CSV whose header names each column of `CSV_COLUMNS` once.

    Rows are read a block at a time and parsed into columns. A row holds no
    more fields than the header and may leave off only trailing cells of
    extra columns. The first faulty row in file order raises a SchemaError
    naming its line.
    """
    pools: tuple[dict, dict] = ({}, {})  # hs6 and country_code value -> code, by first use
    ordinal = functools.cache(_ordinal)  # each distinct date string is parsed once
    blocks, fault, read_error = [], None, None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        except (csv.Error, UnicodeDecodeError) as e:
            raise _read_error(path, reader, e) from None
        position = _positions(path, header)
        rows, start = _data_rows(path, reader), 0
        while fault is None and (block := list(islice(rows, _BLOCK_ROWS))):
            if isinstance(block[-1], SchemaError):
                read_error = block.pop()
            columns, fault = _parse_block(block, position, len(header), pools, ordinal, start)
            blocks.append(columns)
            start += len(block)
    # each column's blocks are let go once it is joined: the peak is the
    # columns plus one column's blocks, not twice the columns
    columns = {
        name: np.concatenate([np.empty(0, dtype)] + [b.pop(name) for b in blocks])
        for name, dtype in _COLUMNS.items()
    }
    records = Records(columns, tuple(pools[0]), tuple(pools[1]))
    rule = _first_fault(_record_faults(records))  # only rows before `fault` were kept
    if rule is not None:
        fault = (*rule, False)
    if fault is not None:
        row, message, names_file = fault
        where = f"{path}: line" if names_file else "line"
        raise SchemaError(f"{where} {_line_of_row(path, row)}: {message}")
    if read_error is not None:
        raise read_error
    return CountryDataset._sorted(country_id if country_id is not None else str(path), records)


def write_csv(ds: CountryDataset, path) -> None:
    """Write `ds` with its visible labels; floats in repr form, so load_csv reads back every bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for lo in range(0, len(ds), _BLOCK_ROWS):
            r = ds.records[lo : lo + _BLOCK_ROWS]
            labels = r.illicit.tolist()
            writer.writerows(
                zip(
                    r.ids.tolist(),
                    [Date.fromordinal(d).isoformat() for d in r.days.tolist()],
                    map(repr, r.quantity.tolist()),
                    map(repr, r.gross_weight.tolist()),
                    map(r.hs6_pool.__getitem__, r.hs6.tolist()),
                    map(r.country_pool.__getitem__, r.country_code.tolist()),
                    map(repr, r.cif_value.tolist()),
                    map(repr, r.total_taxes.tolist()),
                    ["" if label < 0 else label for label in labels],
                    ["" if label < 0 else repr(v) for label, v in zip(labels, r.revenue.tolist())],
                )
            )


# ---------------------------------------------------------------------------
# synthetic world generation


_ID_RE = re.compile(r"[A-Za-z0-9._-]+")


def check_id(name: str, value) -> str:
    """`value` if it is a nonempty string of [A-Za-z0-9._-], which is safe as a
    file name (a country's CSV, a stored prototype set); DataError otherwise."""
    if not (isinstance(value, str) and _ID_RE.fullmatch(value)):
        raise DataError(f"{name} {value!r} must be nonempty and use only [A-Za-z0-9._-]")
    return value


def check_int(name: str, value, low: int, high: float = math.inf) -> None:
    """DataError unless `value` is an int (a bool is not) in [low, high]."""
    if not (type(value) is int and low <= value <= high):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise DataError(f"{name} must be an integer {bound}, got {value!r}")


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
    n_shared_patterns: int = 0  # inert: generate_world never reads it
    pattern_strength: float = 0.8

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0)
        if not self.countries:
            raise DataError("world config needs at least one country")
        ids = [c.country_id for c in self.countries]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate country ids in world config")
        last_day = _END_ANCHOR.toordinal()
        for c in self.countries:
            check_id("country id", c.country_id)
            check_int(f"{c.country_id}: n_records", c.n_records, 1000)
            if not 0 < c.base_illicit_rate < 0.5:
                raise DataError(f"{c.country_id}: base_illicit_rate must be in (0, 0.5)")
            check_int(f"{c.country_id}: duration_days", c.duration_days, 60, last_day)
            if not c.fraud_pattern_ids:
                raise DataError(f"{c.country_id}: needs at least one fraud pattern id")
            for p in c.fraud_pattern_ids:
                check_int(f"{c.country_id}: fraud pattern id", p, 0, _MAX_PATTERN_ID)
        check_int("n_hs6", self.n_hs6, 10, _N_HS6_CODES)
        if not 0 < self.pattern_strength <= 1:
            raise DataError("pattern_strength must be in (0, 1]")
        n_patterns = 1 + max(max(c.fraud_pattern_ids) for c in self.countries)
        check_int("n_shared_patterns", self.n_shared_patterns, 0, n_patterns)


_END_ANCHOR = Date(2024, 6, 30)
_ORIGIN_POOL = (
    "AU", "BR", "CN", "DE", "ES", "FR", "GB", "IN", "IT", "JP", "KR", "US",
)


@dataclass(frozen=True)
class _Pattern:
    hs6_bucket: tuple[int, ...]  # indices into the world's HS6 codes
    origins: tuple[int, ...]  # indices into _ORIGIN_POOL
    log_gap: float  # mean log undervaluation of declared vs true value


def _world_tables(cfg: SyntheticWorldConfig, rng: np.random.Generator):
    # the draw of rng.choice over np.arange(100000, 100000 + _N_HS6_CODES),
    # without the 7 MB array
    codes = 100000 + rng.choice(_N_HS6_CODES, size=cfg.n_hs6, replace=False)
    hs6_codes = tuple(str(c) for c in codes)
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
            _Pattern(tuple(sorted(bucket.tolist())), tuple(sorted(origins.tolist())), gap)
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
    first_day = _END_ANCHOR.toordinal() - (spec.duration_days - 1)

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

    # a fraud draws its code and origin from its pattern, in record order
    for i in np.flatnonzero(fraud).tolist():
        pat = patterns[pattern_of[i]]
        hs6_idx[i] = pat.hs6_bucket[int(rng.integers(0, len(pat.hs6_bucket)))]
        origin_idx[i] = pat.origins[int(rng.integers(0, len(pat.origins)))]

    # one record's arithmetic, done elementwise in the same order
    gross = quantity * unit_weight[hs6_idx] * weight_noise
    true_value = gross * map_column(math.exp, log_ppk[hs6_idx] + price_shift + value_noise)
    log_gap = np.array([p.log_gap for p in patterns])
    gap = np.where(fraud, -log_gap[pattern_of] * gap_jitter, honest_noise)
    declared = true_value * map_column(math.exp, gap)
    rate = tariff[hs6_idx]
    columns = {
        "ids": np.arange(n),
        "days": first_day + days,
        "quantity": quantity,
        "gross_weight": gross,
        "hs6": hs6_idx,
        "country_code": origin_idx,
        "cif_value": declared,
        "total_taxes": rate * declared,
        "illicit": fraud,
        "revenue": np.where(fraud, rate * (true_value - declared), 0.0),
    }
    return CountryDataset.build(spec.country_id, Records(columns, hs6_codes, _ORIGIN_POOL))


def generate_world(cfg: SyntheticWorldConfig) -> dict[str, CountryDataset]:
    """Deterministically generate one dataset per configured country."""
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

    def __post_init__(self) -> None:
        windows = (self.test_window_days, self.valid_window_days)
        if not all(type(w) is int and w >= 1 for w in windows):
            raise DataError(f"split windows must be integers of at least 1 day, got {self}")


def split(ds: CountryDataset, spec: SplitSpec) -> dict[str, CountryDataset]:
    """Chronological partition into train, valid and test windows; each part
    is a slice of `ds` and shares its columns."""
    days = ds.records.days
    if not len(days):
        raise DataError(f"{ds.country_id}: cannot split an empty dataset")
    first, last = int(days[0]), int(days[-1])
    span = last - first + 1
    if span <= spec.test_window_days + spec.valid_window_days:
        raise DataError(
            f"{ds.country_id}: spans {span} days, needs more than "
            f"{spec.test_window_days + spec.valid_window_days}"
        )
    test_start = last - (spec.test_window_days - 1)
    valid_start = test_start - spec.valid_window_days
    a, b = np.searchsorted(days, np.array((valid_start, test_start), days.dtype))
    return {
        "train": ds.subset(slice(0, a)),
        "valid": ds.subset(slice(a, b)),
        "test": ds.subset(slice(b, None)),
    }


def mask_labels(ds: CountryDataset, fraction: float, seed: int) -> CountryDataset:
    """Keep labels on exactly round(fraction * n) records, hide the rest.

    Selection is class-stratified (proportional, at least one record per
    present class when the budget allows) so tiny label budgets still carry
    both classes. Ground truth stays in `sealed` for evaluation; the result
    shares it, and every column but the visible labels, with `ds`.
    """
    if not 0 < fraction <= 1:
        raise DataError(f"label fraction {fraction} out of (0, 1]")
    n = len(ds.records)
    budget = round(fraction * n)
    if fraction == 1.0:
        return ds
    labels = ds.records.illicit
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    n_labeled = len(pos) + len(neg)
    budget = min(budget, n_labeled)
    # feasible range for the positive quota given class availability
    lo = max(0, budget - len(neg))
    hi = min(len(pos), budget)
    share = len(pos) / n_labeled if n_labeled else 0.0
    keep_pos = min(max(round(budget * share), lo), hi)
    if budget >= 2 and len(pos) and len(neg):
        keep_pos = min(max(keep_pos, 1), budget - 1)
    keep_neg = budget - keep_pos
    rng = np.random.default_rng(seed)
    visible = np.full(n, -1, dtype=np.int8)
    for pool, quota in ((pos, keep_pos), (neg, keep_neg)):
        if quota > 0:
            chosen = pool[rng.permutation(len(pool))[:quota]]
            visible[chosen] = labels[chosen]
    return replace(ds, records=ds.records.relabeled(visible))
