import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protobank import declarations
from protobank.declarations import (
    CSV_COLUMNS,
    CountryDataset,
    CountrySpec,
    Records,
    Row,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    load_csv,
    mask_labels,
    split,
    write_csv,
)
from protobank.errors import DataError, SchemaError
from tests import csv_oracle
from tests.records_edge import records_of


_CSV_HEADER = b"id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"


def make_record(i, day=0, illicit=False, revenue=0.0, hs6="100001", cc="US"):
    return Row(
        id=i,
        date=date(2024, 1, 1) + timedelta(days=day),
        quantity=10.0 + i,
        gross_weight=5.0,
        hs6=hs6,
        country_code=cc,
        cif_value=100.0 + i,
        total_taxes=12.0,
        illicit=illicit,
        revenue=revenue,
    )


def make_dataset(n=10, n_days=10, fraud_every=3):
    records = [
        make_record(i, day=i % n_days, illicit=(i % fraud_every == 0), revenue=5.0 if i % fraud_every == 0 else 0.0)
        for i in range(n)
    ]
    return CountryDataset.build("XX", records_of(records))


def _count_record_checks(monkeypatch) -> list:
    """A list that gains the row count of each Records the record rules run on."""
    calls = []
    faults = declarations._record_faults

    def counted(records):
        calls.append(len(records))
        return faults(records)

    monkeypatch.setattr(declarations, "_record_faults", counted)
    return calls


class TestImportDeclaration:
    """The record rules, run on rows built by tests/records_edge.py."""

    def test_bad_hs6_rejected(self):
        with pytest.raises(SchemaError):
            records_of([make_record(0, hs6="12AB56")])

    def test_revenue_on_nonfraud_rejected(self):
        with pytest.raises(SchemaError):
            records_of([make_record(0, illicit=False, revenue=5.0)])

    def test_nonpositive_quantity_rejected(self):
        with pytest.raises(SchemaError):
            records_of([Row(
                id=0, date=date(2024, 1, 1), quantity=0.0, gross_weight=1.0, hs6="100001",
                country_code="US", cif_value=1.0, total_taxes=0.0, illicit=None, revenue=None,
            )])

    @pytest.mark.parametrize(
        "cif, weight",
        [(1e300, 1e-300), (1e101, 1.0), (1e100, 0.5)],  # inf, then finite over the bound
    )
    def test_price_per_kg_over_bound_rejected(self, cif, weight):
        with pytest.raises(SchemaError, match="record 7: price_per_kg"):
            records_of([make_record(7)._replace(cif_value=cif, gross_weight=weight)])

    def test_price_per_kg_at_bound_accepted(self):
        rec = records_of([make_record(0)._replace(cif_value=1e100, gross_weight=1.0)])
        assert rec.cif_value[0] / rec.gross_weight[0] == 1e100

    def test_int64_bounds_and_numpy_scalars_accepted(self):
        for rid in (2**63 - 1, -(2**63), np.int64(5)):
            assert records_of([make_record(0)._replace(id=rid)]).ids[0] == rid
        change = {"quantity": np.float32(2.0), "total_taxes": 0, "illicit": np.True_}
        rec = records_of([make_record(0)._replace(**change)])
        assert rec.quantity[0] == 2.0


class TestDatasetBuild:
    def test_sorted_by_date_then_id(self):
        records = [make_record(2, day=5), make_record(0, day=1), make_record(1, day=1, hs6="200002")]
        ds = CountryDataset.build("XX", records_of(records))
        assert [r.id for r in ds.records] == [0, 1, 2]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError):
            CountryDataset.build("XX", records_of([make_record(1), make_record(1, day=3)]))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({}, None),
            ({"quantity": ["-5"]}, "quantity must be positive, got -5.0"),
            ({"hs6_pool": ("12AB56",)}, "hs6 '12AB56' is not 6 digits"),
            ({"country_pool": ("U1",)}, "country_code 'U1' is not 2 letters"),
            ({"illicit": [-1], "revenue": [3.0]}, "revenue given for unlabeled row"),
            ({"illicit": [2]}, "illicit must be 0, 1, or empty"),
            (
                {"quantity": ["-5"], "hs6_pool": ("12AB56",), "country_pool": ("U1",),
                 "illicit": [-1], "revenue": [3.0]},
                "hs6 '12AB56' is not 6 digits",
            ),
        ],
        ids=["clean", "quantity", "hs6", "country", "hidden-revenue", "label", "all-at-once"],
    )
    def test_build_runs_the_record_rules(self, change, message):
        # one row through the public Records constructor, which checks nothing
        columns = {"ids": [0], "days": [date(2024, 1, 1).toordinal()], "quantity": ["1.5"],
                   "gross_weight": [2.0], "hs6": [0], "country_code": [0], "cif_value": [10.0],
                   "total_taxes": [1.0], "illicit": [0], "revenue": [0.0]}
        pools = {"hs6_pool": ("100001",), "country_pool": ("US",)}
        for key, value in change.items():
            (pools if key.endswith("_pool") else columns)[key] = value
        records = Records(columns, **pools)
        if message is None:
            assert len(CountryDataset.build("XX", records)) == 1
            return
        with pytest.raises(SchemaError, match=f"^record 0: {re.escape(message)}$"):
            CountryDataset.build("XX", records)

    def test_split_runs_no_record_checks(self, monkeypatch):
        ds = make_dataset(60, n_days=60)
        rows = records_of([make_record(i) for i in range(3)])
        calls = _count_record_checks(monkeypatch)
        parts = split(ds, SplitSpec(test_window_days=10, valid_window_days=10))
        train = parts["train"]
        train.subset(train.records.ids % 2 == 0).subset(slice(1, None))
        mask_labels(train, 0.5, 0)
        assert sum(len(p) for p in parts.values()) == len(ds)
        assert calls == []
        CountryDataset.build("XX", rows)  # the count sees the rules when they do run
        assert calls == [3]


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(7)
        path = tmp_path / "xx.csv"
        write_csv(ds, path)
        again = load_csv(path, country_id="XX")
        assert again.records == ds.records
        assert again.sealed == ds.sealed

    def test_load_runs_the_record_rules_once(self, tmp_path, monkeypatch):
        path = tmp_path / "xx.csv"
        write_csv(make_dataset(2500), path)  # three parse blocks
        calls = _count_record_checks(monkeypatch)
        assert len(load_csv(path, country_id="XX")) == 2500
        assert calls == [2500]

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"
            "2,2024-01-03,1.0,2.0,100001,US,10.0,1.0,0,0\n"
            "0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,1,5.0\n"
            "1,2024-01-02,1.0,2.0,100001,DE,10.0,1.0,,\n"
        )
        ds = load_csv(path, country_id="T")
        assert len(ds) == 3
        assert [r.id for r in ds.records] == [0, 1, 2]
        assert list(ds.records)[1].illicit is None
        with pytest.raises(TypeError):
            ds.records[1]  # Records are read by column, not by row index

    def test_bad_hs6_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"
            "0,2024-01-01,1.0,2.0,12AB56,US,10.0,1.0,0,0\n"
        )
        with pytest.raises(SchemaError, match="line 2"):
            load_csv(path)

    def test_inconsistent_revenue_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"
            "0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,5.0\n"
        )
        with pytest.raises(SchemaError, match="line 2"):
            load_csv(path)

    def test_header_missing_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "rec,date,qty,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"
            "0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0\n"
        )
        with pytest.raises(SchemaError, match=r"missing columns \['id', 'quantity'\]"):
            load_csv(path, country_id="T")

    @pytest.mark.parametrize(
        "third_line, message",
        [
            (b"1,2024-01-02,1.0", "fewer fields"),
            (b'1,2024-01-02,1.0,2.0,"' + b"9" * 140_000 + b'",US,10.0,1.0,0,0', "field limit"),
            (b"1,2024-01-02,1.0,2.0,100\xff01,US,10.0,1.0,0,0", "not UTF-8"),
        ],
        ids=["short", "long-field", "not-utf8"],
    )
    def test_unreadable_row_names_its_line(self, tmp_path, third_line, message):
        path = tmp_path / "t.csv"
        path.write_bytes(_CSV_HEADER + b"0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0\n"
                         + third_line + b"\n4,2024-01-04,1.0,2.0,100001,US,10.0,1.0,0,0\n")
        with pytest.raises(SchemaError, match=f"line 3: .*{message}"):
            load_csv(path)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=60),
                st.lists(st.sampled_from(["0", "1", "", "2024-01-01", "100001", "US", "1e999",
                                          "nan", "-1", '"', "\n", "\r", "x,y", "\xe9"]),
                         max_size=12).map(lambda f: ",".join(f).encode("utf-8")),
                st.just(b"0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0"),
            ),
            max_size=5,
        ),
    )
    def test_any_body_loads_or_raises_a_data_error(self, lines):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "t.csv")
            with open(path, "wb") as fh:
                fh.write(_CSV_HEADER + b"\n".join(lines))
            try:
                ds = load_csv(path)
            except DataError:  # SchemaError included
                return
            assert isinstance(ds, CountryDataset)


_CODES = [("100001", "US"), ("200002", "DE"), ("100001", "CN"), ("300003", "US")]
_ROWS = [make_record(i, day=i, illicit=i == 2, revenue=4.0 * (i == 2), hs6=h, cc=c)
         for i, (h, c) in enumerate(_CODES)]


@pytest.mark.parametrize(
    "other, equal",
    [
        (lambda rows: records_of(rows), True),
        (lambda rows: records_of(rows[::-1])[::-1], True),  # pools in another order
        (lambda rows: records_of(rows[:3]), False),
        (lambda rows: records_of([*rows[:3], rows[3]._replace(hs6="300004")]), False),
        (lambda rows: records_of([rows[0]._replace(illicit=None), *rows[1:]]), False),
    ],
    ids=["same", "reordered-pools", "shorter", "one-hs6", "hidden-label"],
)
def test_records_compare_by_value(other, equal):
    records = records_of(_ROWS)
    assert (records == other(_ROWS)) is equal
    assert (other(_ROWS) == records) is equal


_HS6S = ("100001", "200002", "345678", "999999")
_CCS = ("US", "de", "Cn")


@st.composite
def csv_rows(draw):
    """Cells of 0-8 valid declaration rows with distinct ids, in varied spellings."""
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n, unique=True))
    spaced = st.sampled_from(("{}", " {}", "{} "))
    positive = st.floats(1e-3, 1e6)

    def number(value):
        return draw(st.sampled_from(("{!r}", "{:.6e}", " {!r}"))).format(value)

    rows = []
    for rid in ids:
        label = draw(st.sampled_from(("", "0", "1")))
        if label == "1":
            revenue = number(draw(st.floats(0.0, 1e5)))
        else:
            revenue = draw(st.sampled_from(("", "0", "0.0")))
        rows.append([
            draw(st.sampled_from(("{}", " {}", "+{}"))).format(rid) if rid >= 0 else str(rid),
            draw(spaced).format(draw(st.dates(date(2020, 1, 1), date(2024, 12, 31))).isoformat()),
            number(draw(positive)),
            number(draw(positive)),
            draw(spaced).format(draw(st.sampled_from(_HS6S))),
            draw(spaced).format(draw(st.sampled_from(_CCS))),
            number(draw(positive)),
            number(draw(st.floats(0.0, 1e6))),
            draw(spaced).format(label),
            revenue,
        ])
    return rows


# (column, bad cell) pairs, one per rule and parse step; "illicit" pairs set
# both label cells
_FAULTS = [
    ("hs6", "12AB56"),
    ("country_code", "U1"),
    ("quantity", "0"),
    ("quantity", "nan"),
    ("gross_weight", "-1.5"),
    ("cif_value", "inf"),
    ("cif_value", "1e300"),  # price_per_kg over its bound
    ("total_taxes", "-0.5"),
    ("illicit", ("2", "")),
    ("illicit", ("1", "-3")),  # negative revenue
    ("illicit", ("0", "5.0")),  # revenue on a non-fraud
    ("illicit", ("", "3")),  # revenue on an unlabeled row
    ("illicit", ("1", "x")),
    ("date", "2024-13-01"),
    ("date", "yesterday"),
    ("id", "1.5"),
    ("id", "x"),
    ("quantity", "abc"),
    ("total_taxes", ""),
    ("short", None),
    ("utf8", None),
]


def _csv_bytes(rows) -> bytes:
    """The CSV of `rows`; a lone surrogate in a cell becomes its byte, which is not UTF-8."""
    lines = (",".join(r).encode("utf-8", "surrogateescape") + b"\n" for r in rows)
    return _CSV_HEADER + b"".join(lines)


def _outcome(load, path):
    try:
        return load(path), None
    except SchemaError as e:
        return None, str(e)


class TestCsvOracle:
    """The columnar load_csv against the row-at-a-time reader of tests/csv_oracle.py."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(csv_rows())
    def test_valid_rows_match_the_oracle(self, rows):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "t.csv")
            with open(path, "wb") as fh:
                fh.write(_csv_bytes(rows))
            want = csv_oracle.load_rows(path)
            got = list(load_csv(path).records)
        assert got == want
        for a, b in zip(got, want):
            assert [type(v) for v in a] == [type(v) for v in b]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(csv_rows().filter(bool), st.sampled_from(_FAULTS), st.data())
    def test_one_faulty_cell_gives_the_oracles_error(self, rows, fault, data):
        body = [list(r) for r in rows]
        i = data.draw(st.integers(0, len(rows) - 1))
        _same_error_as_oracle(_csv_bytes(_spoil(body, i, fault, data)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(csv_rows().filter(bool), st.lists(st.sampled_from(_FAULTS), min_size=2, max_size=2),
           st.data())
    def test_first_of_two_faults_is_the_oracles(self, rows, faults, data):
        # two faults in one row show the check order, in two rows the row order
        body = [list(r) for r in rows]
        for fault in faults:
            body = _spoil(body, data.draw(st.integers(0, len(rows) - 1)), fault, data)
        _same_error_as_oracle(_csv_bytes(body))

    @pytest.mark.parametrize(
        "faults",
        [
            [(2500, ("hs6", "12AB56"))],
            [(1100, ("short", None)), (1050, ("date", "2024-02-30"))],
            [(2900, ("utf8", None)), (100, ("quantity", "-2"))],
            [(3000, ("utf8", None)), (1500, ("id", "x"))],
            # text is decoded in chunks: a bad byte in the chunk of an earlier
            # faulty row is met before that row is parsed
            [(110, ("utf8", None)), (100, ("quantity", "-2"))],
        ],
        ids=["rule", "parse-before-short", "rule-before-utf8", "parse-before-utf8", "utf8-first"],
    )
    def test_faults_past_the_first_block_match_the_oracle(self, faults):
        # a quoted note spans two lines on every 7th row, so lines are not rows
        body = [[str(k), f"2024-01-{1 + k % 28:02d}", "1.0", "2.0", "100001", "US", "10.0", "1.0",
                 "0", "0", '"a\nb"' if k % 7 == 0 else "c"] for k in range(3200)]
        for row, fault in faults:
            body = _spoil(body, row, fault, None)
        header = _CSV_HEADER.rstrip(b"\n") + b",note\n"
        _same_error_as_oracle(header + _csv_bytes(body)[len(_CSV_HEADER):])

    def test_rows_may_leave_off_a_trailing_extra_cell(self, tmp_path):
        header = _CSV_HEADER.rstrip(b"\n") + b",note\n"
        body = [[str(k), "2024-01-01", "1.0", "2.0", "100001", "US", "10.0", "1.0", "0", "0", "n"]
                for k in range(3)]
        body[1] = body[1][:10]
        path = tmp_path / "t.csv"
        path.write_bytes(header + _csv_bytes(body)[len(_CSV_HEADER):])
        assert list(load_csv(path).records) == csv_oracle.load_rows(path)
        _same_error_as_oracle(header + _csv_bytes(_spoil(body, 2, ("hs6", "12AB56"), None))[len(_CSV_HEADER):])

    def test_id_beyond_int64_is_malformed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(_CSV_HEADER + b"99999999999999999999,2024-01-01,1,2,100001,US,10,1,0,0\n")
        assert csv_oracle.load_rows(path)[0][0] == 99999999999999999999  # the oracle read it
        with pytest.raises(SchemaError, match=r"line 2: malformed row \(Python int too large"):
            load_csv(path)


def _spoil(body: list, i: int, fault, data) -> list:
    """`body` with row `i` made faulty; "short" rows lose fields, "utf8" rows a byte."""
    column, cell = fault
    if column == "short":
        body[i] = body[i][: data.draw(st.integers(1, 9)) if data else 5]
    elif column == "utf8":
        body[i][1] = "\udcff" + body[i][1]  # written as the lone byte 0xff
    elif column == "illicit":
        body[i][8], body[i][9] = cell
    else:
        body[i][CSV_COLUMNS.index(column)] = cell
    return body


def _same_error_as_oracle(raw: bytes) -> None:
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "t.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        want = _outcome(csv_oracle.load_rows, path)
        got = _outcome(load_csv, path)
    assert want[1] is not None and got[1] == want[1]


class TestCsvStrictness:
    def _load(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return path

    def test_long_row_names_its_line(self, tmp_path):
        path = self._load(tmp_path, _CSV_HEADER.decode() + "0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0\n"
                          "1,2024-01-02,1.0,2.0,100001,US,10.0,1.0,0,0,7\n")
        with pytest.raises(SchemaError, match="line 3: more fields than the header"):
            load_csv(path)

    def test_repeated_header_column_rejected(self, tmp_path):
        header = _CSV_HEADER.decode().strip() + ",quantity\n"
        path = self._load(tmp_path, header + "0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0,5.0\n")
        with pytest.raises(SchemaError, match="header names column 'quantity' more than once"):
            load_csv(path)

    def test_duplicate_ids_name_the_first_repeat(self, tmp_path):
        rows = [(4, 3), (7, 1), (4, 2), (7, 5)]  # (id, day): id 4 repeats first in file order
        body = "".join(f"{i},2024-01-0{d},1.0,2.0,100001,US,10.0,1.0,0,0\n" for i, d in rows)
        path = self._load(tmp_path, _CSV_HEADER.decode() + body)
        with pytest.raises(SchemaError, match=r"duplicate record ids \(4 repeats\)"):
            load_csv(path, country_id="T")

    @pytest.mark.parametrize(
        "extra_header, message",
        [("", "line 2: more fields than the header"), (",id", "column 'id' more than once")],
        ids=["long-row", "repeated-column"],
    )
    def test_cli_exits_2(self, tmp_path, extra_header, message, capsys):
        from protobank.cli import main

        header = _CSV_HEADER.decode().strip() + extra_header
        path = self._load(tmp_path, f"{header}\n0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0,7\n")
        assert main(["pretrain", "--data", str(path), "--out", str(tmp_path / "m.pbm")]) == 2
        assert message in capsys.readouterr().err


class TestSplit:
    def _spread(self, n_days):
        return CountryDataset.build(
            "XX", records_of(make_record(i, day=i % n_days) for i in range(n_days * 3))
        )

    def test_window_arithmetic(self):
        ds = self._spread(100)
        parts = split(ds, SplitSpec(30, 14))
        last = list(ds.records)[-1].date
        test_start = last - timedelta(days=29)
        valid_start = test_start - timedelta(days=14)
        assert all(r.date >= test_start for r in parts["test"].records)
        assert all(valid_start <= r.date < test_start for r in parts["valid"].records)
        assert all(r.date < valid_start for r in parts["train"].records)

    def test_partition_exact(self):
        ds = self._spread(80)
        parts = split(ds, SplitSpec(30, 14))
        ids = [r.id for p in parts.values() for r in p.records]
        assert sorted(ids) == sorted(r.id for r in ds.records)
        assert len(set(ids)) == len(ids)  # pairwise disjoint
        assert len(parts["train"]) + len(parts["valid"]) + len(parts["test"]) == len(ds)

    def test_subset_takes_only_order_keeping_selections(self):
        ds = self._spread(10)
        for keep in (np.array([5, 0, 0]), np.array([0, 1]), [True] * len(ds),
                     np.ones(len(ds) - 1, dtype=bool), slice(None, None, -1)):
            with pytest.raises(ValueError):
                ds.subset(keep)
        every_other = ds.subset(slice(None, None, 2))
        assert [r.id for r in every_other.records] == [r.id for r in ds.records][::2]

    def test_too_short_errors(self):
        ds = self._spread(10)
        with pytest.raises(DataError):
            split(ds, SplitSpec(30, 14))

    @pytest.mark.parametrize(
        "windows", [(0, 14), (30, 0), (-5, 14), (30, -1), (float("nan"), 14), (30, 14.0)]
    )
    def test_windows_below_one_day_rejected(self, windows):
        with pytest.raises(DataError, match="at least 1 day"):
            SplitSpec(*windows)

    def test_one_day_windows_accepted(self):
        parts = split(self._spread(10), SplitSpec(1, 1))
        assert len(parts["test"]) > 0 and len(parts["valid"]) > 0

    def test_unmasked_parts_hold_one_tuple(self):
        for part in split(self._spread(90), SplitSpec()).values():
            assert part.sealed is part.records

    def test_deterministic(self):
        ds = self._spread(90)
        a = split(ds, SplitSpec())
        b = split(ds, SplitSpec())
        assert all(a[k].records == b[k].records for k in a)


class TestMaskLabels:
    def test_identity_at_full_fraction(self):
        ds = make_dataset(20)
        assert mask_labels(ds, 1.0, 3) is ds

    def test_exact_count(self):
        ds = make_dataset(200, n_days=40)
        masked = mask_labels(ds, 0.01, 0)
        assert len(masked.labeled()) == 2

    def test_deterministic(self):
        ds = make_dataset(50, n_days=20)
        a = mask_labels(ds, 0.2, 7)
        b = mask_labels(ds, 0.2, 7)
        assert a.records == b.records

    def test_features_untouched_sealed_kept(self):
        ds = make_dataset(30, n_days=15)
        masked = mask_labels(ds, 0.1, 5)
        for before, after in zip(ds.records, masked.records):
            assert (before.id, before.date, before.quantity, before.hs6) == (
                after.id, after.date, after.quantity, after.hs6,
            )
        assert masked.sealed == ds.sealed

    def test_shares_sealed(self):
        ds = make_dataset(40, n_days=20)
        masked = mask_labels(ds, 0.1, 2)
        assert masked.sealed is ds.sealed

    def test_hidden_revenue_stays_sealed(self):
        ds = make_dataset(60, n_days=20, fraud_every=3)
        masked = mask_labels(ds, 0.1, 2)
        hidden = masked.records.illicit < 0
        assert (ds.records.revenue[hidden] > 0).any()
        assert not masked.records.revenue[hidden].any()
        assert not mask_labels(masked, 0.5, 3).records.revenue[hidden].any()
        # a subset's truth comes from the sealed columns, not the visible ones
        keep = np.arange(len(ds)) % 2 == 0
        part = masked.subset(keep)
        assert part.sealed == ds.records[keep]
        assert not part.records.revenue[part.records.illicit < 0].any()

    def test_keeps_both_classes_when_budget_allows(self):
        ds = make_dataset(100, n_days=25, fraud_every=10)
        for seed in range(10):
            masked = mask_labels(ds, 0.05, seed)
            kept = masked.labeled()
            assert len(kept) == 5
            assert {r.illicit for r in kept} == {True, False}

    def test_fraction_out_of_range(self):
        with pytest.raises(DataError):
            mask_labels(make_dataset(), 0.0, 1)

    def test_hidden_twins_match_replace_without_record_checks(self, monkeypatch):
        ds = make_dataset(60, n_days=20, fraud_every=4)
        calls = _count_record_checks(monkeypatch)
        masked = mask_labels(ds, 0.2, 3)
        assert calls == []  # the records were checked when they were built
        before, twins = ds.records, masked.records
        hidden = twins.illicit == -1
        assert hidden.sum() == 60 - 12
        assert not twins.revenue[hidden].any()
        assert np.array_equal(twins.illicit[~hidden], before.illicit[~hidden])
        assert np.array_equal(twins.revenue[~hidden], before.revenue[~hidden])
        for name in ("ids", "days", "quantity", "gross_weight", "hs6", "country_code",
                     "cif_value", "total_taxes", "hs6_pool", "country_pool"):
            assert getattr(twins, name) is getattr(before, name), name

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.floats(0.05, 1.0), st.integers(0, 2**31 - 1))
    def test_mask_counts_property(self, fraction, seed):
        ds = make_dataset(40, n_days=12)
        masked = mask_labels(ds, fraction, seed)
        assert len(masked.labeled()) == round(fraction * 40)


# Out-of-range values, at most one of which goes into a drawn config.
_CONFIG_FAULTS = [
    ("seed", -1),
    ("n_hs6", 9),
    ("n_hs6", 900_001),
    ("pattern_strength", 0.0),
    ("n_shared_patterns", 99),
    ("n_records", 999),
    ("duration_days", 59),
    ("duration_days", 739_068),
    ("duration_days", 800_000),
    ("base_illicit_rate", 0.5),
    ("base_illicit_rate", float("nan")),
    ("fraud_pattern_ids", ()),
    ("fraud_pattern_ids", (-1,)),
    ("fraud_pattern_ids", (1000,)),
    ("fraud_pattern_ids", (0, 100_000)),
]


@st.composite
def world_configs(draw):
    """Fields of small valid world configs, half of them with one value out of range."""
    specs = draw(
        st.lists(
            st.builds(
                CountrySpec,
                country_id=st.just(""),
                n_records=st.integers(1000, 1100),
                duration_days=st.one_of(st.integers(60, 400), st.just(739_067)),
                base_illicit_rate=st.floats(0.001, 0.3),
                fraud_pattern_ids=st.lists(
                    st.one_of(st.integers(0, 12), st.just(999)), min_size=1, max_size=4
                ).map(tuple),
            ),
            min_size=1,
            max_size=3,
        )
    )
    specs = [replace(spec, country_id=f"C{i}") for i, spec in enumerate(specs)]
    top = {
        "seed": draw(st.one_of(st.integers(0, 2**32), st.just(2**70))),
        "n_hs6": draw(st.integers(10, 200)),
        "n_shared_patterns": draw(st.integers(0, 1)),
        "pattern_strength": draw(st.floats(0.01, 1.0)),
    }
    fault = draw(st.one_of(st.none(), st.sampled_from(_CONFIG_FAULTS)))
    if fault is not None:
        key, value = fault
        if key in top:
            top[key] = value
        else:
            i = draw(st.integers(0, len(specs) - 1))
            specs[i] = replace(specs[i], **{key: value})
    return tuple(specs), top


def _traced_bytes(make):
    """(result of `make()`, bytes it allocated and still holds)."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def _traced_peak(make) -> int:
    """Peak bytes traced while `make()` runs, above what was held before."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        make()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestRecordMemory:
    # perfbench's score_bulk CSV: 20000 rows over 180 days
    CONFIG = SyntheticWorldConfig(
        seed=11, countries=(CountrySpec("AA", 20000, 180, 0.05, (0,)),), n_shared_patterns=1
    )

    @pytest.fixture(scope="class")
    def generated_and_loaded(self, tmp_path_factory):
        generated = generate_world(self.CONFIG)["AA"]
        path = tmp_path_factory.mktemp("memory") / "aa.csv"
        write_csv(generated, path)
        return generated, path

    def test_load_csv_bytes_per_record(self, generated_and_loaded):
        # columns hold about 62 bytes a row here; records of slotted objects
        # sharing their dates and codes held about 270
        _, path = generated_and_loaded
        ds, held = _traced_bytes(lambda: load_csv(path))
        assert held / len(ds) < 100

    def test_load_csv_peak(self, generated_and_loaded):
        # about 2.9 MiB here, a 1024-row block's strings and the columns;
        # reading records one row at a time peaked at 8.0
        _, path = generated_and_loaded
        assert _traced_peak(lambda: load_csv(path)) < 4.0 * 2**20

    def test_generate_world_peak(self):
        # about 7.0 MiB for 40000 rows; one record object at a time peaked at 15.5
        cfg = SyntheticWorldConfig(
            seed=14, countries=(CountrySpec("SRC", 40000, 240, 0.04, (0, 1)),), n_shared_patterns=2
        )
        assert _traced_peak(lambda: generate_world(cfg)) < 10.0 * 2**20

    def test_mask_labels_bytes_per_twin(self, generated_and_loaded):
        # a masked dataset holds a new label byte and a new revenue (zero
        # where hidden) per row, 9 bytes, and shares the rest
        ds = generated_and_loaded[0]
        masked, held = _traced_bytes(lambda: mask_labels(ds, 0.01, 5))
        hidden = sum(r.illicit is None for r in masked.records)
        assert hidden == len(ds) - 200
        assert held / hidden < 12

    def test_loaded_records_equal_generated(self, generated_and_loaded):
        generated, path = generated_and_loaded
        loaded = load_csv(path).records
        assert loaded.hs6_pool != generated.records.hs6_pool  # first use, not generation order
        assert loaded == generated.records


class TestGenerateWorld:
    CONFIG = SyntheticWorldConfig(
        seed=7,
        countries=(
            CountrySpec("AA", 1500, 120, 0.05, (0,)),
            CountrySpec("BB", 1200, 120, 0.06, (0, 1)),
        ),
        n_hs6=20,
        n_shared_patterns=1,
        pattern_strength=0.8,
    )

    def test_deterministic(self):
        w1 = generate_world(self.CONFIG)
        w2 = generate_world(self.CONFIG)
        for cid in w1:
            assert w1[cid].records == w2[cid].records

    def test_illicit_rate_within_band(self):
        cfg = SyntheticWorldConfig(
            seed=3,
            countries=(CountrySpec("AA", 10000, 150, 0.05, (0,)),),
            n_hs6=20,
            n_shared_patterns=0,
        )
        ds = generate_world(cfg)["AA"]
        rate = np.mean([r.illicit for r in ds.records])
        assert 0.04 <= rate <= 0.06

    def test_labels_consistent_with_revenue(self):
        world = generate_world(self.CONFIG)
        for ds in world.values():
            for r in ds.records:
                assert (r.revenue > 0) == r.illicit

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            SyntheticWorldConfig(seed=1, countries=(CountrySpec("AA", 10, 120, 0.05, (0,)),))
        with pytest.raises(DataError):
            SyntheticWorldConfig(seed=1, countries=(CountrySpec("AA", 2000, 120, 0.7, (0,)),))

    @pytest.mark.parametrize(
        "change",
        [
            {"n_hs6": 900_001},  # more codes than six digits hold
            {"duration_days": 800_000},  # start date before year 1
            {"duration_days": 739_068},
            {"seed": -1},
            {"fraud_pattern_ids": (0, 100_000)},  # one pattern is built per id up to the max
            {"fraud_pattern_ids": (1_000,)},
        ],
    )
    def test_out_of_range_config_rejected(self, change):
        spec = {"duration_days": 100, "fraud_pattern_ids": (0,)}
        top = {"seed": 1, "n_hs6": 20}
        for key, value in change.items():
            (top if key in top else spec)[key] = value
        with pytest.raises(DataError):
            SyntheticWorldConfig(
                top["seed"], (CountrySpec("AA", 1000, base_illicit_rate=0.05, **spec),),
                n_hs6=top["n_hs6"], n_shared_patterns=0,
            )

    def test_largest_accepted_values_generate(self):
        cfg = SyntheticWorldConfig(
            0,
            (
                CountrySpec("AA", 1000, 739_067, 0.05, (999,)),  # starts on 0001-01-01
                CountrySpec("BB", 1000, 60, 0.05, (0,)),
            ),
            n_hs6=900_000,
            n_shared_patterns=0,
        )
        world = generate_world(cfg)
        assert next(iter(world["AA"].records)).date >= date(1, 1, 1)
        assert len(world["BB"].records) == 1000

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(world_configs())
    def test_bounded_configs_generate_or_raise_data_error(self, fields):
        countries, top = fields
        try:
            cfg = SyntheticWorldConfig(countries=countries, **top)
            world = generate_world(cfg)
        except DataError:
            return
        assert sorted(world) == sorted(c.country_id for c in cfg.countries)
        for spec in cfg.countries:
            assert len(world[spec.country_id].records) == spec.n_records

    def test_shared_pattern_transfers_to_probe(self):
        # a plain logistic probe fit on country AA's frauds should push
        # country BB's shared-pattern frauds above BB's non-frauds
        world = generate_world(self.CONFIG)
        probe = _fit_probe(world["AA"])
        scores_fraud, scores_clean = _probe_scores(probe, world["BB"])
        assert scores_fraud.mean() > scores_clean.mean()


def _probe_features(ds):
    feats = []
    for r in ds.records:
        feats.append(
            [
                np.log(r.quantity),
                np.log(r.gross_weight),
                np.log(r.cif_value),
                np.log1p(r.total_taxes),
                np.log(r.cif_value / r.gross_weight),
            ]
        )
    x = np.array(feats)
    hs6 = sorted({r.hs6 for r in ds.records})
    onehot = np.zeros((len(ds.records), len(hs6)))
    lookup = {h: i for i, h in enumerate(hs6)}
    for i, r in enumerate(ds.records):
        onehot[i, lookup[r.hs6]] = 1.0
    return np.hstack([x, onehot]), hs6


def _fit_probe(ds):
    # hand-rolled logistic regression; independent of the package's numerics
    x, hs6 = _probe_features(ds)
    x = np.hstack([x, np.ones((len(x), 1))])
    y = np.array([1.0 if r.illicit else 0.0 for r in ds.records])
    mean, std = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-9)
    xs = (x - mean) / std
    w = np.zeros(xs.shape[1])
    for _ in range(400):
        p = 1 / (1 + np.exp(-(xs @ w)))
        w -= 0.5 * (xs.T @ (p - y)) / len(y)
    return w, mean, std, hs6


def _probe_scores(probe, ds):
    w, mean, std, hs6_train = probe
    x, hs6 = _probe_features(ds)
    # align one-hot columns with the training vocabulary
    aligned = np.zeros((len(x), 5 + len(hs6_train) + 1))
    aligned[:, :5] = x[:, :5]
    lookup = {h: i for i, h in enumerate(hs6)}
    for j, h in enumerate(hs6_train):
        if h in lookup:
            aligned[:, 5 + j] = x[:, 5 + lookup[h]]
    aligned[:, -1] = 1.0
    xs = (aligned - mean) / std
    scores = xs @ w
    y = np.array([r.illicit for r in ds.records])
    return scores[y], scores[~y]
