import os
import tempfile
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protobank.declarations import (
    CountryDataset,
    CountrySpec,
    ImportDeclaration,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    load_csv,
    mask_labels,
    split,
    write_csv,
)
from protobank.errors import DataError, SchemaError


_CSV_HEADER = b"id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,illicit,revenue\n"


def make_record(i, day=0, illicit=False, revenue=0.0, hs6="100001", cc="US"):
    return ImportDeclaration(
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
    return CountryDataset.build("XX", records)


class TestImportDeclaration:
    def test_bad_hs6_rejected(self):
        with pytest.raises(SchemaError):
            make_record(0, hs6="12AB56").validate()

    def test_revenue_on_nonfraud_rejected(self):
        with pytest.raises(SchemaError):
            make_record(0, illicit=False, revenue=5.0).validate()

    def test_revenue_without_label_rejected(self):
        rec = ImportDeclaration(
            id=0, date=date(2024, 1, 1), quantity=1.0, gross_weight=1.0, hs6="100001",
            country_code="US", cif_value=1.0, total_taxes=0.0, illicit=None, revenue=3.0,
        )
        with pytest.raises(SchemaError):
            rec.validate()

    def test_nonpositive_quantity_rejected(self):
        rec = ImportDeclaration(
            id=0, date=date(2024, 1, 1), quantity=0.0, gross_weight=1.0, hs6="100001",
            country_code="US", cif_value=1.0, total_taxes=0.0,
        )
        with pytest.raises(SchemaError):
            rec.validate()


class TestDatasetBuild:
    def test_sorted_and_vocab(self):
        records = [make_record(2, day=5), make_record(0, day=1), make_record(1, day=1, hs6="200002")]
        ds = CountryDataset.build("XX", records)
        assert [r.id for r in ds.records] == [0, 1, 2]
        assert set(ds.hs6_vocab) == {"100001", "200002"}
        assert all(r.hs6 in ds.hs6_vocab for r in ds.records)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError):
            CountryDataset.build("XX", [make_record(1), make_record(1, day=3)])


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(7)
        path = tmp_path / "xx.csv"
        write_csv(ds, path)
        again = load_csv(path, country_id="XX")
        assert again.records == ds.records
        assert again.sealed == ds.sealed

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
        assert ds.records[1].illicit is None

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


class TestSplit:
    def _spread(self, n_days):
        return CountryDataset.build(
            "XX", [make_record(i, day=i % n_days) for i in range(n_days * 3)]
        )

    def test_window_arithmetic(self):
        ds = self._spread(100)
        parts = split(ds, SplitSpec(30, 14))
        last = ds.records[-1].date
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

    def test_too_short_errors(self):
        ds = self._spread(10)
        with pytest.raises(DataError):
            split(ds, SplitSpec(30, 14))

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
    """Small valid world configs, half of them with one value out of range."""
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
    return SyntheticWorldConfig(countries=tuple(specs), **top)


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
            SyntheticWorldConfig(
                seed=1, countries=(CountrySpec("AA", 10, 120, 0.05, (0,)),)
            ).validate()
        with pytest.raises(DataError):
            SyntheticWorldConfig(
                seed=1, countries=(CountrySpec("AA", 2000, 120, 0.7, (0,)),)
            ).validate()

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
        cfg = SyntheticWorldConfig(
            top["seed"], (CountrySpec("AA", 1000, base_illicit_rate=0.05, **spec),),
            n_hs6=top["n_hs6"], n_shared_patterns=0,
        )
        with pytest.raises(DataError):
            generate_world(cfg)

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
        assert world["AA"].records[0].date >= date(1, 1, 1)
        assert len(world["BB"].records) == 1000

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(world_configs())
    def test_bounded_configs_generate_or_raise_data_error(self, cfg):
        try:
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
