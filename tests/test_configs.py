"""Every config dataclass checks all of its fields when it is constructed.

One case per bound: each must raise DataError both when the config is built
from its fields and when a valid config is changed with `dataclasses.replace`.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from protobank.adapt import FinetuneConfig
from protobank.declarations import CountrySpec, SyntheticWorldConfig
from protobank.errors import DataError
from protobank.evaluation import ScenarioConfig
from protobank.pretrain import PretrainConfig

NAN, INF = float("nan"), float("inf")
SRC = Path(__file__).resolve().parents[1] / "src" / "protobank"

VALID = {
    "pretrain": PretrainConfig(),
    "finetune": FinetuneConfig(),
    "scenario": ScenarioConfig("proto_single", "A", ("B",)),
    "world": SyntheticWorldConfig(0, (CountrySpec("AA", 1000, 100, 0.05, (0,)),)),
}


def _countries(**change):
    return (dataclasses.replace(VALID["world"].countries[0], **change),)


# (config, field, bad value, text the error names)
CASES = [
    ("pretrain", "tau", NAN, "tau"),
    ("pretrain", "tau", 0.001, "tau"),
    ("pretrain", "epochs", 1.5, "epochs"),
    ("pretrain", "epochs", -1, "epochs"),
    ("pretrain", "batch_size", NAN, "batch_size"),
    ("pretrain", "batch_size", 32.0, "batch_size"),
    ("pretrain", "batch_size", 1, "batch_size"),
    ("pretrain", "learning_rate", NAN, "learning_rate"),
    ("pretrain", "weight_decay", -0.01, "weight_decay"),
    ("pretrain", "scl_weight", NAN, "scl_weight"),
    ("pretrain", "scl_weight", INF, "scl_weight"),
    ("pretrain", "scl_weight", -0.5, "scl_weight"),
    ("pretrain", "seed", -1, "seed"),
    ("pretrain", "seed", 0.0, "seed"),
    ("pretrain", "encoder", None, "encoder"),
    ("finetune", "epochs", 1.5, "epochs"),
    ("finetune", "epochs", True, "epochs"),
    ("finetune", "batch_size", NAN, "batch_size"),
    ("finetune", "batch_size", 0, "batch_size"),
    ("finetune", "learning_rate", INF, "learning_rate"),
    ("finetune", "weight_decay", NAN, "weight_decay"),
    ("finetune", "seed", -1, "seed"),
    ("finetune", "init_from_source", 1, "init_from_source"),
    ("finetune", "use_memory", "yes", "use_memory"),
    ("finetune", "use_calibration", None, "use_calibration"),
    ("finetune", "encoder", {"k": 4}, "encoder"),
    ("scenario", "kind", "bogus", "kind"),
    ("scenario", "seeds", (), "seeds"),
    ("scenario", "seeds", [0], "seeds"),
    ("scenario", "seeds", (-1,), "seeds"),
    ("scenario", "seeds", (0, 1.5), "seeds"),
    ("scenario", "per_class", 0, "per_class"),
    ("scenario", "per_class", 1.5, "per_class"),
    ("scenario", "label_fraction", NAN, "label_fraction"),
    ("scenario", "inspection_rate", 0.0, "inspection_rate"),
    ("scenario", "source_ids", ("B", "C"), "exactly one source"),
    ("scenario", "variant", "scl", "variant"),
    ("world", "seed", -1, "seed"),
    ("world", "seed", 1.5, "seed"),
    ("world", "countries", (), "at least one country"),
    ("world", "countries", _countries() * 2, "duplicate"),
    ("world", "countries", _countries(country_id=""), "country id"),
    ("world", "countries", _countries(country_id="a/b"), "country id"),
    ("world", "countries", _countries(country_id="AA\n"), "country id"),
    ("world", "countries", _countries(n_records=999), "n_records"),
    ("world", "countries", _countries(n_records=1000.0), "n_records"),
    ("world", "countries", _countries(base_illicit_rate=NAN), "base_illicit_rate"),
    ("world", "countries", _countries(duration_days=59), "duration_days"),
    ("world", "countries", _countries(duration_days=739_068), "duration_days"),
    ("world", "countries", _countries(duration_days=100.0), "duration_days"),
    ("world", "countries", _countries(fraud_pattern_ids=()), "fraud pattern"),
    ("world", "countries", _countries(fraud_pattern_ids=(1000,)), "fraud pattern"),
    ("world", "countries", _countries(fraud_pattern_ids=(0.0,)), "fraud pattern"),
    ("world", "n_hs6", 9, "n_hs6"),
    ("world", "n_hs6", 20.0, "n_hs6"),
    ("world", "n_shared_patterns", 2, "n_shared_patterns"),
    ("world", "pattern_strength", NAN, "pattern_strength"),
]


@pytest.mark.parametrize(
    "config, field, value, names", CASES, ids=[f"{c}-{f}-{v!r}" for c, f, v, _ in CASES]
)
def test_out_of_range_field_rejected(config, field, value, names):
    valid = VALID[config]
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(DataError, match=names):
        type(valid)(**{**fields, field: value})
    with pytest.raises(DataError, match=names):
        dataclasses.replace(valid, **{field: value})


@pytest.mark.parametrize(
    "config, change",
    [
        ("pretrain", {"epochs": 0, "batch_size": 2, "seed": 0}),
        ("pretrain", {"scl_weight": 0.0, "tau": 0.01}),
        ("finetune", {"batch_size": 1, "init_from_source": True, "use_memory": False}),
        ("scenario", {"seeds": (0, 2**40), "per_class": 1, "label_fraction": 1.0}),
        ("world", {"seed": 2**70, "n_shared_patterns": 1}),
    ],
)
def test_boundary_values_accepted(config, change):
    cfg = dataclasses.replace(VALID[config], **change)
    assert all(getattr(cfg, k) == v for k, v in change.items())


def _config_dataclasses():
    """(file name, class node) of every `*Config`/`*Spec` dataclass in src/protobank."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))):
                continue
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                yield path.name, node


def test_configs_have_no_validate_method():
    # checks live in __post_init__, so no config can exist unchecked
    classes = list(_config_dataclasses())
    assert {"PretrainConfig", "FinetuneConfig", "ScenarioConfig", "SyntheticWorldConfig",
            "EncoderConfig", "SplitSpec", "CountrySpec"} <= {node.name for _, node in classes}
    offenders = [
        f"{name}: {node.name}.{item.name}"
        for name, node in classes
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "validate"
    ]
    assert not offenders, offenders
