"""Every protobank name and curve key the benchmark uses must exist.

`perfbench/spans.py` names the functions it wraps as (module, attribute)
pairs and reads training-curve keys in its work counters, and
`perfbench/workloads.py` imports protobank names directly; a deleted or
renamed name or key would fail the benchmark run instead of the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    traced = _spans().TRACED
    missing = []
    for span, (mod_name, attr, _) in traced.items():
        owner = importlib.import_module(f"protobank.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = cls is not None and callable(vars(cls).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{span} -> protobank.{mod_name}.{attr}")
    assert not missing, missing


def test_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as run.py imports it
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"transfer", "score_bulk", "export", "exchange"}


def test_curve_hooks_read_training_curves():
    from protobank.adapt import FinetuneConfig, finetune
    from protobank.declarations import SplitSpec, split
    from protobank.encoder import EncoderConfig
    from protobank.pretrain import PretrainConfig, pretrain
    from tests.test_pretrain import separable_dataset

    spans = _spans()
    parts = split(separable_dataset(), SplitSpec(15, 10))
    enc = EncoderConfig(k=4, d=8, n_kernels=2)
    pre = pretrain(parts["train"], parts["valid"], PretrainConfig(epochs=1, encoder=enc))
    ft = finetune(parts["train"], parts["valid"], None, None, FinetuneConfig(epochs=1, encoder=enc))
    assert spans._pretrain_epochs((), {}, pre, None) == {"best_epoch_share": 1.0}
    assert spans._finetune_epochs((), {}, ft, None) == {"best_epoch_share": 1.0}
