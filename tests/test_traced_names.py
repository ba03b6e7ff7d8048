"""Every protobank name the benchmark uses must exist.

`perfbench/spans.py` names the functions it wraps as (module, attribute)
pairs, and `perfbench/workloads.py` imports protobank names directly; a
deleted or renamed name would fail the benchmark run instead of the test
suite.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
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
