"""Every protobank name and curve key the benchmark uses must exist.

`perfbench/spans.py` names the functions it wraps as (module, attribute)
pairs and reads training-curve keys in its work counters, and
`perfbench/workloads.py` imports protobank names directly and calls them
with keywords; a deleted or renamed name, key or parameter would fail the
benchmark run instead of the test suite.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _callee(func: ast.expr, names: dict):
    """The protobank object a call's `name` or `name.attr` resolves to, else None."""
    if isinstance(func, ast.Name):
        return names.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        owner = names.get(func.value.id)
        if inspect.ismodule(owner) or inspect.isclass(owner):
            return getattr(owner, func.attr)
    return None


def test_workload_keywords_are_parameters():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    names = {}  # local name -> protobank object, from the module's imports
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "protobank":
            module = importlib.import_module(node.module)
            names.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
    checked, unknown = set(), []
    for node in ast.walk(tree):
        callee = _callee(node.func, names) if isinstance(node, ast.Call) else None
        if callee is None:
            continue
        params = inspect.signature(callee).parameters
        for kw in node.keywords:
            checked.add(f"{ast.unparse(node.func)}({kw.arg}=)")
            if kw.arg not in params:
                unknown.append(f"line {node.lineno}: {ast.unparse(node.func)}({kw.arg}=...)")
    assert not unknown, unknown
    # the calls whose keywords a deletion has reached before
    assert {"FinetuneConfig(use_memory=)", "SyntheticWorldConfig(n_shared_patterns=)"} <= checked


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
