"""Every function the traced benchmark wraps must exist under its traced name.

`perfbench/spans.py` names the functions it wraps as (module, attribute)
pairs; a deleted or renamed function would leave its span silent and fail
the traced benchmark run instead of the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
