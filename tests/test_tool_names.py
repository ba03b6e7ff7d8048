"""Every protobank name the scripts in `tools/` use must exist.

`tools/fingerprint.py` is how a change shows that it keeps every bit, and
`tools/layerbench.py` times the layers. Both import protobank names, and
`fingerprint.py` reads attributes of `import protobank as pb`, so a deleted
or renamed name would fail the script instead of the test suite. The
scripts are parsed here, never run. Likewise each mutant of
`tools/mutants.py` names a source line, which must still be there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _protobank_names(tree: ast.Module):
    """(module, name, line) for each `from protobank[.mod] import name` and
    each `alias.name` read on an `import protobank[.mod] as alias`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "protobank":
            yield from ((node.module, a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "protobank":
                    aliases[a.asname or "protobank"] = a.name if a.asname else "protobank"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                yield aliases[node.value.id], node.attr, node.lineno


def _resolves(module: str, name: str) -> bool:
    owner = importlib.import_module(module)
    return hasattr(owner, name) or (
        hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_every_tool_name_resolves():
    checked, missing = set(), []
    for path in sorted(TOOLS.glob("*.py")):
        for module, name, line in _protobank_names(ast.parse(path.read_text(encoding="utf-8"))):
            checked.add(f"{path.name}: {module}.{name}")
            if not _resolves(module, name):
                missing.append(f"{path.name} line {line}: {module}.{name}")
    assert not missing, missing
    # both import forms were found, so the walk reads the scripts it guards
    assert {
        "fingerprint.py: protobank.finetune",
        "fingerprint.py: protobank.adapt.save_adapt",
        "layerbench.py: protobank.bank.kmeans",
    } <= checked


def test_every_mutant_still_applies():
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        lines = (ROOT / m.path).read_text(encoding="utf-8").split("\n")
        assert lines.count(m.old) == 1, f"{m.name}: old line found {lines.count(m.old)} times"
        assert m.new != m.old, m.name
