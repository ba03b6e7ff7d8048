"""Apply one-line mutants to a copy of the tree and report which tests kill them.

    python tools/mutants.py                       # every mutant, non-acceptance tests
    python tools/mutants.py --only calibrate-drops-gate --tests tests/test_adapt.py

A mutant is one text edit: a file, an old line that must be exactly one
whole line of that file (indentation included) and the new line that
replaces it. For each mutant the script copies the tree to a temporary
directory, applies the edit there, runs the pytest selection in that copy
with `src/` on PYTHONPATH, and prints `killed` with the ids of the tests
that failed or errored, or `survived`. The working tree is never edited.
The selection must pass on the unmutated tree, or every mutant reads killed.
The test that checks every mutant's old line is in place is deselected: it
fails on any mutated tree, so it would kill every mutant.
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TESTS = "tests --ignore=tests/test_acceptance.py"
TIMEOUT_S = 1800  # a mutant whose tests run longer is reported killed by the timeout
APPLIES_TEST = "tests/test_tool_names.py::test_every_mutant_still_applies"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant("target-ignores-bank", "src/protobank/adapt.py",
           "        h_hat = nm.add(h, h_bar)", "        h_hat = h"),
    Mutant("calibrate-drops-gate", "src/protobank/adapt.py",
           "    fused_in = nm.concat([nm.mul(gate, h_ts), h_t], axis=1)",
           "    fused_in = nm.concat([h_ts, h_t], axis=1)"),
    Mutant("fraud-like-takes-lowest", "src/protobank/pretrain.py",
           "    keep[inspected(score_records(params, ds.records), ds.records, fraction)] = True",
           "    keep[inspected(-score_records(params, ds.records), ds.records, fraction)] = True"),
    Mutant("prototypes-swap-classes", "src/protobank/bank.py",
           "        rows = h[y == cls]", "        rows = h[y != cls]"),
    Mutant("init-skips-reinit-head", "src/protobank/adapt.py",
           "        enc.reinit_head(rng)", "        pass"),
    Mutant("failed-run-not-rescored", "src/protobank/encoder.py",
           "                    run(a, b)", "                    pass"),
    Mutant("attention-logits-zero", "src/protobank/adapt.py",
           "    logits = nm.matmul(h, bank.rows_t)",
           "    logits = nm.mul(nm.matmul(h, bank.rows_t), 0.0)"),
    Mutant("mask-keeps-hidden-labels", "src/protobank/declarations.py",
           "    visible = np.full(n, -1, dtype=np.int8)", "    visible = labels.copy()"),
    Mutant("scl-sign-flipped", "src/protobank/pretrain.py",
           "    return nm.neg(nm.reduce_sum(nm.mul(nm.log(safe), weights)))",
           "    return nm.reduce_sum(nm.mul(nm.log(safe), weights))"),
    Mutant("proto-single-over-random-bank", "src/protobank/evaluation.py",
           '                if cfg.kind == "random_memory":',
           '                if cfg.kind in ("random_memory", "proto_single"):'),
)


def mutate(tree: Path, m: Mutant) -> None:
    path = tree / m.path
    lines = path.read_text(encoding="utf-8").split("\n")
    hits = [i for i, line in enumerate(lines) if line == m.old]
    if len(hits) != 1:
        raise SystemExit(f"{m.name}: {m.path} has the old line {len(hits)} times, not once")
    lines[hits[0]] = m.new
    path.write_text("\n".join(lines), encoding="utf-8")


def killers(m: Mutant, tests: list[str]) -> list[str] | None:
    """Ids of the tests that fail on the mutant, or None if it survives."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".perfbench", ".pytest_cache", ".hypothesis", "__pycache__"))
        mutate(tree, m)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
               "--deselect", APPLIES_TEST, *tests]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return [f"(no result within {TIMEOUT_S} s)"]
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if not failed and proc.returncode != 0:
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return failed or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", choices=[m.name for m in MUTANTS],
                        help="mutants to run (default: all)")
    parser.add_argument("--tests", default=DEFAULT_TESTS, help="pytest selection, shell-quoted")
    args = parser.parse_args(argv)
    survived = 0
    for m in MUTANTS:
        if args.only and m.name not in args.only:
            continue
        ids = killers(m, shlex.split(args.tests))
        survived += ids is None
        print(f"{m.name}: " + (f"killed by {len(ids)}: {', '.join(ids)}" if ids else "survived"),
              flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
