"""Run perfbench on two checkouts in alternating pairs and compare their end-to-end metrics.

    python tools/pairbench.py PARENT CHANGE --workload score_bulk --seeds 31-40

For each seed it runs `perfbench/run.py --workload W --seed S --trace 0` from
both checkouts, one after the other; pair k (counted from 0) runs the parent
first when k is even and the change first when k is odd. Each run is a fresh
process in its own checkout and writes only under that checkout's
`.perfbench/`. The run length is `run_seconds` of the change's BENCHMARK.json.

For every end-to-end metric BENCHMARK.json names it prints both medians, the
parent's interquartile range (statistics.quantiles, n=4, exclusive method),
the change's wins out of N pairs (ties count for neither) and three verdicts:

- `claimed`: there are at least 10 pairs, the change won at least nine
  tenths of them, and its median is better than the parent's by more than
  the parent's IQR;
- `no_regression`: the change's median is not worse than the parent's by
  more than the metric's bound;
- `unresolved`: the runs of either tree spread (max - min over median) wider
  than the bound, and not every change run beats every parent run.

Comment lines (`# ...`) give the table, the machine line and each run's
workload lines (Revenue@5, export inertia); the last line is one JSON object
with every run's metrics, `correct`, `attempted` and `failed`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds {text!r} must look like A-B or A") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds {text!r} name no seed")
    return seeds


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from `tree`: its last-line JSON plus its comment lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env ")), {})
    result["lines"] = [ln for ln in lines[:-1] if ln.startswith(f"# {workload}")]
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The medians, the parent's IQR, wins and the three verdicts for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    spread = max((max(v) - min(v)) / abs(statistics.median(v)) if statistics.median(v) else 0.0
                 for v in (parent, change))
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    separated = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med if p_med else float("nan"),
        "parent_q1_q3": [q1, q3],
        "parent_iqr": q3 - q1,
        "change_wins": f"{wins} of {len(parent)}",
        "claimed": len(parent) >= 10 and wins >= 0.9 * len(parent)
        and sign * (c_med - p_med) > q3 - q1,
        "no_regression": worse_by <= bound,
        "unresolved": spread > bound and not separated,
        "spread": spread,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=("transfer", "score_bulk", "export", "exchange"))
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, both included")
    args = parser.parse_args()
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run(getattr(args, side), args.workload, seed, seconds)
            res["seed"], res["first"] = seed, order[0] == side
            runs[side].append(res)
            print(f"# pair {k} seed {seed} {side}: correct={res['correct']} "
                  f"failed={res['failed']} of {res['attempted']} "
                  + " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                  flush=True)
    metrics = {}
    print(f"# {'metric':<12} {'parent':>12} {'change':>12} {'parent IQR':>11} {'wins':>8}  verdicts")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        m = metrics[name] = compare(values["parent"], values["change"], spec["better"],
                                    spec["bound"])
        verdicts = [v for v in ("claimed", "no_regression", "unresolved") if m[v]]
        print(f"# {name:<12} {m['parent_median']:>12.6g} {m['change_median']:>12.6g} "
              f"{m['parent_iqr']:>11.4g} {m['change_wins']:>8}  {' '.join(verdicts)}")
    print("# machine " + json.dumps(runs["change"][0]["env"], sort_keys=True))
    for side, rs in runs.items():
        for r in rs:
            for line in r["lines"]:
                if "revenue" in line or "inertia" in line:
                    print(f"# {side} seed {r['seed']}: {line[2:]}")
    every = runs["parent"] + runs["change"]
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "correct": all(r["correct"] for r in every),
                      "failed": sum(r["failed"] for r in every),
                      "metrics": metrics, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
