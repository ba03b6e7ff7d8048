"""protobank benchmark: run one workload, untraced or traced, and report.

    python3 perfbench/run.py --workload transfer --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): transfer, score_bulk,
export, exchange; `--workload all` runs each of them, untraced and traced,
in a fresh process and prints every result.

An untraced run (`--trace 0`) sets the workload up three times (set-up time
is the median; the heavy part of each runs in a child process, so that
`peak_rss_mb` is the peak of the measured operations), then runs operations
back to back for `--seconds` and reports the end-to-end metrics. A traced run (`--trace 1`) sets up once,
wraps the protobank functions (spans.py) and runs operations from 0 for
two thirds of the time, then unwraps them and runs operations from 0 again
for the last third as the untraced reference. It reports the per-layer metrics and the
tracing overhead, and fails its checks if the traced outputs differ from
the reference or a metric the workload must exercise stayed zero.

Stdout: comment lines (`# ...`: environment, each workload's named metrics,
per-layer values), then as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything the run writes
stays under `.perfbench/` in the checkout; spans of a traced run are
written there as JSON lines.
"""

import os

# Pin BLAS to one thread before numpy loads; the server subprocess inherits it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import numeric_environment, openblas  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("transfer", "score_bulk", "export", "exchange")
SETUP_REPEATS = 3

# end-to-end metrics of an untraced run: name -> unit
END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


def _unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or ".fwd_s." in name:
        return "s"
    if name.endswith("_share"):
        return "fraction"
    if name.rsplit(".", 1)[-1].startswith("bytes"):
        return "bytes"
    return "count"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "numerics": numeric_environment(),  # python, numpy, BLAS build and kernel, SIMD
        "blas_threads": openblas("get_num_threads", ctypes.c_int),
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},  # also the server subprocess's
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _in_child(fn) -> None:
    """Run `fn` in a forked child process and wait for it to end."""
    child = multiprocessing.get_context("fork").Process(target=fn)
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"set-up child process exited with {child.exitcode}")


def set_up(cls, args, tmp: Path, tracer):
    """Set the workload up (once traced, else SETUP_REPEATS times); keep the last.

    Untraced, `prepare` runs in a child process; traced, in this one, so
    that its spans are recorded.
    """
    times, wl = [], None
    if tracer is not None:
        tracer.install()
    try:
        for rep in range(1 if tracer is not None else SETUP_REPEATS):
            if wl is not None:
                wl.close()
            wl = cls(args.seed, ROOT, tmp / f"setup{rep}")
            t0 = time.perf_counter()
            if tracer is None:
                _in_child(wl.prepare)
            else:
                wl.prepare()
            wl.setup()
            times.append(time.perf_counter() - t0)
    except BaseException:
        if wl is not None:
            wl.close()
        raise
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wl, times


def untraced(wl, args, setup_times):
    ops, elapsed = wl.measure(args.seconds)
    good = [o for o in ops if not o.failures]
    lines = [("setup_s", statistics.median(setup_times), "s",
              f"median of {len(setup_times)} set-ups")]
    if good:
        lines += wl.summary(good, elapsed)
    lines += [
        ("failed_share", (len(ops) - len(good)) / len(ops), "fraction",
         f"{len(ops) - len(good)} of {len(ops)}"),
        ("peak_rss_mb", _peak_rss_mb(), "MiB", "ru_maxrss of this process"),
    ]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(o.seconds for o in good) * 1e3 if good else float("nan"),
        "ops_per_s": len(good) / elapsed,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return ops, lines, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, []


def traced(wl, args, tracer):
    """Traced ops for two thirds of the time, then the same ops untraced as the reference."""
    ref_seconds = args.seconds / 3
    sites = tracer.install()
    try:
        ops, _ = wl.measure(args.seconds - ref_seconds, tracer)
    finally:
        tracer.uninstall()
    ref_ops, _ = wl.measure(ref_seconds)
    problems = []
    if ops[0].fingerprint != ref_ops[0].fingerprint:
        problems.append("traced outputs differ from the untraced reference")
    metrics = tracer.layer_metrics(len(ops))
    metrics["cli.serve_bank_ready_s"] = wl.server.ready_s if wl.server is not None else 0.0
    traced_s = [o.seconds for o in ops if not o.failures]
    ref_s = [o.seconds for o in ref_ops if not o.failures]
    overhead = statistics.median(traced_s) / statistics.median(ref_s) - 1 if traced_s and ref_s else 0.0
    metrics["trace.overhead_share"] = overhead
    for name in wl.must_fire:
        if not metrics[name] > 0:
            problems.append(f"{name} never fired on {wl.name}")
    lines = [
        ("trace.overhead_share", overhead, "fraction",
         f"median op {statistics.median(traced_s) if traced_s else 0:.6g} s traced "
         f"({len(traced_s)} ops) vs {statistics.median(ref_s) if ref_s else 0:.6g} s untraced "
         f"({len(ref_s)} ops)"),
    ]
    spans_path = WORK_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    lines.append(("trace.spans", len(tracer.spans), "count", f"all, set-up too; written to {spans_path}"))
    lines.append(("trace.bindings", len(sites), "count", "wrapped: " + " ".join(sites)))
    return ops + ref_ops, lines, {k: (v, _unit(k)) for k, v in metrics.items()}, problems


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment(args), sort_keys=True))
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix="tmp-") as tmp:
        wl, setup_times = set_up(WORKLOADS[args.workload], args, Path(tmp), tracer)
        try:
            if tracer is None:
                ops, lines, metrics, problems = untraced(wl, args, setup_times)
            else:
                ops, lines, metrics, problems = traced(wl, args, tracer)
        finally:
            wl.close()
    failures = [f for o in ops for f in o.failures]
    for name, value, unit, note in lines:
        print(f"# {args.workload:<10} {name:<22} {value:>14.6g} {unit:<16} {note}")
    if args.trace:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"# {args.workload:<10} {name:<34} {value:>14.6g} {unit}")
    for problem in sorted(set(failures))[:20] + problems:
        print(f"# FAILED: {problem}")
    failed = sum(1 for o in ops if o.failures)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            sys.stdout.write("".join(ln + "\n" for ln in proc.stdout.splitlines()[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"# FAILED: {name} trace={trace} exited with {proc.returncode}")
                return proc.returncode
            results[(name, trace)] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for (name, trace), r in results.items() if not trace
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its server subprocess (the `finally` blocks run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "protobank" / "__init__.py").is_file():
        print(f"perfbench: no protobank sources at {ROOT / 'src' / 'protobank'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
