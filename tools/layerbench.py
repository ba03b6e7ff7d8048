"""Time the data path at large row counts, the training path and the bank, stage by stage; print one JSON object.

    python tools/layerbench.py --rows 200000 1000000
    python tools/layerbench.py --tree ../other-checkout --rows 200000

For each row count it generates a one-country world of that many
declarations (world seed `SEED`, 3; 365 days, a 5 % fraud rate), writes it as a
CSV under a temporary directory and measures, in this order:

- `load_csv` of that CSV;
- `split` with the default windows;
- `mask_labels(train, 0.01)`;
- `batch_inputs` over every record;
- `encoder.score_records` over every record, with an untrained encoder
  fitted to the train split (scoring costs the same trained or not).

Then, under `pretrain`, it measures the source pretrain of perfbench's
`transfer` operation: `PretrainConfig(seed=SEED)` (10 epochs, batches of 128)
on the SRC split of `two_country_world_config()`, and under `kmeans`
`bank.kmeans` at export's scale: k = 500 over 2000 seeded normal 32-dim rows,
with the iterations of the kept restart (`iters`). Under `attend`, keyed by bank
rows, it measures `adapt.score_records` over the first `ATTEND_RECORDS` TGT
records of that world against banks of `ATTEND_BANK_ROWS` seeded normal rows
(half fraud, half clean prototypes), each held by a target model that
`finetune` builds with `FinetuneConfig(epochs=0)`: memory attention as the bank
grows.

Each of these stages runs twice on the same input: once plain for its wall
seconds (`s`), the minor page faults it took (`minflt`) and its system seconds
(`sys_s`), both from getrusage, then under tracemalloc for its peak of traced
memory above what was held before it (`peak_mib`). Faults show allocator
churn: memory the C allocator gave back to the system and touched again.
The plain run also gives the user and system seconds of the child
processes it reaped (`child_user_s`, `child_sys_s`): a large scoring call
scores part of its records in forked children, whose work the process's own
figures leave out, as tracemalloc leaves out their memory. `child_maxrss_mib`
is getrusage's largest resident set of any child reaped so far, so it can
only grow from stage to stage (the `serve_bank` server is a child too).

Under `bank_store` it gives the median milliseconds of `STORE_CALLS`
in-process `BankStore` calls of each of `put` (a stored set again), `get`
(one set) and `list`, in a store of 8 prototype sets of 1000 × 32 rows.
Under `serve_bank` it starts `protobank serve-bank` in a subprocess over
the same 8 stored sets and sends `SERVE_GETS` GETs of two sets each from one
client, after one GET of every set: the client's median milliseconds per
GET, and the server's user and system microseconds and minor page faults per
GET, read from `/proc/<pid>/stat` (`null` where there is no `/proc`).

`--tree` names the checkout whose `src/` is imported (default: this one), so
the same script measures two trees. BLAS runs on one thread. `peak_rss_mib`
is the process's peak resident set over every stage.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

SEED = 3  # seeds the world, the mask, the encoder, k-means and the stored sets
STORE_CALLS = 50
SERVE_GETS = 500
ATTEND_RECORDS = 2048
ATTEND_BANK_ROWS = (500, 2000, 10_000)


def measure(fn) -> tuple[object, dict]:
    """`fn()` and its wall seconds, minor faults, system seconds, its reaped
    children's user and system seconds and peak resident set, and tracemalloc
    peak (MiB), from two calls."""
    gc.collect()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    fn()
    seconds = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, {"s": round(seconds, 4), "minflt": r1.ru_minflt - r0.ru_minflt,
                 "sys_s": round(r1.ru_stime - r0.ru_stime, 3), "peak_mib": round(peak / 2**20, 2),
                 "child_user_s": round(c1.ru_utime - c0.ru_utime, 3),
                 "child_sys_s": round(c1.ru_stime - c0.ru_stime, 3),
                 "child_maxrss_mib": round(c1.ru_maxrss / 1024, 1)}


def run(rows: int, tmp: Path) -> dict:
    import numpy as np

    from protobank.declarations import (
        CountrySpec,
        SplitSpec,
        SyntheticWorldConfig,
        generate_world,
        load_csv,
        mask_labels,
        split,
        write_csv,
    )
    from protobank.encoder import EncoderParams, batch_inputs, score_records

    cfg = SyntheticWorldConfig(seed=SEED, countries=(CountrySpec("BIG", rows, 365, 0.05, (0,)),))
    t0 = time.perf_counter()
    path = tmp / f"big{rows}.csv"
    write_csv(generate_world(cfg)["BIG"], path)
    stages = {"generate_and_write_s": round(time.perf_counter() - t0, 4)}
    ds, stages["load_csv"] = measure(lambda: load_csv(path, country_id="BIG"))
    parts, stages["split"] = measure(lambda: split(ds, SplitSpec()))
    _, stages["mask_labels"] = measure(lambda: mask_labels(parts["train"], 0.01, SEED))
    params = EncoderParams.from_split(np.random.default_rng(SEED), parts["train"])
    _, stages["batch_inputs"] = measure(lambda: batch_inputs(params, ds.records))
    _, stages["score_records"] = measure(lambda: score_records(params, ds.records))
    data_path = ("load_csv", "split", "mask_labels")
    stages["load_split_mask_s"] = round(sum(stages[k]["s"] for k in data_path), 4)
    return stages


def run_pretrain() -> dict:
    from protobank.declarations import SplitSpec, generate_world, split
    from protobank.evaluation import two_country_world_config
    from protobank.pretrain import PretrainConfig, pretrain

    src = split(generate_world(two_country_world_config())["SRC"], SplitSpec())
    return measure(lambda: pretrain(src["train"], src["valid"], PretrainConfig(seed=SEED)))[1]


def run_kmeans() -> dict:
    import numpy as np

    from protobank.bank import kmeans

    points = np.random.default_rng(SEED).normal(size=(2000, 32))
    result, stage = measure(lambda: kmeans(points, 500, SEED))
    return {**stage, "iters": result.n_iters}


def run_attend() -> dict:
    import numpy as np

    from protobank.adapt import FinetuneConfig, finetune, score_records
    from protobank.bank import assemble
    from protobank.container import PrototypeSet
    from protobank.declarations import SplitSpec, generate_world, split
    from protobank.evaluation import two_country_world_config

    tgt = generate_world(two_country_world_config())["TGT"]
    parts, records = split(tgt, SplitSpec()), tgt.records[:ATTEND_RECORDS]
    cfg = FinetuneConfig(epochs=0, seed=SEED)
    d, rng, stages = cfg.encoder.d, np.random.default_rng(SEED), {}
    for rows in ATTEND_BANK_ROWS:
        points = rng.normal(size=(rows, d))
        bank = assemble([PrototypeSet("SRC", d, points[: rows // 2], points[rows // 2 :])])
        model, _ = finetune(parts["train"], parts["valid"], bank, None, cfg)
        stages[str(rows)] = measure(lambda: score_records(model, records))[1]
    return stages


def median_ms(fn) -> float:
    """Median wall milliseconds of `STORE_CALLS` calls of `fn()`."""
    times = []
    for _ in range(STORE_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 3)


def stored_sets(root: Path) -> list[bytes]:
    """Write 8 prototype sets of 1000 × 32 rows, S0..S7, to a store at `root`."""
    import numpy as np

    from protobank.bank import BankStore
    from protobank.container import PrototypeSet, serialize

    rng = np.random.default_rng(SEED)
    blobs = [serialize(PrototypeSet(f"S{i}", 32, rng.normal(size=(500, 32)),
                                    rng.normal(size=(500, 32)))) for i in range(8)]
    store = BankStore(root)
    for blob in blobs:
        store.put(blob)
    return blobs


def run_bank_store(tmp: Path) -> dict:
    from protobank.bank import BankStore

    blobs = stored_sets(tmp / "store")
    store = BankStore(tmp / "store")
    return {"put_ms": median_ms(lambda: store.put(blobs[0])),
            "get_ms": median_ms(lambda: store.get("S0")),
            "list_ms": median_ms(store.list), "sets": len(blobs), "bytes_per_set": len(blobs[0])}


def proc_cost(pid: int) -> tuple[int, float, float] | None:
    """(minor faults, user seconds, system seconds) of process `pid`, or None without /proc."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2 :].split()  # from field 3, the state
    tick = os.sysconf("SC_CLK_TCK")
    return int(fields[7]), int(fields[11]) / tick, int(fields[12]) / tick


def run_serve_bank(tree: Path, tmp: Path) -> dict:
    from protobank.bank import BankClient

    n_sets = len(stored_sets(tmp / "served"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "protobank.cli", "serve-bank", "--dir", str(tmp / "served"),
         "--listen", "127.0.0.1:0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")},
    )
    try:
        match = None
        for line in proc.stderr:
            match = re.search(r"^serving bank store .* on (.+):(\d+)$", line.strip())
            if match:
                break
        if match is None:
            raise RuntimeError("serve-bank exited before serving")
        pairs = [[f"S{i % n_sets}", f"S{(i + 1) % n_sets}"] for i in range(SERVE_GETS)]
        times = []
        with BankClient((match.group(1), int(match.group(2)))) as client:
            client.get([f"S{i}" for i in range(n_sets)])
            before = proc_cost(proc.pid)
            for ids in pairs:
                t0 = time.perf_counter()
                client.get(ids)
                times.append(time.perf_counter() - t0)
            after = proc_cost(proc.pid)
    finally:
        proc.send_signal(signal.SIGINT)  # serve-bank shuts down cleanly on SIGINT
        proc.communicate(timeout=30)
    per_get = None if before is None else [(b - a) / SERVE_GETS for a, b in zip(before, after)]
    return {"gets": SERVE_GETS, "sets_per_get": 2,
            "client_get_ms": round(statistics.median(times) * 1e3, 3),
            "server_minflt_per_get": None if per_get is None else round(per_get[0], 2),
            "server_user_us_per_get": None if per_get is None else round(per_get[1] * 1e6, 1),
            "server_sys_us_per_get": None if per_get is None else round(per_get[2] * 1e6, 1)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--rows", type=int, nargs="+", default=[200_000])
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    import numpy as np

    commit = subprocess.run(["git", "-C", str(args.tree), "describe", "--always", "--dirty"],
                            capture_output=True, text=True, check=False).stdout.strip()
    result = {
        "tree": str(args.tree),
        "commit": commit,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas_threads": 1},
        "seed": SEED,
        "rows": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for rows in args.rows:
            result["rows"][str(rows)] = run(rows, Path(tmp))
        result["bank_store"] = run_bank_store(Path(tmp))
        result["serve_bank"] = run_serve_bank(args.tree, Path(tmp))
    result["pretrain"] = run_pretrain()
    result["kmeans"] = run_kmeans()
    result["attend"] = run_attend()
    result["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
