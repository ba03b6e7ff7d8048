"""Print SHA-256 digests of the pipeline's trained models, scores, curves and reports.

Two trees whose outputs match bit for bit print the same lines, so a change
that claims to keep every bit is checked by running this script on both
trees and comparing the output:

    python tools/fingerprint.py > after.txt

For seeds 0 and 1 on `two_country_world_config()` it trains a 3-epoch
pretrain with and without the contrastive term, a 3-epoch memory fine-tune
from the source model, the same fine-tune over a 2000-row bank, a 3-epoch
plain fine-tune and a 2-epoch adaptive transfer (AKC) model, and digests
each model's saved bytes, its scores and its curve. Scores are over the
target's test split, except the 2000-row bank model's, which are over all
6000 target records. Each seed's `encoder_all` line digests the source
model's `embed_matrix` and `score_records` over those 6000 records, so every
scoring entry point is digested at a size that splits across processes. It
then digests the report tree of
`protobank experiment --seeds 2` for the `single`, `ablation` and
`randommem` suites on a 1400-record two-country world. Its first line
digests every field of every record of the generated target country, and
of the records `load_csv` reads back after `write_csv` wrote the whole
world. Each seed's `mask` line digests every field of the target's masked
training records and gives Revenue@5% of fixed scores on them and on a
subset of them; both read the ground truth behind the masked labels. Only
public API is used, and BLAS runs on one thread so the floating-point sums
are ordered.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import protobank as pb  # noqa: E402
from protobank.adapt import save_adapt, score_records as adapt_scores  # noqa: E402
from protobank.cli import main as cli_main  # noqa: E402
from protobank.encoder import EncoderParams, embed_matrix, save_encoder, score_records  # noqa: E402
from protobank.evaluation import two_country_world_config  # noqa: E402

TINY_WORLD_CFG = """\
seed=5
n_hs6=15
n_shared_patterns=1
pattern_strength=0.8
country.AA.n_records=1400
country.AA.duration_days=100
country.AA.base_illicit_rate=0.04
country.AA.fraud_patterns=0
country.BB.n_records=1400
country.BB.duration_days=100
country.BB.base_illicit_rate=0.04
country.BB.fraud_patterns=0
"""


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def curve_bytes(curve: list[dict]) -> bytes:
    """Every curve value in exact form: floats as hex, in row and key order."""
    cells = [
        f"{key}={float(value).hex()}" for row in curve for key, value in sorted(row.items())
    ]
    return "\n".join(cells).encode()


def record_bytes(records) -> bytes:
    """Every field of every record in exact form: floats as hex, the rest as repr."""
    cells = []
    for r in records:
        for name, value in r._asdict().items():
            cells.append(f"{name}={value.hex() if type(value) is float else repr(value)}")
    return "\n".join(cells).encode()


def data_line(world, tmp: Path) -> str:
    loaded = []
    for cid, ds in world.items():
        path = tmp / f"{cid}.csv"
        pb.write_csv(ds, path)
        loaded += pb.load_csv(path, country_id=cid).records
    generated = sha(record_bytes(world["TGT"].records))
    return f"data generate_world {generated} load_csv {sha(record_bytes(loaded))}"


def mask_line(train, seed: int) -> str:
    rng = np.random.default_rng(seed)
    half = train.subset(train.records.ids % 2 == 0)
    return (
        f"seed{seed} mask {sha(record_bytes(train.records))}"
        f" revenue_at_k {pb.revenue_at_k(rng.random(len(train)), train).hex()}"
        f" subset {pb.revenue_at_k(rng.random(len(half)), half).hex()}"
    )


def model_lines(name: str, model, curve, test) -> list[str]:
    if isinstance(model, EncoderParams):
        blob, scores = save_encoder(model), score_records(model, test.records)
    else:
        blob, scores = save_adapt(model), adapt_scores(model, test.records)
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    return [
        f"{name} model {sha(blob)}",
        f"{name} scores {sha(scores.tobytes())}",
        f"{name} curve {sha(curve_bytes(curve))}",
    ]


def stage_lines(world, seed: int) -> list[str]:
    src = pb.split(world["SRC"], pb.SplitSpec())
    tgt = pb.split(world["TGT"], pb.SplitSpec())
    test = tgt["test"]
    lines = []
    source, curve = pb.pretrain(src["train"], src["valid"], pb.PretrainConfig(epochs=3, seed=seed))
    lines += model_lines(f"seed{seed} pretrain_scl", source, curve, test)
    # embeddings and scores of all 6000 target records: a call large enough
    # to be split across processes on a machine with more than one CPU
    everything = world["TGT"].records
    lines.append(
        f"seed{seed} encoder_all embed_matrix {sha(embed_matrix(source, everything).tobytes())}"
        f" score_records {sha(score_records(source, everything).tobytes())}"
    )
    no_scl, curve = pb.pretrain(
        src["train"], src["valid"], pb.PretrainConfig(epochs=3, seed=seed, scl_weight=0.0)
    )
    lines += model_lines(f"seed{seed} pretrain_noscl", no_scl, curve, test)

    fraud_like = pb.select_fraud_like(source, src["train"], 0.05)
    bank = pb.assemble([pb.extract_prototypes(source, fraud_like, 50, seed=seed)])
    train = pb.mask_labels(tgt["train"], 0.01, seed)
    lines.append(mask_line(train, seed))
    mem_cfg = pb.FinetuneConfig(epochs=3, seed=seed, init_from_source=True, use_memory=True)
    memory, curve = pb.finetune(train, tgt["valid"], bank, source, mem_cfg)
    lines += model_lines(f"seed{seed} finetune_memory", memory, curve, test)
    # a 2000-row bank of raw source representations, scored over all 6000
    # target records: attention at the size of perfbench's score_bulk
    labeled = src["train"].labeled()[:2000]
    fraud = np.array([r.illicit for r in labeled])
    h = embed_matrix(source, labeled)
    big = pb.assemble([pb.PrototypeSet("SRC", source.config.d, h[fraud], h[~fraud])])
    big_memory, curve = pb.finetune(train, tgt["valid"], big, source, mem_cfg)
    lines += model_lines(f"seed{seed} finetune_bank2000", big_memory, curve, world["TGT"])
    plain_cfg = pb.FinetuneConfig(epochs=3, seed=seed, use_memory=False)
    plain, curve = pb.finetune(train, tgt["valid"], None, None, plain_cfg)
    lines += model_lines(f"seed{seed} finetune_plain", plain, curve, test)
    akc_cfg = pb.FinetuneConfig(epochs=2, seed=seed)
    akc, curve = pb.akc_finetune(train, tgt["valid"], source, akc_cfg, target_pretrained=plain)
    lines += model_lines(f"seed{seed} akc", akc, curve, test)
    return lines


def suite_line(suite: str, tmp: Path) -> str:
    cfg_file = tmp / "world.cfg"
    cfg_file.write_text(TINY_WORLD_CFG, encoding="utf-8")
    out = tmp / suite
    args = ["experiment", "--suite", suite, "--config", str(cfg_file), "--seeds", "2",
            "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli_main(args)
    if rc != 0:
        raise SystemExit(f"experiment --suite {suite} exited {rc}")
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return f"experiment {suite} reports {digest.hexdigest()}"


def main() -> int:
    world = pb.generate_world(two_country_world_config())
    with tempfile.TemporaryDirectory() as tmp:
        print(data_line(world, Path(tmp)), flush=True)
    for seed in (0, 1):
        for line in stage_lines(world, seed):
            print(line, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for suite in ("single", "ablation", "randommem"):
            print(suite_line(suite, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
