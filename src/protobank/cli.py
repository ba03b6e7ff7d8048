"""Command-line interface for the full pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric abort.
Every subcommand prints its effective configuration to stderr so a run can
be reproduced from its log. PROTOBANK_SEED provides the seed when --seed
is omitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .adapt import FinetuneConfig, finetune, load_model, save_adapt
from .adapt import score_records as adapt_scores
from .bank import BankClient, BankServer, assemble, extract_prototypes
from .container import MemoryBank, PrototypeSet, deserialize, serialize
from .declarations import (
    CountryDataset,
    CountrySpec,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    load_csv,
    mask_labels,
    split,
    write_csv,
)
from .encoder import EncoderParams, load_encoder, save_encoder, score_records
from .errors import DataError, NumericError
from .evaluation import (
    SUITES,
    ScenarioRunner,
    default_world_config,
    emit_report,
    revenue_at_k,
    suite_configs,
)
from .pretrain import PretrainConfig, curve_to_csv, pretrain, select_fraud_like


PRETRAIN_CURVE = ("epoch", "scl_loss", "cls_loss", "valid_revenue")  # --curve CSV columns
FINETUNE_CURVE = ("epoch", "train_bce", "valid_metric")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _resolve_seed(value: int | None) -> int:
    env = os.environ.get("PROTOBANK_SEED", "0")
    try:
        value = int(env) if value is None else value
    except ValueError:
        raise UsageError(f"PROTOBANK_SEED={env!r} is not an integer") from None
    if value < 0:
        raise UsageError(f"seed {value} is negative")
    return value


def _echo_config(name: str, args: argparse.Namespace) -> None:
    pairs = sorted((k, v) for k, v in vars(args).items() if k != "func")
    line = " ".join(f"{k}={v}" for k, v in pairs)
    print(f"config: {name} {line}", file=sys.stderr)


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise UsageError(f"address {text!r} must look like host:port with a port in 0-65535")
    return host, int(port)


# ---------------------------------------------------------------------------
# world config files (flat key=value)

# top-level keys and their types; a key the file omits takes the dataclass default
_WORLD_KEYS = {"seed": int, "n_hs6": int, "n_shared_patterns": int, "pattern_strength": float}
_COUNTRY_FIELDS = ("n_records", "duration_days", "base_illicit_rate", "fraud_patterns")


def parse_world_config(text: str) -> SyntheticWorldConfig:
    """Flat key=value format; country fields are country.<id>.<field>.
    DataError on a key that is neither or that repeats, naming its line."""
    top: dict[str, str] = {}
    per_country: dict[str, dict[str, str]] = {}
    seen: dict[str, int] = {}  # key -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"world config line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("country."):
            try:
                _, cid, field = key.split(".", 2)
            except ValueError:
                raise DataError(f"world config line {lineno}: bad country key {key!r}") from None
            known, into = _COUNTRY_FIELDS, per_country.setdefault(cid, {})
        else:
            field, known, into = key, _WORLD_KEYS, top
        if field not in known:
            raise DataError(f"world config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise DataError(f"world config line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        into[field] = value
    if not per_country:
        raise DataError("world config defines no countries")
    try:
        countries = tuple(
            CountrySpec(
                country_id=cid,
                n_records=int(fields["n_records"]),
                duration_days=int(fields["duration_days"]),
                base_illicit_rate=float(fields["base_illicit_rate"]),
                fraud_pattern_ids=tuple(
                    int(p) for p in fields["fraud_patterns"].split(",") if p.strip()
                ),
            )
            for cid, fields in per_country.items()
        )
        given = {key: _WORLD_KEYS[key](value) for key, value in {"seed": "0", **top}.items()}
        return SyntheticWorldConfig(countries=countries, **given)
    except KeyError as e:
        raise DataError(f"world config missing country field {e}") from None
    except ValueError as e:
        raise DataError(f"world config value error: {e}") from None


# ---------------------------------------------------------------------------
# subcommands


def _world_flags(parser: _Parser) -> None:
    parser.add_argument("--config", help="flat key=value world config (default: built-in world)")
    parser.add_argument("--seed", type=int, default=None, help="world seed for the built-in config")


def _world(args) -> SyntheticWorldConfig:
    """The world of --config, or the built-in world seeded by --seed."""
    if args.config:
        return parse_world_config(Path(args.config).read_text(encoding="utf-8"))
    return default_world_config(_resolve_seed(args.seed))


def _data_flags(parser: _Parser, data_help: str) -> None:
    parser.add_argument("--data", required=True, help=data_help)
    parser.add_argument("--country", default=None, help="country id (default: file path)")


def _dataset(args) -> CountryDataset:
    return load_csv(args.data, country_id=args.country or str(args.data))


def _cmd_gen(args) -> int:
    world = generate_world(_world(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for cid, ds in world.items():
        write_csv(ds, out / f"{cid}.csv")
        print(f"wrote {out / f'{cid}.csv'} ({len(ds)} records)", file=sys.stderr)
    return 0


def _training_flags(parser: _Parser, config, stage: str) -> None:
    """The flags `_training` reads, defaulting to `config`'s and SplitSpec's fields."""
    add, spec = parser.add_argument, SplitSpec()
    add("--epochs", type=int, default=config.epochs, help=f"{stage} epochs")
    add("--batch", type=int, default=config.batch_size, help="batch size")
    add("--lr", type=float, default=config.learning_rate, help="learning rate")
    add("--weight-decay", type=float, default=config.weight_decay, help="decoupled weight decay")
    add("--seed", type=int, default=None, help="run seed")
    add("--curve", default=None, help="optional training-curve CSV path")
    add("--test-days", type=int, default=spec.test_window_days, help="test window length")
    add("--valid-days", type=int, default=spec.valid_window_days, help="validation window length")


def _training(args, config, **fields):
    """The `config` the shared training flags and `fields` give, and the
    train and valid parts of --data. These flags are checked before the CSV
    is read."""
    cfg = config(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        weight_decay=args.weight_decay, seed=_resolve_seed(args.seed), **fields,
    )
    spec = SplitSpec(args.test_days, args.valid_days)
    parts = split(_dataset(args), spec)
    return cfg, parts["train"], parts["valid"]


def _write_model(args, blob: bytes, curve, columns, what: str) -> int:
    Path(args.out).write_bytes(blob)
    if args.curve:
        Path(args.curve).write_text(curve_to_csv(curve, columns), encoding="utf-8")
    print(f"wrote {what} to {args.out}", file=sys.stderr)
    return 0


def _cmd_pretrain(args) -> int:
    cfg, train, valid = _training(args, PretrainConfig, tau=args.tau)
    params, curve = pretrain(train, valid, cfg)
    return _write_model(args, save_encoder(params), curve, PRETRAIN_CURVE, "model")


def _cmd_export_bank(args) -> int:
    params = load_encoder(Path(args.model).read_bytes())
    fraud_like = select_fraud_like(params, _dataset(args), args.fraction)
    proto = extract_prototypes(
        params, fraud_like, args.per_class, seed=_resolve_seed(args.seed), created_at=args.stamp
    )
    Path(args.out).write_bytes(serialize(proto))
    print(
        f"wrote {proto.n_rows} prototypes ({proto.fraud_prototypes.shape[0]} fraud) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve_bank(args) -> int:
    server = BankServer(args.dir, _parse_address(args.listen))
    host, port = server.address
    print(f"serving bank store {args.dir} on {host}:{port}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_fetch_bank(args) -> int:
    sources = [s for s in args.sources.split(",") if s]
    if not sources:
        raise UsageError("--sources needs at least one source id")
    with BankClient(_parse_address(getattr(args, "from"))) as client:
        blobs = client.get(sources)
    entries = [deserialize(blob) for blob in blobs]
    if not all(isinstance(ps, PrototypeSet) for ps in entries):
        raise DataError("service returned a non-prototype payload")
    Path(args.out).write_bytes(serialize(assemble(entries)))
    print(f"fetched {len(entries)} prototype set(s) into {args.out}", file=sys.stderr)
    return 0


def _load_bank(path) -> MemoryBank:
    obj = deserialize(Path(path).read_bytes())
    return assemble([obj]) if isinstance(obj, PrototypeSet) else obj


def _cmd_finetune(args) -> int:
    cfg, train, valid = _training(
        args, FinetuneConfig, init_from_source=bool(args.init_from), use_memory=bool(args.bank)
    )
    train = mask_labels(train, args.label_fraction, cfg.seed)
    bank = _load_bank(args.bank) if args.bank else None
    source = load_encoder(Path(args.init_from).read_bytes()) if args.init_from else None
    params, curve = finetune(train, valid, bank, source, cfg)
    return _write_model(args, save_adapt(params), curve, FINETUNE_CURVE, "fine-tuned model")


def _cmd_eval(args) -> int:
    model = load_model(Path(args.model).read_bytes())
    ds = _dataset(args)
    if isinstance(model, EncoderParams):
        scores = score_records(model, ds.records)
    else:
        scores = adapt_scores(model, ds.records)
    value = revenue_at_k(scores, ds, args.rate)
    print(f"{value:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    world = generate_world(_world(args))
    seeds = tuple(range(args.seeds))
    configs = suite_configs(args.suite, world, seeds=seeds, label_fraction=args.label_fraction)
    runner = ScenarioRunner(world)
    reports = [runner.run(cfg) for cfg in configs]
    for rep in reports:
        print(
            f"{rep.config.name}: mean={rep.mean:.4f} stdev={rep.stdev:.4f}"
            f" ({rep.wall_time_s:.1f}s)",
            file=sys.stderr,
        )
    emit_report(reports, args.out)
    print(f"wrote reports to {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="protobank", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def cmd(name, help_, fn):
        p = sub.add_parser(name, help=help_, formatter_class=fmt)
        p.set_defaults(func=fn)
        return p

    p = cmd("gen", "generate synthetic per-country CSVs", _cmd_gen)
    p.add_argument("--out", required=True, help="output directory")
    _world_flags(p)

    p = cmd("pretrain", "contrastive pretraining on a source country", _cmd_pretrain)
    _data_flags(p, "declarations CSV")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--tau", type=float, default=PretrainConfig.tau, help="contrastive temperature")
    _training_flags(p, PretrainConfig, "pretraining")

    p = cmd("export-bank", "select fraud-like logs and export prototypes", _cmd_export_bank)
    p.add_argument("--model", required=True, help="pretrained model file")
    _data_flags(p, "declarations CSV")
    p.add_argument("--out", required=True, help="output prototype-set file")
    p.add_argument("--per-class", type=int, default=500, help="prototypes per class")
    p.add_argument("--fraction", type=float, default=0.05, help="fraud-like share to keep")
    p.add_argument("--seed", type=int, default=None, help="clustering seed")
    p.add_argument("--stamp", type=int, default=0, help="created_at stamp stored in the container")

    p = cmd("serve-bank", "serve a prototype exchange store", _cmd_serve_bank)
    p.add_argument("--dir", required=True, help="store directory")
    p.add_argument("--listen", default="127.0.0.1:7077", help="host:port to bind")

    p = cmd("fetch-bank", "fetch prototype sets into a memory bank file", _cmd_fetch_bank)
    p.add_argument("--from", required=True, help="host:port of a bank service")
    p.add_argument("--sources", required=True, help="comma-separated source ids")
    p.add_argument("--out", required=True, help="output memory-bank file")

    p = cmd("finetune", "fine-tune a target model with an optional bank", _cmd_finetune)
    _data_flags(p, "target declarations CSV")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--bank", default=None, help="memory bank or prototype-set file")
    p.add_argument("--init-from", default=None, help="source model to initialize from")
    p.add_argument("--label-fraction", type=float, default=0.01, help="training label share")
    _training_flags(p, FinetuneConfig, "fine-tuning")

    p = cmd("eval", "score a CSV and print Revenue@rate", _cmd_eval)
    p.add_argument("--model", required=True, help="model file (pretrained or fine-tuned)")
    _data_flags(p, "declarations CSV with labels")
    p.add_argument("--rate", type=float, default=0.05, help="inspection rate")

    p = cmd("experiment", "run one of the experiment suites", _cmd_experiment)
    p.add_argument("--suite", required=True, choices=SUITES, help="experiment family")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds per scenario")
    p.add_argument("--label-fraction", type=float, default=0.01, help="target label share")
    _world_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        _echo_config(args.command, args)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
