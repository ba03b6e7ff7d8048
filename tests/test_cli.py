import dataclasses
import os
import struct
import subprocess
import sys
import time
import zlib
from datetime import date, timedelta

import numpy as np
import pytest

import protobank
from protobank.bank import BankClient
from protobank.adapt import FinetuneConfig
from protobank.cli import UsageError, _parse_address, build_parser, main, parse_world_config
from protobank.container import (
    MemoryBank,
    PrototypeSet,
    deserialize,
    read_envelope,
    serialize,
    write_envelope,
)
from protobank.declarations import SplitSpec, SyntheticWorldConfig, generate_world
from protobank.errors import DataError
from protobank.pretrain import PretrainConfig
from tests.test_pretrain import nan_after

WORLD_CFG = """
seed=5
n_hs6=15
n_shared_patterns=1
pattern_strength=0.8
country.AA.n_records=1400
country.AA.duration_days=100
country.AA.base_illicit_rate=0.10
country.AA.fraud_patterns=0
country.BB.n_records=1400
country.BB.duration_days=100
country.BB.base_illicit_rate=0.10
country.BB.fraud_patterns=0
"""


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    cfg = root / "world.cfg"
    cfg.write_text(WORLD_CFG)
    assert main(["gen", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root


@pytest.fixture(scope="module")
def pretrained(world_dir):
    model = world_dir / "aa.pbm"
    rc = main([
        "pretrain", "--data", str(world_dir / "data" / "AA.csv"), "--country", "AA",
        "--out", str(model), "--epochs", "2", "--seed", "0",
        "--curve", str(world_dir / "curve.csv"),
    ])
    assert rc == 0
    return model


@pytest.fixture(scope="module")
def finetuned(world_dir, pretrained):
    bank = world_dir / "ft.pbk"
    assert main([
        "export-bank", "--model", str(pretrained), "--data", str(world_dir / "data" / "AA.csv"),
        "--country", "AA", "--per-class", "5", "--fraction", "0.15", "--out", str(bank),
        "--seed", "0",
    ]) == 0
    model = world_dir / "ft.pbm"
    assert main([
        "finetune", "--data", str(world_dir / "data" / "BB.csv"), "--country", "BB",
        "--bank", str(bank), "--init-from", str(pretrained), "--label-fraction", "0.05",
        "--epochs", "2", "--seed", "0", "--out", str(model),
        "--curve", str(world_dir / "ft_curve.csv"),
    ]) == 0
    return model


class TestWorldConfig:
    def test_parse_round_trip(self):
        cfg = parse_world_config(WORLD_CFG)
        assert cfg.seed == 5
        assert [c.country_id for c in cfg.countries] == ["AA", "BB"]
        assert cfg.countries[0].fraud_pattern_ids == (0,)

    def test_bad_lines_rejected(self):
        with pytest.raises(DataError):
            parse_world_config("not a kv line")
        with pytest.raises(DataError):
            parse_world_config("seed=1")  # no countries

    def test_missing_field_rejected(self):
        with pytest.raises(DataError):
            parse_world_config("country.AA.n_records=1400")

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        # only pattern 0 is used, so the old parser default n_shared_patterns=2 was out of range
        omitted = ("n_hs6", "n_shared_patterns", "pattern_strength")
        text = "\n".join(ln for ln in WORLD_CFG.splitlines() if ln.split("=")[0] not in omitted)
        cfg = parse_world_config(text)
        assert cfg == SyntheticWorldConfig(5, cfg.countries)
        assert cfg.n_shared_patterns == 0
        (tmp_path / "world.cfg").write_text(text)
        assert main(["gen", "--config", str(tmp_path / "world.cfg"), "--out", str(tmp_path)]) == 0

    def test_n_shared_patterns_is_inert(self):
        cfg = parse_world_config(WORLD_CFG)
        a, b = (generate_world(dataclasses.replace(cfg, n_shared_patterns=n)) for n in (0, 1))
        assert a.keys() == b.keys() and all(a[k].records == b[k].records for k in a)


class TestGen:
    def test_files_written(self, world_dir):
        assert (world_dir / "data" / "AA.csv").exists()
        assert (world_dir / "data" / "BB.csv").exists()

    def test_deterministic(self, world_dir, tmp_path):
        cfg = world_dir / "world.cfg"
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
        for name in ("AA.csv", "BB.csv"):
            a = (world_dir / "data" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b


class TestPipeline:
    def test_pretrain_outputs(self, world_dir, pretrained):
        assert pretrained.exists()
        curve = (world_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,scl_loss,cls_loss,valid_revenue"
        assert len(curve) == 3  # header + 2 epochs

    def test_export_bank_and_finetune_and_eval(self, world_dir, pretrained, capsys):
        bank = world_dir / "aa.pbk"
        rc = main([
            "export-bank", "--model", str(pretrained), "--data",
            str(world_dir / "data" / "AA.csv"), "--country", "AA",
            "--per-class", "20", "--fraction", "0.15", "--out", str(bank), "--seed", "0",
        ])
        assert rc == 0
        proto = deserialize(bank.read_bytes())
        assert isinstance(proto, PrototypeSet)
        assert proto.source_id == "AA"

        model = world_dir / "bb.pbm"
        rc = main([
            "finetune", "--data", str(world_dir / "data" / "BB.csv"), "--country", "BB",
            "--bank", str(bank), "--init-from", str(pretrained),
            "--label-fraction", "0.05", "--epochs", "2", "--seed", "0",
            "--out", str(model),
        ])
        assert rc == 0

        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data",
                   str(world_dir / "data" / "BB.csv"), "--country", "BB", "--rate", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out == "1.0000"  # full inspection captures everything

    def test_finetune_curve(self, world_dir, finetuned):
        curve = (world_dir / "ft_curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,train_bce,valid_metric"
        assert [row.split(",")[0] for row in curve[1:]] == ["0", "1"]  # one row per epoch
        assert all(len(row.split(",")) == 3 for row in curve[1:])

    def test_eval_speaks_plain_revenue(self, world_dir, pretrained, capsys):
        capsys.readouterr()
        rc = main(["eval", "--model", str(pretrained), "--data",
                   str(world_dir / "data" / "BB.csv"), "--country", "BB", "--rate", "0.05"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value <= 1.0


class TestServeFetch:
    def test_serve_put_fetch_round_trip(self, tmp_path):
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-m", "protobank.cli", "serve-bank", "--dir", str(store),
             "--listen", "127.0.0.1:0"],
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = ""
            for _ in range(5):
                line = proc.stderr.readline()
                if "serving bank store" in line:
                    break
            assert "serving bank store" in line
            host_port = line.rsplit(" on ", 1)[1].strip()
            host, port = host_port.rsplit(":", 1)
            rng = np.random.default_rng(0)
            protos = {
                sid: PrototypeSet(sid, 4, rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
                for sid in ("AA", "BB")
            }
            with BankClient((host, int(port))) as client:
                for ps in protos.values():
                    client.put(ps)
            out = tmp_path / "fetched.pbk"
            rc = main(["fetch-bank", "--from", f"{host}:{port}",
                       "--sources", "AA,BB", "--out", str(out)])
            assert rc == 0
            bank = deserialize(out.read_bytes())
            assert isinstance(bank, MemoryBank)
            assert [e.source_id for e in bank.entries] == ["AA", "BB"]
            assert bank.entries[0] == protos["AA"]
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stderr.close()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["gen", "--bogus", "x"]) == 1

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "old, new",
        [
            ("n_hs6=15", "n_hs6=900001"),
            ("country.AA.duration_days=100", "country.AA.duration_days=800000"),
            ("seed=5", "seed=-1"),
            ("country.AA.fraud_patterns=0", "country.AA.fraud_patterns=0,100000"),
        ],
    )
    def test_out_of_range_world_config_is_data_error(self, tmp_path, capsys, old, new):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG.replace(old, new))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("pattern_strength=0.8", "pattern_strenght=0.2", 5),
            ("country.AA.n_records=1400", "country.AA.n_recrods=1400", 6),
        ],
        ids=["top-level", "country-field"],
    )
    def test_unknown_world_config_key_is_data_error(self, tmp_path, capsys, old, new, line):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG.replace(old, new))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = new.split("=")[0]
        assert f"data error: world config line {line}: unknown key {key!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, first",
        [("seed=6", 2), ("country.BB.fraud_patterns=1", 13)],
        ids=["top-level", "country-field"],
    )
    def test_repeated_world_config_key_is_data_error(self, tmp_path, capsys, extra, first):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG + extra + "\n")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        key = extra.split("=")[0]
        assert f"data error: world config line 14: key {key!r} repeats line {first}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cid", ["", "a/b"], ids=["empty", "slash"])
    def test_world_config_country_id_must_be_a_file_name(self, tmp_path, capsys, cid):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(WORLD_CFG.replace("country.BB.", f"country.{cid}."))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"data error: country id {cid!r} must be nonempty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "no.pbm"),
                     "--data", str(tmp_path / "no.csv")]) == 2

    def test_malformed_csv_is_data_error(self, tmp_path, pretrained):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,date\n1,2024-01-01\n")
        assert main(["eval", "--model", str(pretrained), "--data", str(bad)]) == 2

    @pytest.mark.parametrize(
        "row",
        [
            b"1,2024-01-02,1.0",  # fewer fields than the header
            b'1,2024-01-02,1.0,2.0,"' + b"9" * 140_000 + b'",US,10.0,1.0,0,0',  # past csv's limit
            b"1,2024-01-02,1.0,2.0,100\xff01,US,10.0,1.0,0,0",  # not UTF-8
            b"1,2024-01-02,1.0,1e-300,100001,US,1e300,1.0,0,0",  # price_per_kg overflows
        ],
        ids=["short", "long-field", "not-utf8", "price-over-bound"],
    )
    def test_unreadable_csv_row_is_data_error(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,"
                        b"illicit,revenue\n0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0\n" + row + b"\n")
        assert main(["pretrain", "--data", str(bad), "--out", str(tmp_path / "m.pbm")]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sets, message",
        [
            ((("AA", 32), ("CC", 16)), "dimension mismatch"),
            ((("AA", 32), ("AA", 32)), "duplicate source_id"),
        ],
        ids=["mixed-dim", "duplicate-id"],
    )
    def test_bad_bank_file_is_data_error(self, world_dir, tmp_path, capsys, sets, message):
        # built by hand: a MemoryBank holding these sets cannot be constructed
        body = b"PROTOMEM" + struct.pack("<II", 1, len(sets))
        for sid, dim in sets:
            blob = serialize(PrototypeSet(sid, dim, np.ones((1, dim)), np.zeros((1, dim))))
            body += struct.pack("<I", len(blob)) + blob
        bank = tmp_path / "bad.pbk"
        bank.write_bytes(body + struct.pack("<Q", zlib.crc32(body) & 0xFFFFFFFF))
        out = tmp_path / "m.pbm"
        assert main(["finetune", "--data", str(world_dir / "data" / "BB.csv"), "--country", "BB",
                     "--bank", str(bank), "--epochs", "1", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not out.exists()

    def test_bank_of_another_width_is_data_error(self, world_dir, tmp_path, capsys):
        # a well-formed 16-dim prototype set, given to a model 32 wide
        bank = tmp_path / "b16.pbk"
        bank.write_bytes(serialize(PrototypeSet("AA", 16, np.ones((2, 16)), np.zeros((2, 16)))))
        out = tmp_path / "m.pbm"
        assert main(["finetune", "--data", str(world_dir / "data" / "BB.csv"), "--country", "BB",
                     "--bank", str(bank), "--epochs", "1", "--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "bank dimension 16 != representation width 32" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "adapt, edit",
        [
            (False, lambda m, t: m.pop("config")),
            (False, lambda m, t: m["config"].update(width=3)),
            (False, lambda m, t: t.pop("w_num")),
            (False, lambda m, t: t.update(w_num=np.ones((3, 3)))),
            (False, lambda m, t: m.update(feature_std=[0.0] * 5)),
            (False, lambda m, t: m.update(feature_mean=[0.0])),
            (False, lambda m, t: m["config"].update(k=4.0)),
            (False, lambda m, t: m.update(hs6_vocab=m["hs6_vocab"][:1] * 2)),
            (False, lambda m, t: t.update(extra=np.ones(2))),
            (True, lambda m, t: t.update({"memory.bank": np.ones((4, 7))})),
            (True, lambda m, t: t.update({"memory.bank": np.ones((0, m["config"]["d"]))})),
            (True, lambda m, t: t.update({"memory.bank": np.ones(m["config"]["d"])})),
            (True, lambda m, t: t.pop("adapt.gate_w1")),
            (True, lambda m, t: m.update(use_calibration="yes")),
        ],
        ids=[
            "no-config", "unknown-config-key", "no-w_num", "w_num-3x3", "zero-std",
            "short-mean", "float-width", "repeated-vocab", "extra-tensor", "bank-width-7",
            "bank-0-rows", "bank-1-d", "no-gate_w1", "string-flag",
        ],
    )
    def test_malformed_model_bundle_is_data_error(
        self, tmp_path, capsys, pretrained, finetuned, adapt, edit
    ):
        # checksummed, decodable bundles whose content does not describe a model
        meta, tensors = read_envelope((finetuned if adapt else pretrained).read_bytes())
        edit(meta, tensors)
        bad = tmp_path / "bad.pbm"
        bad.write_bytes(write_envelope(meta, tensors))
        data = pretrained.parents[0] / "data" / "BB.csv"
        assert main(["eval", "--model", str(bad), "--data", str(data), "--country", "BB"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_address_is_usage_error(self):
        assert main(["fetch-bank", "--from", "nonsense", "--sources", "A",
                     "--out", "/tmp/x.pbk"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-bank", "--dir", "store", "--listen", "127.0.0.1:99999"],
            ["fetch-bank", "--from", "127.0.0.1:70000", "--sources", "A", "--out", "x.pbk"],
        ],
        ids=["serve-bank", "fetch-bank"],
    )
    def test_port_out_of_range_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "port in 0-65535" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_port_range_edges(self):
        assert _parse_address("localhost:0") == ("localhost", 0)
        assert _parse_address("localhost:65535") == ("localhost", 65535)
        for text in ("localhost:65536", "localhost:\u00b2", "localhost:-1", ":80"):
            with pytest.raises(UsageError):
                _parse_address(text)

    @pytest.mark.parametrize("tau", ["0.001", "nan"])
    def test_tau_below_floor_is_data_error(self, world_dir, tmp_path, capsys, tau):
        out = tmp_path / "m.pbm"
        assert main(["pretrain", "--data", str(world_dir / "data" / "AA.csv"), "--country", "AA",
                     "--out", str(out), "--epochs", "1", "--tau", tau]) == 2
        assert "tau must be at least 0.01" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, env_seed, code",
        [
            ("pretrain", ["--seed", "-5"], None, 1),
            ("pretrain", [], "-3", 1),
            ("export-bank", ["--seed", "-5"], None, 1),
            ("export-bank", ["--stamp", "-1"], None, 2),
            ("finetune", ["--seed", "-5"], None, 1),
            ("pretrain", ["--lr", "nan"], None, 2),
            ("pretrain", ["--weight-decay", "inf"], None, 2),
            ("finetune", ["--lr", "-1"], None, 2),
            ("finetune", ["--weight-decay", "-0.5"], None, 2),
            ("pretrain", ["--test-days", "-5"], None, 2),
            ("finetune", ["--valid-days", "0"], None, 2),
        ],
        ids=[
            "pretrain-seed", "env-seed", "export-seed", "export-stamp", "finetune-seed",
            "pretrain-lr-nan", "pretrain-decay-inf", "finetune-lr-negative",
            "finetune-decay-negative", "pretrain-test-days", "finetune-valid-days",
        ],
    )
    def test_out_of_range_value_exits_without_traceback(
        self, world_dir, pretrained, tmp_path, command, flags, env_seed, code
    ):
        data = world_dir / "data"
        base = {
            "pretrain": ["--data", str(data / "AA.csv"), "--country", "AA", "--epochs", "1"],
            "export-bank": ["--model", str(pretrained), "--data", str(data / "AA.csv"),
                            "--country", "AA", "--per-class", "5", "--fraction", "0.15"],
            "finetune": ["--data", str(data / "BB.csv"), "--country", "BB", "--epochs", "1",
                         "--label-fraction", "0.05"],
        }[command]
        env = {k: v for k, v in os.environ.items() if k != "PROTOBANK_SEED"}
        src = os.path.dirname(os.path.dirname(protobank.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if env_seed is not None:
            env["PROTOBANK_SEED"] = env_seed
        out = tmp_path / "out.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "protobank.cli", command, *base, *flags, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("usage error" if code == 1 else "data error") in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, field",
        [
            ("pretrain", ["--lr", "nan"], "learning_rate"),
            ("pretrain", ["--batch", "1"], "batch_size"),
            ("pretrain", ["--epochs", "-1"], "epochs"),
            ("finetune", ["--lr", "nan"], "learning_rate"),
            ("finetune", ["--batch", "0"], "batch_size"),
            ("finetune", ["--epochs", "-1"], "epochs"),
        ],
    )
    def test_bad_flag_fails_before_reading_data(self, tmp_path, capsys, command, flags, field):
        out = tmp_path / "m.pbm"
        argv = [command, "--data", str(tmp_path / "missing.csv"), "--out", str(out), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"data error: {field}" in err and "No such file" not in err
        assert not out.exists()

    def test_experiment_without_seeds_is_data_error(self, world_dir, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["experiment", "--suite", "single", "--config", str(world_dir / "world.cfg"),
                     "--seeds", "0", "--out", str(out)]) == 2
        assert "data error: seeds must be a nonempty tuple" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_empty_validation_window_is_data_error(self, world_dir, tmp_path, capsys, command):
        lines = (world_dir / "data" / "AA.csv").read_text().splitlines()
        day = [line.split(",")[1] for line in lines]  # the date column
        last = max(date.fromisoformat(d) for d in day[1:])
        # the default split's validation window: the 14 days before the last 30
        gap = {(last - timedelta(days=d)).isoformat() for d in range(30, 44)}
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(line for line, d in zip(lines, day) if d not in gap) + "\n")
        out = tmp_path / "m.pbm"
        argv = [command, "--data", str(gapped), "--country", "AA", "--epochs", "2",
                "--out", str(out)]
        assert main(argv) == 2
        assert "data error: AA: the validation split is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("adapt", [False, True], ids=["encoder", "adapt"])
    def test_non_finite_scores_are_numeric_abort(
        self, world_dir, pretrained, finetuned, monkeypatch, capsys, adapt
    ):
        nan_after(monkeypatch, "sigmoid", 0)  # ops do not scan their outputs
        data = world_dir / "data" / "BB.csv"
        model = finetuned if adapt else pretrained
        assert main(["eval", "--model", str(model), "--data", str(data), "--country", "BB"]) == 3
        assert "numeric abort: non-finite model output" in capsys.readouterr().err


class TestSeedEnvFallback:
    def test_protobank_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROTOBANK_SEED", "11")
        assert main(["gen", "--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("PROTOBANK_SEED")
        assert main(["gen", "--seed", "11", "--out", str(tmp_path / "flag")]) == 0
        for name in ("C1.csv", "C2.csv", "C3.csv", "C4.csv"):
            assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROTOBANK_SEED", "not-a-number")
        assert main(["gen", "--out", str(tmp_path / "x")]) == 1


class TestConfigEcho:
    def test_effective_config_on_stderr(self, world_dir, capsys):
        main(["gen", "--config", str(world_dir / "world.cfg"), "--out", str(world_dir / "data")])
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("config: gen"))
        assert f"config={world_dir / 'world.cfg'}" in line
        assert f"out={world_dir / 'data'}" in line


class TestHelp:
    def test_paper_defaults_in_help(self, capsys):
        for sub, expects in [
            ("pretrain", ["0.07", "128", "0.005", "10"]),
            ("export-bank", ["500", "0.05"]),
            ("finetune", ["30", "128", "0.005"]),
        ]:
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for token in expects:
                assert token in text, f"{sub} help missing {token}"

    @pytest.mark.parametrize("sub, config", [("pretrain", PretrainConfig()),
                                             ("finetune", FinetuneConfig())])
    def test_training_flags_default_to_the_configs(self, sub, config):
        args = build_parser().parse_args([sub, "--data", "d.csv", "--out", "m.pbm"])
        spec = SplitSpec()
        assert (args.epochs, args.batch, args.lr, args.weight_decay) == (
            config.epochs, config.batch_size, config.learning_rate, config.weight_decay
        )
        assert (args.test_days, args.valid_days) == (spec.test_window_days, spec.valid_window_days)
        assert getattr(args, "tau", None) == getattr(config, "tau", None)
        assert args.seed is None and args.curve is None  # the seed comes from PROTOBANK_SEED
