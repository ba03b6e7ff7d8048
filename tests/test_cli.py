import subprocess
import sys
import time

import numpy as np
import pytest

from protobank.bank import BankClient
from protobank.cli import UsageError, _parse_address, main, parse_world_config
from protobank.container import MemoryBank, PrototypeSet, deserialize, serialize
from protobank.errors import DataError

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
        ],
        ids=["short", "long-field", "not-utf8"],
    )
    def test_unreadable_csv_row_is_data_error(self, tmp_path, capsys, row):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"id,date,quantity,gross_weight,hs6,country_code,cif_value,total_taxes,"
                        b"illicit,revenue\n0,2024-01-01,1.0,2.0,100001,US,10.0,1.0,0,0\n" + row + b"\n")
        assert main(["pretrain", "--data", str(bad), "--out", str(tmp_path / "m.pbm")]) == 2
        assert "line 3" in capsys.readouterr().err

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
