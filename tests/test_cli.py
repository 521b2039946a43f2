import csv
import json
import math

import numpy as np
import pytest

from cxtherm import cxentropy
from cxtherm.cli import dispatch, load_state, load_state_file, save_state_file
from cxtherm.errors import ConfigError
from cxtherm.gates import I2, GateSet, Z, channel_gate, format_gate_set
from cxtherm.registers import ghz_state, maximally_mixed, zero_state
from cxtherm.reporting import config_hash, write_csv, write_json
from cxtherm.sampling import sample_density


class TestLoadState:
    def test_builtin_names(self):
        assert np.allclose(load_state("zero", 3, 0).matrix, zero_state(3).matrix)
        assert np.allclose(load_state("ghz4", 2, 0).matrix, ghz_state(4).matrix)
        assert np.allclose(load_state("maxmixed", 2, 0).matrix, maximally_mixed(2).matrix)
        assert np.allclose(load_state("mixed", 1, 0).matrix, maximally_mixed(1).matrix)

    def test_haar_and_mixture(self):
        a = load_state("haar(5)", 2, 0)
        b = load_state("haar(5)", 2, 99)
        assert np.array_equal(a.matrix, b.matrix)  # explicit seed wins
        mix = load_state("mixture(0.25, 7)", 2, 0)
        assert mix.matrix[0, 0].real >= 0.75 - 1e-9

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            load_state("wibble", 2, 0)

    def test_state_file_round_trip(self, tmp_path):
        # rank-deficient states regress the clamp stability, so sweep ranks
        for seed, rank in ((11, 4), (42, 3), (7, 1)):
            rho = sample_density(2, rank, seed)
            path = tmp_path / f"state{seed}.txt"
            save_state_file(path, rho)
            back = load_state_file(path)
            assert np.array_equal(back.matrix, rho.matrix)  # bit-exact

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dim 2\n1 0\n")
        with pytest.raises(ConfigError):
            load_state_file(path)

    def test_non_psd_file_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        lines = ["dim 2", "1 0", "0 0", "0 0", "-0.5 0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_state_file(path)


class TestDispatch:
    def test_ghz4_two_bits(self, tmp_path, run_cli):
        res = run_cli(["cx-entropy", "--state", "ghz4", "--r", "2",
                       "--eta", "0.999", "--units", "bits"], tmp_path)
        assert res.returncode == 0
        assert "H = 2.0 bits" in res.stdout

    def test_erasure_bet(self, tmp_path, run_cli):
        res = run_cli(["erasure", "--state", "mixed", "--n", "1",
                       "--eta", "0.5", "--r", "0"], tmp_path)
        assert res.returncode == 0
        assert "beta*W = 0.0" in res.stdout

    def test_selftest_green(self, tmp_path, run_cli):
        res = run_cli(["selftest"], tmp_path)
        assert res.returncode == 0
        assert all(ln.startswith("ok ") for ln in res.stdout.strip().splitlines())

    def test_config_file_and_flag_priority(self, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "eta": 0.9, "units": "bits"}))
        res = run_cli(["entropy", "--config", str(cfg), "--state", "maxmixed",
                       "--eta", "1.0"], tmp_path)
        assert res.returncode == 0
        assert "H_hyp = 2.0 bits" in res.stdout  # flag eta=1.0 beats config 0.9

    def test_unknown_config_key_exit_2(self, tmp_path, run_cli):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        res = run_cli(["entropy", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2

    def test_bad_units_exit_2(self, tmp_path, run_cli):
        res = run_cli(["entropy", "--units", "furlongs"], tmp_path)
        assert res.returncode == 2

    def test_budget_exceeded_exit_3(self, tmp_path, run_cli):
        res = run_cli(["cx-entropy", "--state", "ghz3", "--r", "3",
                       "--eta", "0.999"], tmp_path, CXTHERM_BUDGET="50")
        assert res.returncode == 3

    def test_decouple_channel_gate_set_exit_2(self, tmp_path, run_cli):
        dephase = GateSet("finite", (
            channel_gate("dephase_a", [np.eye(4) / math.sqrt(2.0), np.kron(Z, I2) / math.sqrt(2.0)]),
        ))
        path = tmp_path / "dephase.gates"
        path.write_text(format_gate_set(dephase))
        res = run_cli(["decouple", "--n", "3", "--gate-set", str(path)], tmp_path)
        assert res.returncode == 2
        assert "decoupling is defined for unitary computations" in res.stderr

    def test_failed_witness_exit_5(self, monkeypatch, capsys):
        def fail(effect, rho, eta):
            raise AssertionError("witness infeasible")

        monkeypatch.setattr(cxentropy, "_verify_witness", fail)
        assert dispatch(["cx-entropy", "--state", "ghz2", "--r", "1"]) == 5
        err = capsys.readouterr().err
        assert "internal error" in err and "config error" not in err

    def test_probe_conjecture_exit_codes(self, tmp_path, run_cli):
        res = run_cli(["probe-conjecture", "--samples", "5", "--r", "1",
                       "--eta", "0.9"], tmp_path)
        assert res.returncode in (0, 4)
        if res.returncode == 4:
            assert "serialized" in res.stdout


class TestEmission:
    def test_csv_json_identical_values(self, tmp_path):
        rows = [{"x": 1.23456789012345678, "label": "a"},
                {"x": math.pi, "label": "b"}]
        meta = {"units": "nats", "seed": 3, "config_hash": "abc"}
        write_csv(tmp_path / "out.csv", rows, ["x", "label"], meta)
        write_json(tmp_path / "out.json", rows, meta)
        with open(tmp_path / "out.csv") as fh:
            got = list(csv.DictReader(fh))
        payload = json.loads((tmp_path / "out.json").read_text())
        assert payload["meta"]["units"] == "nats"
        for crow, jrow in zip(got, payload["rows"]):
            assert float(crow["x"]) == jrow["x"]
            assert crow["label"] == jrow["label"]

    def test_header_includes_units_and_seed(self, tmp_path):
        write_csv(tmp_path / "h.csv", [], ["v"], {"units": "bits", "seed": 9,
                                                  "config_hash": "d00d"})
        header = (tmp_path / "h.csv").read_text().splitlines()[0]
        assert header == "units,seed,config_hash,v"

    def test_empty_rows_header_only(self, tmp_path):
        write_csv(tmp_path / "e.csv", [], ["a"], {"units": "nats", "seed": 0,
                                                  "config_hash": "x"})
        assert len((tmp_path / "e.csv").read_text().splitlines()) == 1

    def test_config_hash_stable(self):
        a = config_hash({"n": 3, "eta": 0.9})
        b = config_hash({"eta": 0.9, "n": 3})
        assert a == b and len(a) == 12

    def test_transition_emits_rows_per_depth(self, tmp_path, run_cli):
        res = run_cli(["transition", "--n", "3", "--r", "2", "--eta", "1.0",
                       "--depths", "0,1", "--samples", "2",
                       "--output", "t.csv"], tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 depths

    def test_transition_pure_state_entropy_not_below_zero(self, tmp_path, run_cli):
        # depth 25 holds a reachable pure state whose entropy rounding once
        # put at -2.2e-16 nats
        res = run_cli(["transition", "--n", "3", "--r", "2", "--eta", "1.0",
                       "--depths", "0,1,2,5,10,25,50,100", "--samples", "20",
                       "--output", "t.csv"], tmp_path)
        assert res.returncode == 0
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert min(float(row["min_entropy"]) for row in rows) >= 0.0


class TestDeterminism:
    def test_selftest_identical_across_threads(self, tmp_path, run_cli):
        outputs = []
        for threads in (1, 2, 8):
            res = run_cli(["selftest", "--threads", str(threads)], tmp_path)
            assert res.returncode == 0
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_transition_files_identical_across_threads(self, tmp_path, run_cli):
        blobs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}.csv"
            res = run_cli(["transition", "--n", "3", "--r", "1", "--eta", "0.9",
                           "--depths", "0,1,2", "--samples", "4",
                           "--seed", "7", "--threads", str(threads),
                           "--output", str(out)], tmp_path)
            assert res.returncode == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
