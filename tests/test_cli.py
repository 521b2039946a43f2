import csv
import json
import math
import re

import numpy as np
import pytest

from cxtherm import cli, cxentropy
from cxtherm.cli import dispatch, load_state, load_state_file, save_state_file
from cxtherm.errors import ConfigError
from cxtherm.experiments import decoupling_simulate
from cxtherm.gates import I2, GateSet, Z, channel_gate, default_gate_set, format_gate_set
from cxtherm.registers import DensityOperator, ghz_state, maximally_mixed, register, zero_state
from cxtherm.reporting import config_hash, write_csv, write_json
from cxtherm.sampling import sample_density, sample_pure_state


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

    def test_trailing_digits_set_n_for_haar_and_mixture(self):
        assert np.array_equal(load_state("haar4", 2, 3).matrix, sample_pure_state(4, 3).matrix)
        assert np.array_equal(load_state("haar4(5)", 2, 3).matrix, sample_pure_state(4, 5).matrix)
        assert load_state("mixture4", 2, 0).n == 4
        assert load_state("mixture3(0.25, 7)", 2, 0).n == 3

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            load_state("wibble", 2, 0)

    @pytest.mark.parametrize("spec", ["haar(abc)", "haar3(1,2)", "haar(2.5)", "mixture(x,2)",
                                      "mixture(0.1,y)", "mixture(0.1,2,3)", "mixture(2)", "mixture(nan)"])
    def test_bad_spec_arguments_name_the_spec(self, spec):
        with pytest.raises(ConfigError, match=re.escape(f"state spec {spec!r}: ")):
            load_state(spec, 2, 0)

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

    @pytest.mark.parametrize("dim", [0, -4, 3])
    def test_dimension_not_a_power_of_two_names_file_and_dim(self, tmp_path, dim):
        # rejected before the entries are read, so none are written
        path = tmp_path / "odd.txt"
        path.write_text(f"dim {dim}\n")
        with pytest.raises(ConfigError, match=re.escape(f"state file {path}: dim {dim} is not a power of two")):
            load_state_file(path)

    @pytest.mark.parametrize("text, message", [
        ("dim x\n", "must start with 'dim d', got 'dim x'"),
        ("dim\n1 0\n", "must start with 'dim d', got 'dim'"),
        ("1 0\n0 0\n", "must start with 'dim d', got '1 0'"),
        ("", "must start with 'dim d', got ''"),
        ("dim 2\n1 0\n0 0\n0 0\n", "dim 2 needs 4 entry lines, found 3"),
        ("dim 2\n1 0\n0 x\n0 0\n0 0\n", "malformed entry line '0 x', expected 're im'"),
        ("dim 2\n1 0\n0\n0 0\n0 0\n", "malformed entry line '0', expected 're im'"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"state file {path}: {message}")):
            load_state_file(path)

    def test_non_psd_file_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        lines = ["dim 2", "1 0", "0 0", "0 0", "-0.5 0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"state file {path}: invalid density matrix")):
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

    @pytest.mark.parametrize("text", ["dim x\n", "dim 1\n1 x\n"])
    def test_malformed_state_file_exit_2(self, tmp_path, run_cli, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        res = run_cli(["entropy", "--state", str(path)], tmp_path)
        assert res.returncode == 2
        assert f"state file {path}: " in res.stderr

    def test_bad_state_spec_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["entropy", "--state", "mixture(x,2)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: state spec 'mixture(x,2)': ")

    def test_bad_units_exit_2(self, tmp_path, run_cli):
        res = run_cli(["entropy", "--units", "furlongs"], tmp_path)
        assert res.returncode == 2

    def test_budget_exceeded_exit_3(self, tmp_path, run_cli):
        res = run_cli(["cx-entropy", "--state", "ghz3", "--r", "3",
                       "--eta", "0.999"], tmp_path, CXTHERM_BUDGET="50")
        assert res.returncode == 3

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_malformed_or_negative_budget_exit_2(self, value, tmp_path, run_cli):
        res = run_cli(["cx-entropy", "--state", "ghz3", "--r", "1"], tmp_path, CXTHERM_BUDGET=value)
        assert res.returncode == 2
        assert res.stderr == (
            f"config error: CXTHERM_BUDGET must be a non-negative integer, got {value!r}\n"
        )

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

    @pytest.mark.parametrize("args", [
        ["compress", "--n", "2", "--state", "half.state", "--epsilon", "0.1"],
        ["erasure", "--n", "2", "--state", "half.state", "--eta", "0.9"],
    ], ids=["compress", "erasure"])
    def test_infeasible_query_exit_2(self, args, tmp_path, monkeypatch, capsys):
        # a subnormalized state that no mask keeps to 1 - eps or eta is the
        # caller's config, not an internal failure
        monkeypatch.chdir(tmp_path)
        save_state_file(tmp_path / "half.state", DensityOperator(register(2), 0.5 * np.eye(4) / 4))
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert err == "config error: no effect in M_1 is feasible with tr(Q rho) >= 0.9\n"

    def test_failed_compression_replay_exit_5(self, tmp_path, monkeypatch, capsys):
        # a replay that loses half the population fails its explicit check
        apply = cli.thermo.apply_circuit
        monkeypatch.setattr(cli.thermo, "apply_circuit",
                            lambda c, rho: DensityOperator(register(2), 0.5 * apply(c, rho).matrix))
        monkeypatch.chdir(tmp_path)
        assert dispatch(["compress", "--n", "2", "--state", "zero", "--epsilon", "0.1"]) == 5
        assert "internal error: AssertionError: compression keeps 0.5 < 1 - eps = 0.9" in capsys.readouterr().err

    @pytest.mark.parametrize("args, name", [
        *((["decouple", f"--delta={v}"], "delta") for v in ("nan", "inf", "-inf", "0", "5")),
        *((["quench", "--n", "4", f"--{name}={v}"], name)
          for name in ("coupling", "transverse") for v in ("nan", "inf", "-inf")),
    ])
    def test_non_finite_or_out_of_range_float_exit_2(self, args, name, tmp_path, monkeypatch, capsys):
        # every real coupling and field is in range, so only delta has an
        # out-of-range finite value
        monkeypatch.chdir(tmp_path)
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{name} must" in err

    def test_numerical_failure_exit_5(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which otherwise reads as a config error
        def fail(rho, eta):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "hyp_entropy", fail)
        monkeypatch.chdir(tmp_path)
        assert dispatch(["entropy", "--state", "ghz2"]) == 5
        err = capsys.readouterr().err
        assert "internal error: LinAlgError" in err and "config error" not in err

    @pytest.mark.parametrize("args, name", [
        (["transition", "--samples", "0"], "samples"),
        (["quench", "--times", "0:1:0"], "times"),
        (["entangle", "--samples", "0"], "trials"),
        (["probe-conjecture", "--samples", "0"], "trials"),
        (["erasure", "--r", "-1"], "r"),
        (["compress", "--r", "-1"], "r"),
        (["entangle", "--n", "1"], "n"),
        (["quench", "--n", "1"], "n"),
        (["decouple", "--n", "1"], "n_a"),
        (["decouple", "--n", "3", "--k", "5"], "k"),
        (["decouple", "--n", "3", "--k", "-1"], "k"),
        (["decouple", "--n", "3", "--r0", "-1"], "r0"),
        (["decouple", "--n", "3", "--r0", "3"], "r0"),
        (["transition", "--depths", ""], "depths"),
        (["quench", "--times", "0:3"], "--times"),
        (["quench", "--times", "0:x:3"], "--times"),
        (["quench", "--times", "0:3:2.5"], "--times"),
        (["quench", "--times", "0:3:1e3"], "--times"),
        (["quench", "--times", "0:3:-1"], "--times"),
        (["quench", "--times", "nan:3:3"], "--times"),
        (["quench", "--times", "0:inf:3"], "--times"),
    ])
    def test_empty_counts_and_grids_exit_2(self, args, name, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert dispatch(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"{name} must" in err

    @pytest.mark.parametrize("text, line", [
        ("connectivity all-to-all\ngate cnot\n", "'gate cnot'"),
        ("connectivity\n", "'connectivity'"),
        ("connectivity chain\ngate dephase channel\n", "'gate dephase channel'"),
        ("connectivity chain\ngate g channel two\n", "'gate g channel two'"),
        ("connectivity chain\ngate g unitary\n" + "1 0\n" * 4, "'gate g unitary'"),
    ], ids=["gate-without-kind", "bare-connectivity", "channel-without-count", "channel-count-not-a-number",
            "four-line-matrix"])
    def test_malformed_gate_set_exit_2(self, text, line, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.gates").write_text(text)
        assert dispatch(["cx-entropy", "--gate-set", "bad.gates"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot load gate set: ") and line in err

    def test_decouple_reference_is_last_qubit_of_loaded_state(self, tmp_path, run_cli):
        # ghz4 under the default --n 3: A is three qubits, so discarding all of
        # them (k = 3) is allowed and leaves the 1-qubit reference
        res = run_cli(["decouple", "--state", "ghz4", "--k", "3", "--output", "d.csv"], tmp_path)
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "d.csv") as fh:
            [row] = list(csv.DictReader(fh))
        want = decoupling_simulate(ghz_state(4), 3, default_gate_set(), 1, 2, 3, 0.999, 0.25, 0)
        assert float(row["relative_entropy"]) == pytest.approx(want.relative_entropy, abs=1e-11)
        assert float(row["bound_k_bits"]) == pytest.approx(want.bound_k_bits, abs=1e-11)
        assert row["success"] == str(want.success).lower()

    def test_probe_conjecture_units_bits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        slack = {}
        for units in ("nats", "bits"):
            args = ["probe-conjecture", "--samples", "5", "--r", "1", "--eta", "0.9",
                    "--units", units, "--output", f"{units}.csv"]
            assert dispatch(args) == 0
            assert f" {units} over 5 trials" in capsys.readouterr().out
            with open(tmp_path / f"{units}.csv") as fh:
                [row] = list(csv.DictReader(fh))
            assert row["units"] == units
            slack[units] = float(row["min_slack"])
        assert slack["nats"] > 0.0
        assert slack["bits"] == pytest.approx(slack["nats"] / math.log(2.0), rel=1e-11)

    def test_probe_conjecture_exit_codes(self, tmp_path, run_cli):
        res = run_cli(["probe-conjecture", "--samples", "5", "--r", "1",
                       "--eta", "0.9"], tmp_path)
        assert res.returncode in (0, 4)
        if res.returncode == 4:
            assert "serialized" in res.stdout


# every table's columns, in order, after the units, seed and config_hash columns
CSV_HEADERS = [
    (["entropy"], "value,primal,dual,eta"),
    (["cx-entropy", "--r", "0"], "value,certainty,r,eta,reduced"),
    (["erasure", "--n", "1", "--r", "0"],
     "beta_work,resets,gates,success_probability,protocol"),
    (["compress", "--n", "2", "--r", "0"], "m,kept_qubits,success_probability"),
    (["transition", "--depths", "0", "--samples", "1", "--r", "0"],
     "depth,gate_count,samples,zero_certified_fraction,mean_entropy,min_entropy,"
     "mean_entropy_lower,certainty"),
    (["entangle", "--samples", "1"],
     "trials,max_abs_delta,coarse_violations,refined_violations"),
    (["quench", "--n", "2", "--times", "0:1:2"], "t,E,dE_dt,bound"),
    (["decouple", "--n", "2", "--r0", "0", "--r1", "0"],
     "success,relative_entropy,threshold,bound_k_bits,conditional_on_conjecture"),
    (["probe-conjecture", "--samples", "1", "--r", "0"], "trials,min_slack,violation"),
]


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

    @pytest.mark.parametrize("args, columns", CSV_HEADERS, ids=[a[0] for a, _ in CSV_HEADERS])
    def test_csv_header_per_subcommand(self, args, columns, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert dispatch([*args, "--output", "h.csv"]) == 0
        header = (tmp_path / "h.csv").read_text().splitlines()[0]
        assert header == "units,seed,config_hash," + columns

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


# a fresh process: numpy only until a continuous-gate query loads the heuristic
IMPORT_GUARD = """
import sys
import cxtherm.cli
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded() == [], loaded()
for cmd in ("cx-entropy", "erasure", "compress"):
    assert cxtherm.cli.dispatch([cmd, "--state", "ghz4", "--r", "1"]) == 0
assert loaded() == [], loaded()
"""


def test_cli_queries_on_finite_sets_import_no_scipy(tmp_path, run_python):
    res = run_python(IMPORT_GUARD, tmp_path)
    assert res.returncode == 0, res.stderr
