import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netcontract.cli
import netcontract.metzler
from numpy.testing import assert_allclose

from netcontract import __version__
from netcontract.cli import dispatch
from netcontract.hierarchy import BlockPartition, block_bound_matrix
from netcontract.matrixio import read_matrix
from netcontract.metzler import spectral_abscissa

from generators import large_entry_metzler, random_irreducible_metzler

REPO = Path(__file__).resolve().parents[1]
FHN6 = REPO / "configs" / "fhn6.json"

FLOW_MM = """%%MatrixMarket matrix coordinate real general
2 2 4
1 1 -1.0
1 2 1.0
2 1 1.0
2 2 -1.0
"""


def _reject_constant(token):
    raise ValueError(f"manifest is not strict JSON: it holds {token}")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    # parse_constant sees NaN, Infinity and -Infinity, which no JSON parser
    # but Python's accepts.
    manifest = (json.loads(captured.out, parse_constant=_reject_constant)
                if captured.out.strip() else None)
    return code, manifest, captured.err


@pytest.fixture
def flow_mtx(tmp_path):
    path = tmp_path / "flow2.mtx"
    path.write_text(FLOW_MM)
    return str(path)


@pytest.fixture
def weights14(tmp_path):
    path = tmp_path / "w14.csv"
    path.write_text("1.0\n4.0\n")
    return str(path)


class TestBalanceCommand:
    def test_symmetric_fixed_point(self, capsys, tmp_path):
        mat = tmp_path / "sym.csv"
        np.savetxt(mat, [[-2.0, 1.0], [1.0, -3.0]], delimiter=",")
        code, manifest, err = run(capsys, "balance", "--input", str(mat))
        assert code == 0 and err == ""
        assert sorted(manifest) == ["duration_s", "inputs", "params",
                                    "result", "subcommand", "version"]
        assert manifest["subcommand"] == "balance"
        assert manifest["version"] == __version__
        assert manifest["inputs"] == {"input": str(mat)}
        assert manifest["result"]["d"] == [1.0, 1.0]
        assert manifest["result"]["iterations"] == 0

    def test_output_files(self, capsys, tmp_path):
        mat = tmp_path / "m.csv"
        np.savetxt(mat, [[-1.0, 1.0], [4.0, -4.0]], delimiter=",")
        out = tmp_path / "res.json"
        bal = tmp_path / "balanced.csv"
        code, manifest, _ = run(capsys, "balance", "--input", str(mat),
                                "--output", str(out), "--balanced-output", str(bal))
        assert code == 0
        payload = json.loads(out.read_text())
        assert_allclose(payload["d"], [1.0, 2.0], rtol=1e-10)
        assert_allclose(read_matrix(bal), [[-1.0, 2.0], [2.0, -4.0]], rtol=1e-10)
        assert manifest["result"]["balanced_output"] == str(bal)

    def test_tight_tolerance_ends_cleanly(self, capsys, tmp_path, product_path):
        # Conjugate gradients can break down once the imbalance is at
        # rounding level; balancing then converges or fails with one line.
        mat = tmp_path / "m.csv"
        A = random_irreducible_metzler(np.random.default_rng(0), 200, density=0.05)
        np.savetxt(mat, A, delimiter=",")
        code, manifest, err = run(capsys, "balance", "--input", str(mat), "--tol", "1e-13")
        if code == 0:
            assert err == "" and manifest["result"]["residual"] <= 1e-13
        else:
            assert code == 1 and manifest is None
            assert err.startswith("error: balancing stalled") and err.count("\n") == 1


class TestStabilizeCommand:
    def test_flow_example(self, capsys, flow_mtx, weights14, tmp_path):
        out = tmp_path / "gains.json"
        code, manifest, _ = run(capsys, "stabilize", "--input", flow_mtx,
                                "--weights", weights14, "--target", "-1.0",
                                "--output", str(out))
        assert code == 0
        res = manifest["result"]
        assert_allclose(res["ell_star"], [2.0, 0.5], atol=1e-9)
        assert_allclose(res["d_star"], [1.0, 2.0], rtol=1e-9)
        assert_allclose(res["cost"], 4.0, atol=1e-9)
        assert res["positive_gains"] is True
        assert res["feasibility_residual"] <= 1e-8
        assert res["clamped"] is False and res["iterations"] >= 0
        assert manifest["params"] == {"target": -1.0, "tol": 1e-10}
        payload = json.loads(out.read_text())
        assert payload["ell_star"] == res["ell_star"]

    def test_default_weights(self, capsys, flow_mtx):
        code, manifest, _ = run(capsys, "stabilize", "--input", flow_mtx,
                                "--target", "-1.25")
        assert code == 0
        assert_allclose(manifest["result"]["ell_star"], [1.25, 1.25], atol=1e-9)

    def test_missing_file(self, capsys, tmp_path):
        code, manifest, err = run(capsys, "stabilize", "--input",
                                  str(tmp_path / "nope.csv"), "--target", "-1")
        assert code == 1 and manifest is None
        assert err.startswith("error:")

    @pytest.mark.parametrize("banner", ["coordinate real general\n0 0 0",
                                        "array real general\n0 0"])
    def test_empty_input_rejected(self, capsys, tmp_path, banner):
        mat = tmp_path / "empty.mtx"
        mat.write_text(f"%%MatrixMarket matrix {banner}\n")
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat),
                                  "--target", "-1")
        assert code == 1 and manifest is None
        assert err == "error: expected a non-empty square matrix, got shape (0, 0)\n"

    def test_complex_input_rejected(self, capsys, tmp_path):
        mat = tmp_path / "complex.mtx"
        mat.write_text("%%MatrixMarket matrix coordinate complex general\n"
                       "2 2 2\n1 2 1.0 5.0\n2 1 2.0 0.0\n")
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat),
                                  "--target", "-1")
        assert code == 1 and manifest is None
        assert err == f"error: {mat}: complex Matrix Market entries are not supported\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_non_finite_input_rejected(self, capsys, tmp_path, cell, where):
        rows = [["-1.0", "1.0"], ["1.0", "-1.0"]]
        rows[where[0]][where[1]] = cell
        mat = tmp_path / "bad.csv"
        mat.write_text("".join(",".join(row) + "\n" for row in rows))
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat),
                                  "--target", "-1")
        assert code == 1 and manifest is None
        assert err == "error: matrix has non-finite entries\n"

    def test_reducible_input_rejected(self, capsys, tmp_path):
        mat = tmp_path / "red.csv"
        np.savetxt(mat, [[1.0, 1.0], [0.0, 1.0]], delimiter=",")
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat), "--target", "-3")
        assert code == 1 and manifest is None
        assert err.startswith("error: minimal_effort_stabilize requires an irreducible or "
                              "completely reducible Metzler matrix, got reducible_other")

    def test_block_diagonal_input(self, capsys, tmp_path):
        # Each 1 x 1 block is driven to the target on its own.
        mat = tmp_path / "blocks.csv"
        np.savetxt(mat, [[-1.0, 0.0], [0.0, -2.0]], delimiter=",")
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat), "--target", "-3")
        assert code == 0 and err == ""
        assert manifest["result"]["ell_star"] == [2.0, 1.0]
        assert manifest["result"]["feasible"] is True

    def test_infeasible_run_exits_2(self, capsys, tmp_path):
        # Entries of order 1e8: the balanced closed loop misses the target by
        # 4.11e-8 relative to 1 + |target|, beyond the 1e-8 of `feasible`.
        mat = tmp_path / "big.csv"
        np.savetxt(mat, large_entry_metzler(), delimiter=",", fmt="%.17g")
        code, manifest, err = run(capsys, "stabilize", "--input", str(mat), "--target", "-1")
        assert code == 2 and err == "" and manifest["subcommand"] == "stabilize"
        res = manifest["result"]
        assert res["feasible"] is False
        assert_allclose(res["feasibility_residual"], 4.11e-8, rtol=1e-2)


class TestBoundCommand:
    A = np.array([[-3.0, 1.0, 0.5, 0.0],
                  [1.0, -4.0, 0.0, 0.5],
                  [2.0, 0.0, -5.0, 1.0],
                  [0.0, 2.0, 1.0, -6.0]])

    def test_matches_library(self, capsys, tmp_path):
        mat = tmp_path / "a.csv"
        np.savetxt(mat, self.A, delimiter=",", fmt="%.17g")
        out = tmp_path / "b.csv"
        code, manifest, _ = run(capsys, "bound", "--input", str(mat),
                                "--partition", "2,2", "--norms", "2,2",
                                "--output", str(out))
        assert code == 0
        B = block_bound_matrix(self.A, BlockPartition.uniform([2, 2]))
        assert np.array_equal(read_matrix(out), B)
        assert_allclose(manifest["result"]["b"], B, atol=1e-12)
        assert_allclose(manifest["result"]["abscissa"], spectral_abscissa(B), atol=1e-12)

    def test_bound_classified_once(self, capsys, tmp_path, monkeypatch):
        # `bound` hands B to spectral_abscissa, which builds the off-diagonal
        # CSR once and classifies from it through the private _classify;
        # imbalance does neither.
        seen = []
        classify = netcontract.metzler._classify

        def counting(off):
            seen.append(1)
            return classify(off)

        monkeypatch.setattr(netcontract.metzler, "_classify", counting)
        scans = []
        off_diagonal = netcontract.metzler._off_diagonal

        def counting_scans(M):
            scans.append(1)
            return off_diagonal(M)

        monkeypatch.setattr(netcontract.metzler, "_off_diagonal", counting_scans)
        mat = tmp_path / "a.csv"
        np.savetxt(mat, [[-2.0, 1.0], [3.0, -4.0]], delimiter=",")
        code, manifest, _ = run(capsys, "bound", "--input", str(mat),
                                "--partition", "1,1")
        assert code == 0 and manifest["result"]["abscissa"] is not None
        assert len(seen) == 1
        assert len(scans) == 1

    def test_partition_errors(self, capsys, tmp_path):
        mat = tmp_path / "a.csv"
        np.savetxt(mat, self.A, delimiter=",")
        code, _, err = run(capsys, "bound", "--input", str(mat), "--partition", "3,2")
        assert code == 1 and "partition" in err
        code, _, err = run(capsys, "bound", "--input", str(mat),
                           "--partition", "2,2", "--norms", "2")
        assert code == 1 and "norms" in err


class TestSynthesizeCommand:
    def test_worked_tridiagonal(self, capsys, tmp_path):
        mat = tmp_path / "jhat.csv"
        np.savetxt(mat, [[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]],
                   delimiter=",")
        code, manifest, _ = run(capsys, "synthesize", "--jhat", str(mat),
                                "--rate", "0.5")
        assert code == 0
        assert_allclose(manifest["result"]["v_star"], [5.5, 11.5, 7.5], atol=1e-9)
        assert_allclose(manifest["result"]["cost"], 24.5, atol=1e-8)

    def test_reducible_bound_names_synthesize_gains(self, capsys, tmp_path):
        # The message named minimal_effort_stabilize, a call the user never made.
        mat = tmp_path / "jhat.csv"
        np.savetxt(mat, [[1.0, 1.0], [0.0, 1.0]], delimiter=",")
        code, manifest, err = run(capsys, "synthesize", "--jhat", str(mat), "--rate", "0.5")
        assert code == 1 and manifest is None
        assert err.startswith("error: synthesize_gains requires an irreducible or completely "
                              "reducible Metzler matrix, got reducible_other")
        assert err.count("\n") == 1

    def test_block_diagonal_bound(self, capsys, tmp_path):
        mat = tmp_path / "jhat.csv"
        np.savetxt(mat, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], delimiter=",")
        code, manifest, err = run(capsys, "synthesize", "--jhat", str(mat), "--rate", "0.1")
        assert code == 0 and err == ""
        assert_allclose(manifest["result"]["v_star"], [1.1, 1.1, 0.1], atol=1e-12)
        assert manifest["result"]["feasible"] is True

    def test_hypothesis_violation_is_data_error(self, capsys, tmp_path):
        mat = tmp_path / "jhat.csv"
        np.savetxt(mat, [[-1.0, 1.0], [1.0, -1.0]], delimiter=",")
        code, _, err = run(capsys, "synthesize", "--jhat", str(mat), "--rate", "0.25")
        assert code == 1 and "error:" in err

    def test_infeasible_run_exits_2(self, capsys, tmp_path):
        # The same 1e8 entries with a zero diagonal, so J_hat + eta*I >= 0:
        # the closed loop misses -rate by 4.7e-8 relative to 1 + rate.
        J = large_entry_metzler()
        np.fill_diagonal(J, 0.0)
        mat = tmp_path / "jhat.csv"
        np.savetxt(mat, J, delimiter=",", fmt="%.17g")
        code, manifest, err = run(capsys, "synthesize", "--jhat", str(mat), "--rate", "1")
        assert code == 2 and err == "" and manifest["subcommand"] == "synthesize"
        res = manifest["result"]
        assert res["feasible"] is False
        assert abs(res["closed_loop_abscissa"] + 1.0) / 2.0 > 1e-8


class TestFhnCommands:
    def test_gains(self, capsys):
        code, manifest, _ = run(capsys, "fhn", "gains", "--config", str(FHN6))
        assert code == 0
        assert_allclose(manifest["result"]["gains"],
                        [6.025, 6.05, 6.05, 6.05, 6.075, 6.05], atol=1e-12)
        assert manifest["result"]["certificate"]["passed"] is True

    def test_gains_with_failed_certificate_exit_2(self, capsys, tmp_path):
        cfg = json.loads(FHN6.read_text())
        cfg["gains"] = [5.0] * 6
        bad = tmp_path / "low_gains.json"
        bad.write_text(json.dumps(cfg))
        code, manifest, _ = run(capsys, "fhn", "gains", "--config", str(bad))
        assert code == 2  # valid run, failed certificate
        assert manifest["result"]["certificate"]["passed"] is False

    def test_certify_pass_and_fail(self, capsys, tmp_path):
        code, manifest, _ = run(capsys, "fhn", "certify", "--config", str(FHN6))
        assert code == 0 and manifest["result"]["passed"] is True

        cfg = json.loads(FHN6.read_text())
        cfg["gains"] = [0.0] * 6
        bad = tmp_path / "zero_gains.json"
        bad.write_text(json.dumps(cfg))
        out = tmp_path / "cert.json"
        code, manifest, _ = run(capsys, "fhn", "certify", "--config", str(bad),
                                "--output", str(out))
        assert code == 2  # valid run, failed certificate
        assert manifest["result"]["passed"] is False
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize("eta", [-1.0, 0.0])
    def test_certify_rejects_nonpositive_eta(self, capsys, tmp_path, eta):
        # Exit 0 with passed = true, a certificate for an expanding network.
        cfg = json.loads(FHN6.read_text())
        cfg["eta"] = eta
        bad = tmp_path / "eta.json"
        bad.write_text(json.dumps(cfg))
        code, manifest, err = run(capsys, "fhn", "certify", "--config", str(bad))
        assert code == 1 and manifest is None
        assert err == f"error: eta must be a finite positive number, got {eta!r}\n"

    def test_simulate_deterministic_with_overrides(self, capsys, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        code, manifest, _ = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                                "--t-end", "0.05", "--output", str(out1))
        assert code == 0
        assert manifest["result"]["n_samples"] == 51
        assert manifest["result"]["n_neurons"] == 6
        assert manifest["params"]["t_end"] == 0.05
        header = out1.read_text().splitlines()[0]
        assert header == "t,v1,v2,v3,v4,v5,v6,w1,w2,w3,w4,w5,w6,r"

        code, _, _ = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                         "--t-end", "0.05", "--output", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_trajectory(self, capsys):
        _, m1, _ = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                       "--t-end", "0.01")
        _, m2, _ = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                       "--t-end", "0.01", "--seed", "123")
        assert m2["params"]["seed"] == 123
        assert m1["result"]["final_state"] != m2["result"]["final_state"]

    def test_negative_seed_override_rejected(self, capsys):
        code, manifest, err = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                                  "--t-end", "0.01", "--seed", "-1")
        assert code == 1 and manifest is None
        assert err.startswith("error: seed must be a nonnegative integer, got -1")

    def test_unallocatable_horizon_is_an_error_line(self, capsys):
        # 1e18 steps need 6.94 EiB for the step times alone, beyond any 64-bit
        # address space, so the first allocation fails at once.
        code, manifest, err = run(capsys, "fhn", "simulate", "--config", str(FHN6),
                                  "--t-end", "1e15", "--step", "1e-3")
        assert code == 1 and manifest is None
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_simulate_rejects_zero_period(self, capsys, tmp_path):
        cfg = json.loads(FHN6.read_text())
        cfg["input"] = {"kind": "sinusoid", "params": {"period": 0}}
        bad = tmp_path / "zero_period.json"
        bad.write_text(json.dumps(cfg))
        code, manifest, err = run(capsys, "fhn", "simulate", "--config", str(bad),
                                  "--t-end", "0.01")
        assert code == 1 and manifest is None
        assert "period" in err

    def test_bad_config_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "fhn", "certify", "--config", str(bad))
        assert code == 1 and "error:" in err
        missing = tmp_path / "missing_field.json"
        missing.write_text("{}")
        code, _, err = run(capsys, "fhn", "certify", "--config", str(missing))
        assert code == 1 and "adjacency" in err


class TestConfigErrors:
    """Malformed configs exit 1 with an error line, never a traceback."""

    @pytest.mark.parametrize("edit, named", [
        ({"c": "6"}, "c must be"),
        ({"eta": "0.05"}, "eta must be"),
        ({"gains": {"a": 1}}, "gains must be"),
        ({"input": {"kind": "sinusoid", "params": {"periode": 1.0}}}, "periode"),
        ({"gamm": 5.0}, "gamm"),
        ({"seed": "7"}, "seed must be"),
        ({"input": "sinusoid"}, "input must be"),
        ({"input": {"kind": "sinusoid", "params": ["period"]}}, "params must be"),
        ({"N": [6]}, "N must be"),
        ({"N": 0}, "N must be a positive integer, got 0"),
        ({"N": -1}, "N must be a positive integer, got -1"),
        ({"input": {"kind": "spike_train", "params": {}}},
         "missing spike_train input params ['times', 'values']"),
        ({"eta": True}, "eta must be a finite positive number, got True"),
        ({"adjacency": [["0", "1"], ["1", "0"]], "N": 2}, "adjacency must be numbers"),
        ({"gains": ["7"] * 6}, "gains must be numbers"),
    ], ids=["c-string", "eta-string", "gains-dict", "input-param-typo", "key-typo",
            "seed-string", "input-string", "params-list", "n-list", "n-zero", "n-negative",
            "spike-train-no-params", "eta-bool", "adjacency-strings", "gains-strings"])
    def test_rejected(self, capsys, tmp_path, edit, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(FHN6.read_text()), **edit}))
        code, manifest, err = run(capsys, "fhn", "certify", "--config", str(bad))
        assert code == 1 and manifest is None
        assert err.startswith("error:") and named in err

    def test_missing_input_params_through_entry_point(self, tmp_path):
        # The input's constructor raised a TypeError, which the CLI let
        # through as a traceback.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(FHN6.read_text()),
                                   "input": {"kind": "spike_train", "params": {}}}))
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run([sys.executable, "-m", "netcontract", "fhn", "certify",
                               "--config", str(bad)],
                              capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: missing spike_train input params ['times', 'values']\n"


class TestManifestContract:
    """Exact key sets of every subcommand's manifest; new keys are additive."""

    RESULT_KEYS = {
        "balance": {"balanced_output", "clamped", "d", "iterations", "output", "residual"},
        "stabilize": {"achieved", "clamped", "cost", "d_star", "eigen_residual", "ell_star",
                      "feasibility_residual", "feasible", "iterations", "output",
                      "positive_gains", "target"},
        "bound": {"abscissa", "b", "imbalance", "output"},
        "synthesize": {"closed_loop_abscissa", "cost", "feasible", "output", "rate", "v_star"},
        "fhn simulate": {"final_state", "n_neurons", "n_samples", "output", "t_end"},
        "fhn certify": {"checks", "eta_certified", "eta_requested", "mu_scaled", "output",
                        "passed"},
        "fhn gains": {"certificate", "eta", "gains", "output"},
    }
    INPUT_KEYS = {
        "balance": {"input"}, "stabilize": {"input", "weights"}, "bound": {"input"},
        "synthesize": {"jhat", "weights"}, "fhn simulate": {"config"},
        "fhn certify": {"config"}, "fhn gains": {"config"},
    }
    PARAM_KEYS = {
        "balance": {"tol"}, "stabilize": {"target", "tol"}, "bound": {"norms", "partition"},
        "synthesize": {"rate", "tol"}, "fhn simulate": {"seed", "step", "t_end"},
        "fhn certify": {"eta"}, "fhn gains": {"eta"},
    }

    @pytest.mark.parametrize("name", sorted(RESULT_KEYS))
    def test_keys(self, capsys, tmp_path, flow_mtx, weights14, name):
        jhat = tmp_path / "jhat.csv"
        np.savetxt(jhat, [[1.0, 2.0, 0.0], [8.0, 1.0, 3.0], [0.0, 12.0, 1.0]], delimiter=",")
        argv = {
            "balance": ["--input", flow_mtx],
            "stabilize": ["--input", flow_mtx, "--weights", weights14, "--target", "-1"],
            "bound": ["--input", flow_mtx, "--partition", "1,1"],
            "synthesize": ["--jhat", str(jhat), "--rate", "0.5"],
            "fhn simulate": ["--config", str(FHN6), "--t-end", "0.01"],
            "fhn certify": ["--config", str(FHN6)],
            "fhn gains": ["--config", str(FHN6)],
        }[name]
        code, manifest, _ = run(capsys, *name.split(), *argv)
        assert code == 0 and manifest["subcommand"] == name
        assert set(manifest) == {"duration_s", "inputs", "params", "result",
                                 "subcommand", "version"}
        assert set(manifest["inputs"]) == self.INPUT_KEYS[name]
        assert set(manifest["params"]) == self.PARAM_KEYS[name]
        assert set(manifest["result"]) == self.RESULT_KEYS[name]


class TestBadTol:
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["balance", "stabilize", "synthesize"])
    def test_rejected(self, capsys, tmp_path, command, tol):
        mat = tmp_path / "m.csv"
        np.savetxt(mat, [[1.0, 2.0], [8.0, 1.0]], delimiter=",")
        args = {"balance": ["--input", str(mat)],
                "stabilize": ["--input", str(mat), "--target", "-1"],
                "synthesize": ["--jhat", str(mat), "--rate", "0.5"]}[command]
        code, manifest, err = run(capsys, command, *args, f"--tol={tol}")
        assert code == 1 and manifest is None
        assert err.startswith("error: tol must be a finite positive number")


class TestUsage:
    def test_parser_built_once(self, capsys, flow_mtx):
        netcontract.cli._build_parser.cache_clear()
        for _ in range(3):
            assert run(capsys, "balance", "--input", flow_mtx)[0] == 0
        info = netcontract.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_unknown_subcommand(self, capsys):
        code, manifest, err = run(capsys, "explode")
        assert code == 1 and manifest is None and "error:" in err

    def test_missing_required_argument(self, capsys):
        code, _, err = run(capsys, "balance")
        assert code == 1 and "error:" in err

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()
        assert dispatch(["fhn", "--help"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        mat = tmp_path / "sym.csv"
        np.savetxt(mat, [[-2.0, 1.0], [1.0, -2.0]], delimiter=",")
        proc = subprocess.run([sys.executable, "-m", "netcontract",
                               "balance", "--input", str(mat)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["d"] == [1.0, 1.0]

    def test_module_entry_point_fhn_certify(self):
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.run([sys.executable, "-m", "netcontract", "fhn", "certify",
                               "--config", "configs/fhn6.json"],
                              capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(proc.stdout)
        assert manifest["subcommand"] == "fhn certify"
        assert manifest["result"]["passed"] is True


class TestNonFiniteNumbers:
    """NaN and infinite numbers on the command line or in a config exit 1
    with an error line and print no manifest."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag, option, named", [
        ("stabilize", "--input", "--target", "target must be"),
        ("synthesize", "--jhat", "--rate", "eta must be"),
    ])
    def test_option_rejected(self, capsys, tmp_path, command, flag, option, named, value):
        mat = tmp_path / "m.csv"
        np.savetxt(mat, [[1.0, 2.0], [8.0, 1.0]], delimiter=",")
        code, manifest, err = run(capsys, command, flag, str(mat), f"{option}={value}")
        assert code == 1 and manifest is None
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("edit, named", [
        ({"gains": [6.0, 6.0, float("nan"), 6.0, 6.0, 6.0]}, "gains"),
        ({"gains": [6.0, 6.0, float("inf"), 6.0, 6.0, 6.0]}, "gains"),
        ({"input": {"kind": "spike_train",
                    "params": {"times": [0.0, 0.5, 1.0], "values": [0.0, float("nan"), 0.0]}}},
         "values"),
        ({"input": {"kind": "spike_train",
                    "params": {"times": [0.0, float("inf")], "values": [0.0, 1.0]}}},
         "times"),
    ], ids=["nan-gain", "inf-gain", "nan-spike-value", "inf-spike-time"])
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_config_rejected(self, capsys, tmp_path, command, edit, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(FHN6.read_text()), **edit}))
        code, manifest, err = run(capsys, "fhn", command, "--config", str(bad))
        assert code == 1 and manifest is None
        assert err.startswith("error:") and named in err


def test_bound_reports_reducible_abscissa(capsys, tmp_path):
    # Two uncoupled blocks give a reducible B = diag(-1, -1).
    A = np.array([[-1.0, 0.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0],
                  [0.0, 0.0, -2.0, 1.0],
                  [0.0, 0.0, 1.0, -2.0]])
    mat = tmp_path / "a.csv"
    np.savetxt(mat, A, delimiter=",")
    code, manifest, _ = run(capsys, "bound", "--input", str(mat), "--partition", "2,2")
    assert code == 0
    B = np.array(manifest["result"]["b"])
    assert_allclose(manifest["result"]["abscissa"], max(np.linalg.eigvals(B).real),
                    atol=1e-12)
    assert_allclose(manifest["result"]["abscissa"], -1.0, atol=1e-12)
