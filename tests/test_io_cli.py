"""File formats and the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import viterbipar
from viterbipar import ModelSpec, PathVector
from viterbipar import errors
from viterbipar import io as vio
from viterbipar.cli import main
from viterbipar.parallel import SweepRow
from viterbipar.solver import SolverConfig

from conftest import random_spikes, reference_write_sweep_csv

# every package error: (exit code, stderr label)
_ERROR_EXITS = {
    errors.ViterbiParError: (2, "configuration error"),
    errors.ShapeError: (2, "configuration error"),
    errors.PlanError: (2, "configuration error"),
    errors.ConfigError: (2, "configuration error"),
    errors.UnsupportedModeError: (2, "configuration error"),
    errors.DivergenceError: (4, "solver divergence"),
    errors.CertificationError: (5, "certification error"),
    errors.UnsupportedBoundError: (5, "certification error"),
}


def _exit_at_once(objective, config):
    """Stands in for the segment solve in a worker process that dies."""
    os._exit(1)


@pytest.fixture
def runner():
    return CliRunner()


def write_lg_config(path, a=0.5, sigma_sq=1.0, d=1, chi=None, sigma0="unit"):
    cfg = {
        "signal": {
            "type": "linear_gaussian",
            "A": (a * np.eye(d)).tolist(),
            "b": [0.0] * d,
            "Sigma": (sigma_sq * np.eye(d)).tolist(),
            "b0": [0.0] * d,
            "Sigma0": "stationary" if sigma0 == "stationary" else np.eye(d).tolist(),
        },
        "likelihood": {"type": "gaussian_emission", "C": np.eye(d).tolist(), "R": np.eye(d).tolist()},
    }
    if chi is not None:
        cfg["chi"] = chi
    Path(path).write_text(json.dumps(cfg))
    return path


def _run_cli(args, timeout=60):
    """The CLI in a fresh interpreter, killed after ``timeout`` seconds, so
    that a loop that never ends fails the test and numpy warnings reach
    the captured stderr."""
    src = str(Path(viterbipar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "viterbipar.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _simulated_solve_args(runner, tmp_path):
    """Simulate a conjugate model at n=20 and return ``solve`` arguments for it."""
    cfg = write_lg_config(tmp_path / "m.json")
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "20", "--seed", "8", "--out", str(sim)])
    return ["solve", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
            "--out", str(tmp_path / "x")]


def _two_segment_args(runner, tmp_path, command):
    """Simulate a conjugate model at n=23 and return the solve-par or sweep
    arguments that solve it in two segments."""
    cfg = write_lg_config(tmp_path / "m.json", sigma0="stationary")
    sim = tmp_path / "sim"
    runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "23", "--seed", "3", "--out", str(sim)])
    args = [command, "--model", str(cfg), "--obs", str(sim / "observations.csv"), "--l", "2"]
    if command == "solve-par":
        return args + ["--out", str(tmp_path / "par"), "--delta", "3"]
    return args + ["--out", str(tmp_path / "sweep.csv"), "--deltas", "0,3"]


class TestTables:
    def test_csv_roundtrip_bit_exact(self, tmp_path, rng):
        arr = rng.standard_normal((17, 3)) * np.exp(rng.standard_normal((17, 3)) * 8)
        f = tmp_path / "p.csv"
        vio.write_path_csv(f, arr)
        back = vio.read_table_csv(f, "x")
        assert np.array_equal(arr, back)
        assert f.read_text().splitlines()[0] == "t,x0,x1,x2"

    def test_observation_and_factor_headers(self, tmp_path):
        vio.write_observations_csv(tmp_path / "y.csv", np.zeros((2, 2)))
        vio.write_table_csv(tmp_path / "z.csv", np.zeros((2, 1)), "z")
        assert (tmp_path / "y.csv").read_text().splitlines()[0] == "t,y0,y1"
        assert (tmp_path / "z.csv").read_text().splitlines()[0] == "t,z0"
        with pytest.raises(Exception):
            vio.read_observations_csv(tmp_path / "z.csv")

    def test_spike_bundle_roundtrip(self, tmp_path):
        spikes = random_spikes(4, 3, 9)
        manifest = vio.write_spike_bundle(tmp_path / "spk", spikes, bin_width=0.01)
        back, rates, width = vio.read_spike_bundle(manifest)
        assert np.array_equal(spikes, back)
        assert width == 0.01
        np.testing.assert_allclose(rates, spikes.mean(axis=(0, 1)))

    def test_spike_bundle_bytes_for_float_int_and_bool(self, tmp_path):
        spikes = random_spikes(5, 3, 11)
        want = []
        for k in range(3):  # one csv row of ints per time bin
            with open(tmp_path / f"want_{k}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                for t in range(11):
                    writer.writerow([int(v) for v in spikes[t, k]])
            want.append((tmp_path / f"want_{k}.csv").read_bytes())
        for kind in (float, np.int64, bool):
            out = tmp_path / np.dtype(kind).name
            vio.write_spike_bundle(out, spikes.astype(kind))
            assert [(out / f"trial_{k}.csv").read_bytes() for k in range(3)] == want, kind

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spike_bundle_rejects_non_finite_before_writing(self, tmp_path, bad):
        spikes = random_spikes(3, 2, 4)
        spikes[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            vio.write_spike_bundle(tmp_path / "spk", spikes)
        assert not (tmp_path / "spk").exists()

    @pytest.mark.parametrize("bad", [2, 0.5, -1])
    def test_spike_bundle_rejects_entries_other_than_0_and_1_before_writing(self, tmp_path, bad):
        spikes = random_spikes(3, 2, 4).astype(np.asarray(bad).dtype)
        spikes[2, 1, 0] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            vio.write_spike_bundle(tmp_path / "spk", spikes)
        assert not (tmp_path / "spk").exists()

    @pytest.mark.parametrize("text, match", [
        ("t,x0,x1\r\n0,1.5\r\n", "line 2 has 2 fields, expected 3"),
        ("t,x0,x1\r\n0,1.5,2\r\n\r\n1,1.5,2,3\r\n", "line 4 has 4 fields, expected 3"),
        ("t,x0,x1\r\n0,1.5,2,\r\n", "line 2 has 4 fields, expected 3"),
        ("t,x0,x1\r\n0,1.5,abc\r\n", "could not convert"),
        ("t,x0,x1\r\n", "no data rows"),
        ("t,x0,x1\r\n\r\n \r\n", "no data rows"),
        ("", "expected header"),
    ])
    def test_malformed_table_raises_config_error_naming_the_file(self, tmp_path, text, match):
        from viterbipar.errors import ConfigError

        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=match) as info:
            vio.read_table_csv(path, "x")
        assert str(info.value).startswith(f"{path}: ")

    def test_spike_trial_of_the_wrong_width_raises_config_error(self, tmp_path):
        from viterbipar.errors import ConfigError

        manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(3, 2, 4))
        (tmp_path / "spk" / "trial_1.csv").write_bytes(b"0,1,1\r\n1,0,1,0\r\n0,0,1\r\n1,1,1\r\n")
        with pytest.raises(ConfigError, match="trial_1.csv: line 2 has 4 fields, expected 3"):
            vio.read_spike_bundle(manifest)

    def test_spike_trials_of_different_lengths_raise_config_error(self, tmp_path):
        from viterbipar.errors import ConfigError

        manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(3, 2, 4))
        with open(tmp_path / "spk" / "trial_1.csv", "ab") as fh:
            fh.write(b"0,1,0\r\n")
        with pytest.raises(ConfigError, match=r"manifest.json: trial files differ in row count: \[4, 5\]"):
            vio.read_spike_bundle(manifest)

    @pytest.mark.parametrize("with_bounds", [False, True])
    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_sweep_csv_bytes_match_reference(self, tmp_path, with_bounds, n_rows):
        rows = [SweepRow(0, np.float64(0.1), 1.5, np.float64(2.0) / 3),
                SweepRow(np.int64(10), 1e-300, -0.0, float("inf")),
                SweepRow(40, float("nan"), 5e-324, 12.0)][:n_rows]
        bounds = [np.float64(1.25), float("inf"), 3][:n_rows] if with_bounds else None
        vio.write_sweep_csv(tmp_path / "bulk.csv", rows, bounds)
        reference_write_sweep_csv(tmp_path / "ref.csv", rows, bounds)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_model_config_loads_stochvol_with_factor_csv(self, tmp_path):
        factors = np.linspace(-1, 1, 8).reshape(8, 1)
        vio.write_table_csv(tmp_path / "z.csv", factors, "z")
        cfg = {
            "signal": {
                "type": "linear_gaussian",
                "A": [[0.5, 0.0], [0.0, 0.5]],
                "b": [0.0, 0.0],
                "Sigma": [[1.0, 0.0], [0.0, 1.0]],
                "b0": [0.0, 0.0],
                "Sigma0": [[1.0, 0.0], [0.0, 1.0]],
            },
            "likelihood": {"type": "stoch_vol", "B": [[1.0], [0.5]], "factors_csv": "z.csv"},
        }
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        spec = vio.load_model_config(tmp_path / "m.json")
        model = ModelSpec(spec.signal, spec.likelihood, observations=np.zeros((8, 2)))
        assert model.likelihood.factor_means.shape == (8, 2)

    def test_bad_config_raises(self, tmp_path):
        (tmp_path / "bad.json").write_text("{'not json'")
        from viterbipar.errors import ConfigError

        with pytest.raises(ConfigError):
            vio.load_model_config(tmp_path / "bad.json")


class TestCli:
    def test_simulate_deterministic_bytes(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.95, sigma0="stationary")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        r1 = runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "400", "--seed", "7", "--out", str(out1)])
        r2 = runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "400", "--seed", "7", "--out", str(out2)])
        assert r1.exit_code == 0, r1.output
        assert (out1 / "states.csv").read_bytes() == (out2 / "states.csv").read_bytes()
        assert (out1 / "observations.csv").read_bytes() == (out2 / "observations.csv").read_bytes()
        summary = json.loads(r1.output)
        assert summary["lag1_autocorrelation"] == pytest.approx(0.95, abs=0.05)

    def test_solve_writes_solution_and_report(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "50", "--seed", "1", "--out", str(sim)])
        out = tmp_path / "sol"
        r = runner.invoke(
            main,
            ["solve", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
             "--out", str(out), "--grad-tol", "1e-10"],
        )
        assert r.exit_code == 0, r.output
        report = json.loads((out / "report.json").read_text())
        assert report["final_grad_norm"] <= 1e-10
        assert report["converged"] is True
        assert report["grad_evals"] == report["iterations"] + 1
        assert report["value_evals"] >= 2
        sol = vio.read_table_csv(out / "solution.csv", "x")
        assert sol.shape == (51, 1)

    def test_max_iters_stop_reported_not_converged(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "51", "--seed", "1", "--out", str(sim)])
        obs = str(sim / "observations.csv")
        r1 = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", obs, "--out", str(tmp_path / "a"),
                                  "--max-iters", "2", "--grad-tol", "1e-12"])
        r2 = runner.invoke(main, ["solve-par", "--model", str(cfg), "--obs", obs, "--out", str(tmp_path / "b"),
                                  "--l", "2", "--delta", "3", "--max-iters", "2", "--grad-tol", "1e-12"])
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        assert json.loads(r1.output)["converged"] is False
        segments = json.loads(r2.output)["per_segment"]
        assert len(segments) == 2
        assert all(seg["converged"] is False for seg in segments)
        assert all(seg["grad_evals"] == 3 for seg in segments)
        assert all(seg["value_evals"] >= 3 for seg in segments)

    def test_stop_reason_and_search_counts_reported(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "51", "--seed", "1", "--out", str(sim)])
        obs = str(sim / "observations.csv")
        r1 = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", obs, "--out", str(tmp_path / "a"),
                                  "--grad-tol", "1e-10"])
        r2 = runner.invoke(main, ["solve-par", "--model", str(cfg), "--obs", obs, "--out", str(tmp_path / "b"),
                                  "--l", "2", "--delta", "3", "--max-iters", "2", "--grad-tol", "1e-12"])
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        for entry in [json.loads(r1.output)] + json.loads(r2.output)["per_segment"]:
            # backtracking: the start and final values, one per tested step and halving
            assert entry["value_evals"] == (2 + entry["iterations"] - entry["coasting_steps"]
                                            + entry["halvings"])
        assert json.loads(r1.output)["stop_reason"] == "tolerance"
        assert [seg["stop_reason"] for seg in json.loads(r2.output)["per_segment"]] == ["max_iters"] * 2

    def test_solve_par_degenerate_equals_solve(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "23", "--seed", "2", "--out", str(sim)])
        obs = str(sim / "observations.csv")
        a, b = tmp_path / "a", tmp_path / "b"
        r1 = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", obs, "--out", str(a), "--grad-tol", "1e-11"])
        r2 = runner.invoke(main, ["solve-par", "--model", str(cfg), "--obs", obs, "--out", str(b),
                                  "--l", "1", "--delta", "0", "--grad-tol", "1e-11",
                                  "--boundary-mode", "full-prior"])
        assert r1.exit_code == 0 and r2.exit_code == 0, r1.output + r2.output
        assert (a / "solution.csv").read_bytes() == (b / "solution.csv").read_bytes()

    def test_solve_par_worker_count_invariance(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", sigma0="stationary")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "23", "--seed", "3", "--out", str(sim)])
        obs = str(sim / "observations.csv")
        outs = []
        for w in (1, 2):
            out = tmp_path / f"w{w}"
            r = runner.invoke(main, ["solve-par", "--model", str(cfg), "--obs", obs, "--out", str(out),
                                     "--l", "4", "--delta", "3", "--workers", str(w), "--grad-tol", "1e-11"])
            assert r.exit_code == 0, r.output
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_certify_hand_case(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        r = runner.invoke(main, ["certify", "--model", str(cfg)])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["feasible"] is True
        assert payload["gamma_interval"]["lo"] == pytest.approx(0.3819660112501051, abs=1e-9)
        assert payload["gamma_interval"]["hi"] == 1.0

    def test_certify_infeasible_exits_5(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=1.5)
        r = runner.invoke(main, ["certify", "--model", str(cfg)])
        assert r.exit_code == 5
        payload = json.loads(r.output)
        assert payload["feasible"] is False
        assert "theta" in payload["reason"]

    def test_certify_semi_log_concavity_failure_cited(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        r = runner.invoke(main, ["certify", "--model", str(cfg), "--lambda-g", "2.0"])
        assert r.exit_code == 5
        assert "semi-log-concavity" in json.loads(r.output)["reason"]

    def test_certify_gamma_override(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        r = runner.invoke(main, ["certify", "--model", str(cfg), "--gamma", "0.8"])
        payload = json.loads(r.output)
        assert payload["chosen_gamma"] == 0.8
        assert payload["chosen_lambda"] == pytest.approx(0.2375, abs=1e-12)

    def test_certify_lambda_override_validated(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        r = runner.invoke(main, ["certify", "--model", str(cfg), "--gamma", "0.8", "--lam", "0.1"])
        assert r.exit_code == 0
        assert json.loads(r.output)["chosen_lambda"] == 0.1
        r = runner.invoke(main, ["certify", "--model", str(cfg), "--gamma", "0.8", "--lam", "0.5"])
        assert r.exit_code == 5  # above the admissible cap

    def test_certify_huber_config(self, runner, tmp_path):
        cfg = {
            "signal": {
                "type": "huber",
                "drift_map": {"kind": "tanh", "scale": 0.1},
                "b": [0.0, 0.0],
                "huber_c": 1.0,
                "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0, "L_A": 0.1, "L_grad_A": 0.1},
            },
            "likelihood": {"type": "student_t", "dof": 1.0},
        }
        (tmp_path / "h.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["certify", "--model", str(tmp_path / "h.json"), "--lambda-g", "-2.0"])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["zeta"] == pytest.approx(0.89, abs=1e-12)
        assert payload["theta"] == pytest.approx(0.1, abs=1e-12)
        r = runner.invoke(main, ["certify", "--model", str(tmp_path / "h.json")])
        assert r.exit_code == 5  # log-concave alone is not enough here

    def test_io_error_exit_code(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "5", "--seed", "1", "--out", str(sim)])
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        r = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
                                 "--out", str(blocker / "nested")])
        assert r.exit_code == 3

    def test_sweep_table_with_bound_column(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.8, sigma0="stationary")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "47", "--seed", "5", "--out", str(sim)])
        table = tmp_path / "sweep.csv"
        r = runner.invoke(main, ["sweep", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
                                 "--out", str(table), "--l", "4", "--deltas", "0,4,8",
                                 "--grad-tol", "1e-11"])
        assert r.exit_code == 0, r.output
        lines = table.read_text().splitlines()
        assert lines[0] == "delta,rel_error,wall_clock_s,speedup,segment_bound"
        assert len(lines) == 4
        rels = [float(l.split(",")[1]) for l in lines[1:]]
        assert rels[0] == max(rels)
        bounds = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(b > 0 for b in bounds)
        assert json.loads(r.output)["boundary_mode"] == "marginal-prior"

    def test_sweep_on_zero_observations_is_config_error(self, runner, tmp_path):
        # the full solve of all-zero data is the zero path: no relative error
        cfg = write_lg_config(tmp_path / "m.json", a=0.8, sigma0="stationary")
        obs = tmp_path / "zeros.csv"
        vio.write_observations_csv(obs, np.zeros((48, 1)))
        r = runner.invoke(main, ["sweep", "--model", str(cfg), "--obs", str(obs),
                                 "--out", str(tmp_path / "sweep.csv"), "--l", "4",
                                 "--deltas", "0,4"])
        assert r.exit_code == 2, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert "zero path" in lines[0]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["solve-par", "sweep"])
    def test_dead_worker_exits_6(self, runner, tmp_path, monkeypatch, command):
        args = _two_segment_args(runner, tmp_path, command)
        monkeypatch.setattr("viterbipar.parallel.solve_windowed", _exit_at_once)
        r = runner.invoke(main, args + ["--workers", "2"])
        assert r.exit_code == 6, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("worker failure:")
        assert "--workers 1" in lines[0]

    @pytest.mark.parametrize("command, target", [("solve-par", "solve_parallel"),
                                                 ("sweep", "sweep_delta")])
    @pytest.mark.parametrize("env, flag, expected", [("3", None, 3), ("3", "2", 2), (None, None, 1)])
    def test_workers_from_env_or_option(self, runner, tmp_path, monkeypatch, command, target,
                                        env, flag, expected):
        import viterbipar.cli

        args = _two_segment_args(runner, tmp_path, command)
        if flag is not None:
            args += ["--workers", flag]
        seen = []
        real = getattr(viterbipar.cli, target)

        def spy(*a, workers, **kw):
            seen.append(workers)
            return real(*a, workers=1, **kw)

        monkeypatch.setattr(viterbipar.cli, target, spy)
        r = runner.invoke(main, args, env={"VITERBI_PAR_WORKERS": env})
        assert r.exit_code == 0, r.output
        assert seen == [expected]

    @pytest.mark.parametrize("command", ["solve-par", "sweep"])
    def test_malformed_worker_env_exits_2(self, runner, tmp_path, command):
        args = _two_segment_args(runner, tmp_path, command)
        r = runner.invoke(main, args, env={"VITERBI_PAR_WORKERS": "junk"})
        assert r.exit_code == 2, r.output
        assert "--workers" in r.stderr and "junk" in r.stderr

    @pytest.mark.parametrize("args, env", [(["--workers", "0"], None), (["--workers", "-3"], None),
                                           ([], "0")])
    def test_worker_count_below_one_exits_2(self, runner, tmp_path, args, env):
        base = _two_segment_args(runner, tmp_path, "solve-par")
        r = runner.invoke(main, base + args, env={"VITERBI_PAR_WORKERS": env})
        assert r.exit_code == 2, r.output
        assert "--workers" in r.stderr and "x>=1" in r.stderr
        assert not (tmp_path / "par").exists()

    def test_observation_columns_must_match_the_emission(self, runner, tmp_path):
        # one column on a d = 2 emission would broadcast over both coordinates
        cfg = write_lg_config(tmp_path / "m.json", d=2)
        obs = tmp_path / "one_column.csv"
        vio.write_observations_csv(obs, np.linspace(-1.0, 1.0, 8)[:, None])
        r = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", str(obs),
                                 "--out", str(tmp_path / "x")])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert "GaussianEmission" in lines[0] and "(8, 1)" in lines[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where, field, value", [
        (None, "signal", [1]),
        ("signal", "drift_map", "tanh"),
        ("likelihood", "dof", None),
        (None, "chi", [1]),
        ("likelihood", "manifest", 5),
    ])
    def test_malformed_model_json_exits_2(self, runner, tmp_path, where, field, value):
        cfg = {
            "signal": {
                "type": "huber",
                "drift_map": {"kind": "tanh", "scale": 0.1},
                "b": [0.0, 0.0, 0.0],
                "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0, "L_A": 0.1, "L_grad_A": 0.1},
            },
            "likelihood": {"type": "neural_pseudo" if field == "manifest" else "student_t"},
        }
        (cfg if where is None else cfg[where])[field] = value
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "5",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == 2, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert repr(field) in lines[0]

    @pytest.mark.parametrize("where, field, value", [
        ("signal", "A", [[float("nan")]]),
        ("signal", "b", [float("inf")]),
        ("signal", "Sigma", [[float("-inf")]]),
        ("signal", "huber_c", float("inf")),
        (None, "chi", float("nan")),
    ])
    def test_non_finite_model_json_exits_2(self, runner, tmp_path, where, field, value):
        # json.load reads NaN and Infinity; each is named as a configuration error
        if field == "huber_c":
            cfg = {"signal": {"type": "huber", "drift_map": {"kind": "tanh", "scale": 0.1}, "b": [0.0],
                              "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0, "L_A": 0.1,
                                                   "L_grad_A": 0.1}},
                   "likelihood": {"type": "student_t"}}
        else:
            cfg = json.loads(write_lg_config(tmp_path / "m.json").read_text())
        (cfg if where is None else cfg[where])[field] = value
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        for args in (["certify"], ["simulate", "--n", "5", "--out", str(tmp_path / "sim")]):
            r = runner.invoke(main, args + ["--model", str(tmp_path / "m.json")])
            assert r.exit_code == 2, r.output
            lines = r.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("configuration error:")
            assert f"{field!r} is not finite" in lines[0]

    def test_non_finite_factor_csv_exits_2(self, runner, tmp_path):
        (tmp_path / "z.csv").write_text("t,z0\n0,nan\n1,0.5\n2,-0.5\n")
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=2).read_text())
        cfg["likelihood"] = {"type": "stoch_vol", "B": [[1.0], [0.5]], "factors_csv": "z.csv"}
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "2",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert str(tmp_path / "z.csv") in lines[0] and "finite" in lines[0]
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("files", [5, [1, 2]])
    def test_malformed_spike_manifest_exits_2(self, runner, tmp_path, files):
        manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(3, 2, 6, seed=1))
        content = json.loads(manifest.read_text())
        content["files"] = files
        manifest.write_text(json.dumps(content))
        cfg = {
            "signal": {
                "type": "linear_gaussian",
                "A": (0.5 * np.eye(3)).tolist(),
                "b": [0.0] * 3,
                "Sigma": np.eye(3).tolist(),
                "b0": [0.0] * 3,
                "Sigma0": np.eye(3).tolist(),
            },
            "likelihood": {"type": "neural_pseudo", "manifest": str(manifest)},
        }
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["certify", "--model", str(tmp_path / "m.json")])
        assert r.exit_code == 2, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert "manifest.json" in lines[0] and "'files'" in lines[0]

    @pytest.mark.parametrize("N, R, named", [
        (3.7, 2, "'N' and 'R' must be integers, got N=3.7, R=2"),
        (True, 2, "'N' and 'R' must be integers, got N=True, R=2"),
        ("3", 2, "'N' and 'R' must be integers, got N='3', R=2"),
        (3, 2.0, "'N' and 'R' must be integers, got N=3, R=2.0"),
        (3, False, "'N' and 'R' must be integers, got N=3, R=False"),
        (3, -1, "manifest lists 2 files for R=-1 (R >= 1)"),
        (1, 2, "N=1, but the first row of trial_0.csv has 3 fields"),
        (0, 2, "N=0, but the first row of trial_0.csv has 3 fields"),
        (4, 2, "N=4, but the first row of trial_0.csv has 3 fields"),
        (10 ** 30, 2, f"N={10 ** 30}, but the first row of trial_0.csv has 3 fields"),
    ])
    def test_spike_manifest_sizes_exit_2(self, runner, tmp_path, N, R, named):
        # an N the rows do not have is rejected before a parse sized by N
        manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(3, 2, 6, seed=1))
        content = json.loads(manifest.read_text())
        content["N"], content["R"] = N, R
        manifest.write_text(json.dumps(content))
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=3).read_text())
        cfg["likelihood"] = {"type": "neural_pseudo", "manifest": str(manifest)}
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "5",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"configuration error: {manifest}: ")
        assert named in lines[0]

    def test_one_neuron_bundle_reads_but_no_family_takes_it(self, runner, tmp_path):
        manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(1, 2, 6, seed=1))
        assert vio.read_spike_bundle(manifest)[0].shape == (6, 2, 1)
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=1).read_text())
        cfg["likelihood"] = {"type": "neural_pseudo", "manifest": str(manifest)}
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["certify", "--model", str(tmp_path / "m.json")])
        assert r.exit_code == 2, r.output
        assert r.stderr.strip().splitlines() == [
            "configuration error: need at least two neurons and one trial"]

    @pytest.mark.parametrize("case, code, named", [
        ("A", 2, "A must be square, got (2, 3)"),
        ("Sigma", 2, "Sigma and Sigma0 must be 2x2 (the size of A), got (3, 3) and (2, 2)"),
        ("Sigma0", 2, "Sigma and Sigma0 must be 2x2 (the size of A), got (2, 2) and (3, 3)"),
        ("Sigma not square", 2, "Sigma must be square, got (2, 3)"),
        ("R", 2, "R must be 2x2 (one row per row of C), got (3, 3)"),
        ("C", 2, "R must be 1x1 (one row per row of C), got (2, 2)"),
        ("C 3-D", 2, "C must be a matrix, got shape (1, 2, 2)"),
        ("Sigma 3x3 asymmetric", 2, "Sigma and Sigma0 must be 2x2 (the size of A), got (3, 3) and (2, 2)"),
        ("C columns", 2, "GaussianEmission: C has 3 columns, the signal's state dimension is 2"),
        ("Sigma asymmetric", 5, "Sigma must be symmetric"),
        ("Sigma0 not SPD", 5, "Sigma0 is not positive definite"),
    ])
    def test_matrix_shapes_exit_2_and_non_spd_exits_5(self, runner, tmp_path, case, code, named):
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=2).read_text())
        sig, lik = cfg["signal"], cfg["likelihood"]
        if case == "A":
            sig["A"] = [[1, 0, 0], [0, 1, 0]]
        elif case in ("Sigma", "Sigma0"):
            sig[case] = np.eye(3).tolist()
        elif case == "Sigma not square":
            sig["Sigma"] = [[1, 0, 0], [0, 1, 0]]
        elif case == "Sigma 3x3 asymmetric":
            sig["Sigma"] = [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]
        elif case == "C columns":
            lik["C"] = [[1, 0, 0], [0, 1, 0]]
        elif case == "R":
            lik["R"] = np.eye(3).tolist()
        elif case == "C":
            lik["C"] = [1, 1]
        elif case == "C 3-D":
            lik["C"] = [np.eye(2).tolist()]
        elif case == "Sigma asymmetric":
            sig["Sigma"] = [[1, 0.5], [0, 1]]
        else:
            sig["Sigma0"] = [[1, 0], [0, -1]]
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "5",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == code, r.output
        lines = r.stderr.strip().splitlines()
        label = "configuration error" if code == 2 else "certification error"
        assert len(lines) == 1 and lines[0] == f"{label}: {named}"

    def test_negative_horizon_exits_2(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        r = runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "-1",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and "horizon" in lines[0]

    def test_verify_passes_on_conjugate_model(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "12", "--seed", "6", "--out", str(sim)])
        r = runner.invoke(main, ["verify", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
                                 "--points", "5"])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["pass"] is True
        assert payload["checks"]["gradient_vs_finite_difference"]["pass"]
        assert payload["checks"]["solver_vs_exact_smoother"]["pass"]
        assert payload["checks"]["decay_convexity_slack"]["pass"]

    def test_verify_failed_check_exits_1(self, runner, tmp_path, monkeypatch):
        import viterbipar.cli as cli

        real_grad_U = cli.grad_U
        monkeypatch.setattr(cli, "grad_U", lambda model, x: PathVector(1.01 * real_grad_U(model, x).blocks))
        cfg = write_lg_config(tmp_path / "m.json", a=0.5)
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "12", "--seed", "6", "--out", str(sim)])
        r = runner.invoke(main, ["verify", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
                                 "--points", "3"])
        assert r.exit_code == 1, r.output
        payload = json.loads(r.output)
        assert payload["pass"] is False
        assert payload["checks"]["gradient_vs_finite_difference"]["pass"] is False

    def test_verify_reports_infeasible_certificate_without_failing(self, runner, tmp_path):
        cfg = {
            "signal": {
                "type": "huber",
                "drift_map": {"kind": "tanh", "scale": 0.1},
                "b": [0.0],
                "huber_c": 1.0,
                "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0, "L_A": 0.1, "L_grad_A": 0.1},
            },
            "likelihood": {"type": "student_t", "dof": 1.0},
        }
        (tmp_path / "h.json").write_text(json.dumps(cfg))
        ys = np.linspace(-1, 1, 8)[:, None]
        vio.write_observations_csv(tmp_path / "y.csv", ys)
        r = runner.invoke(main, ["verify", "--model", str(tmp_path / "h.json"),
                                 "--obs", str(tmp_path / "y.csv"), "--points", "5"])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output)
        assert payload["checks"]["certificate"] == {"feasible": False, "pass": True}
        assert payload["checks"]["gradient_vs_finite_difference"]["pass"]

    def test_missing_obs_is_config_error(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        out = tmp_path / "x"
        r = runner.invoke(main, ["solve", "--model", str(cfg), "--out", str(out)])
        assert r.exit_code == 2

    def test_divergence_exit_code(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", "--model", str(cfg), "--n", "20", "--seed", "8", "--out", str(sim)])
        with np.errstate(over="ignore", invalid="ignore"):
            r = runner.invoke(main, ["solve", "--model", str(cfg), "--obs", str(sim / "observations.csv"),
                                     "--out", str(tmp_path / "x"), "--step-mode", "fixed",
                                     "--step-size", "100.0", "--max-iters", "300", "--grad-tol", "0"])
        assert r.exit_code == 4

    @pytest.mark.parametrize("flag, value", [("--step-size", "inf"), ("--grad-tol", "nan"),
                                             ("--grad-tol", "inf")])
    def test_non_finite_step_or_tolerance_exits_2(self, runner, tmp_path, flag, value):
        # an infinite trial step halves to itself, so the line search never ends
        r = _run_cli(_simulated_solve_args(runner, tmp_path) + [flag, value])
        assert r.returncode == 2, r.stderr
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert flag[2:].replace("-", "_") in lines[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["solve", "solve-par", "sweep"])
    def test_invalid_solver_flag_exits_2_in_every_command(self, runner, tmp_path, command):
        args = (_simulated_solve_args(runner, tmp_path) if command == "solve"
                else _two_segment_args(runner, tmp_path, command))
        r = runner.invoke(main, args + ["--max-iters", "0"])
        assert r.exit_code == 2, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.stderr.strip().splitlines() == ["configuration error: max_iters must be at least 1"]

    @pytest.mark.parametrize("mode, want", [
        ("fixed", ["solver divergence: gradient became non-finite at iteration 2 (step too large?)"]),
        ("backtracking", []),
    ])
    def test_descent_prints_no_numpy_warnings(self, runner, tmp_path, mode, want):
        r = _run_cli(_simulated_solve_args(runner, tmp_path)
                     + ["--step-mode", mode, "--step-size", "1e300"])
        assert r.returncode == (4 if want else 0), r.stderr
        assert r.stderr.splitlines() == want

    def test_every_package_error_is_in_the_exit_table(self):
        classes = {c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.ViterbiParError)}
        assert classes == set(_ERROR_EXITS)

    @pytest.mark.parametrize("exc, code, line", [
        *[pytest.param(cls("boom"), code, f"{label}: boom", id=cls.__name__)
          for cls, (code, label) in _ERROR_EXITS.items()],
        pytest.param(OSError("boom"), 3, "I/O error: boom", id="OSError"),
        pytest.param(KeyError("boom"), 7, "internal error: KeyError: 'boom'", id="KeyError"),
        pytest.param(ValueError("boom"), 7, "internal error: ValueError: boom", id="ValueError"),
    ])
    def test_each_failure_exits_with_its_code_and_one_line(self, runner, tmp_path, monkeypatch,
                                                           exc, code, line):
        args = _simulated_solve_args(runner, tmp_path)

        def fail(model, config):
            raise exc

        monkeypatch.setattr("viterbipar.cli.solve_map", fail)
        r = runner.invoke(main, args)
        assert r.exit_code == code, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert r.stderr.splitlines() == [line]

    def test_internal_error_prints_no_traceback(self, runner, tmp_path):
        # a numpy failure inside the command, in a fresh interpreter
        args = _simulated_solve_args(runner, tmp_path)
        code = ("import numpy, viterbipar.cli as cli; "
                "cli.solve_map = lambda model, config: numpy.zeros(2) @ numpy.zeros(3); cli.main()")
        src = str(Path(viterbipar.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        r = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                           text=True, timeout=60)
        assert r.returncode == 7, r.stderr
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("internal error: ValueError: matmul")
        assert "Traceback" not in r.stderr

    def test_solver_flag_defaults_are_the_library_defaults(self):
        want = SolverConfig()
        for name in ("solve", "solve-par", "sweep"):
            defaults = {p.name: p.default for p in main.commands[name].params}
            assert defaults["step_mode"] == want.step_mode
            assert defaults["step_size"] == want.step_size
            assert defaults["max_iters"] == want.max_iters == 20000
            assert defaults["grad_tol"] == want.grad_tol
            assert defaults["gamma"] == want.gamma.gamma

    def test_report_keys(self, runner, tmp_path):
        solve_keys = {"command", "iterations", "converged", "stop_reason", "grad_evals",
                      "value_evals", "halvings", "coasting_steps", "final_grad_norm",
                      "objective_value", "wall_clock_seconds", "solution"}
        args = _two_segment_args(runner, tmp_path, "solve-par")
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "par" / "report.json").read_text())
        assert json.loads(r.output) == report
        assert set(report) == {"command", "num_segments", "delta", "boundary_mode",
                               "wall_clock_seconds", "per_segment", "solution"}
        assert [set(seg) for seg in report["per_segment"]] == [solve_keys - {"command", "solution"}] * 2
        r = runner.invoke(main, ["solve", *args[1:5], "--out", str(tmp_path / "full")])
        assert r.exit_code == 0, r.output
        report = json.loads((tmp_path / "full" / "report.json").read_text())
        assert json.loads(r.output) == report and set(report) == solve_keys

    @pytest.mark.parametrize("bad", ["abc row", "header", "spike manifest", "spike trial"])
    def test_certify_rejects_malformed_obs(self, runner, tmp_path, bad):
        if bad.startswith("spike"):
            manifest = vio.write_spike_bundle(tmp_path / "spk", random_spikes(3, 2, 6, seed=1))
            cfg = json.loads(write_lg_config(tmp_path / "m.json", d=3).read_text())
            cfg["likelihood"] = {"type": "neural_pseudo", "manifest": str(manifest)}
            (tmp_path / "m.json").write_text(json.dumps(cfg))
            obs = vio.write_spike_bundle(tmp_path / "obs", random_spikes(3, 2, 6, seed=2))
            if bad == "spike manifest":
                obs.write_text("{'N': 3")
            else:
                (tmp_path / "obs" / "trial_1.csv").write_text("0,1,abc\n")
        else:
            write_lg_config(tmp_path / "m.json")
            obs = tmp_path / "y.csv"
            obs.write_text("t,y0\n0,1.5\n1,abc\n" if bad == "abc row" else "t,z0\n0,1.5\n")
        r = runner.invoke(main, ["certify", "--model", str(tmp_path / "m.json"), "--obs", str(obs)])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert str(obs.parent if bad == "spike trial" else obs) in lines[0]

    @pytest.mark.parametrize("case, named", [
        ("b", "b and b0 must have 1 or 2 entries (the size of A), got 3 and 2"),
        ("b0", "b and b0 must have 1 or 2 entries (the size of A), got 2 and 3"),
        ("stationary Sigma", "needs a square A and a Sigma of its shape, got (2, 2) and (3, 3)"),
        ("linear drift", "field 'M' has shape (3, 3), expected 2x2"),
        ("factors", "B and factors must be matrices"),
        ("manifest JSON", "manifest.json: invalid JSON"),
        ("manifest R", "manifest.json: manifest lists 0 files for R=0 (R >= 1)"),
        ("model JSON", "m.json: invalid JSON"),
    ])
    def test_malformed_shapes_and_files_exit_2_naming_the_field(self, runner, tmp_path, case, named):
        # each of these failed inside numpy or json before it was checked
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=2).read_text())
        sig = cfg["signal"]
        if case in ("b", "b0"):
            sig[case] = [0.0] * 3
        elif case == "stationary Sigma":
            sig["Sigma"], sig["Sigma0"] = np.eye(3).tolist(), "stationary"
        elif case == "linear drift":
            cfg["signal"] = {"type": "huber", "drift_map": {"kind": "linear", "M": np.eye(3).tolist()},
                             "b": [0.0, 0.0], "lipschitz_bounds": {"L_psi": 1.0, "L_grad_psi": 1.0,
                                                                   "L_A": 1.0, "L_grad_A": 0.0}}
        elif case == "factors":
            cfg["likelihood"] = {"type": "stoch_vol", "B": [[1.0], [0.5]], "factors": [[[0.1]]] * 8}
        elif case.startswith("manifest"):
            vio.write_spike_bundle(tmp_path / "spk", random_spikes(2, 1, 6, seed=1))
            cfg["signal"] = json.loads(write_lg_config(tmp_path / "m.json", d=1).read_text())["signal"]
            cfg["likelihood"] = {"type": "neural_pseudo", "manifest": "spk/manifest.json"}
            (tmp_path / "spk" / "manifest.json").write_text(
                "{'N': 2" if case == "manifest JSON" else json.dumps({"N": 2, "R": 0, "files": []}))
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        if case == "model JSON":
            (tmp_path / "m.json").write_bytes(b"\xff{}")
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "5",
                                 "--out", str(tmp_path / "sim")])
        assert r.exit_code == 2, r.output
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:")
        assert named in lines[0]

    def test_single_entry_offsets_still_broadcast(self, runner, tmp_path):
        cfg = json.loads(write_lg_config(tmp_path / "m.json", d=2).read_text())
        cfg["signal"]["b"], cfg["signal"]["b0"] = [0.5], 0.25
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        spec = vio.load_model_config(tmp_path / "m.json")
        assert spec.signal.b.tolist() == [0.5, 0.5] and spec.signal.b0.tolist() == [0.25, 0.25]

    @pytest.mark.parametrize("l, deltas, named", [
        ("2", ",", "deltas must be a nonempty ascending list"),
        ("2", "3,1", "deltas must be a nonempty ascending list"),
        ("5", "0", "horizon+1 = 24 is not divisible by l = 5"),
        ("2", "0,24", "overlap 24 must be smaller than the path length 24"),
    ])
    def test_sweep_checks_its_inputs_before_the_reference_solve(self, runner, tmp_path, monkeypatch,
                                                                 l, deltas, named):
        args = _two_segment_args(runner, tmp_path, "sweep") + ["--l", l, "--deltas", deltas]
        calls = []
        monkeypatch.setattr("viterbipar.parallel.solve_map", lambda *a: calls.append(a))
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert calls == []
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error:") and named in lines[0]
        assert not (tmp_path / "sweep.csv").exists()

    def test_verify_needs_at_least_one_point(self, runner, tmp_path):
        cfg = write_lg_config(tmp_path / "m.json")
        vio.write_observations_csv(tmp_path / "y.csv", np.ones((4, 1)))
        r = runner.invoke(main, ["verify", "--model", str(cfg), "--obs", str(tmp_path / "y.csv"),
                                 "--points", "0"])
        assert r.exit_code == 2, r.output
        assert "--points" in r.stderr and "x>=1" in r.stderr

    def test_stochvol_simulate_solve_verify(self, runner, tmp_path):
        factors = np.sin(np.linspace(0, 3, 16))[:, None].tolist()
        cfg = {
            "signal": {
                "type": "linear_gaussian",
                "A": [[0.3, 0.0], [0.0, 0.3]],
                "b": [0.0, 0.0],
                "Sigma": [[0.5, 0.0], [0.0, 0.5]],
                "b0": [0.0, 0.0],
                "Sigma0": "stationary",
            },
            "likelihood": {"type": "stoch_vol", "B": [[1.0], [0.4]], "factors": factors},
        }
        (tmp_path / "sv.json").write_text(json.dumps(cfg))
        sim = tmp_path / "sim"
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "sv.json"), "--n", "15",
                                 "--seed", "4", "--out", str(sim)])
        assert r.exit_code == 0, r.output
        out = tmp_path / "sol"
        r = runner.invoke(main, ["solve", "--model", str(tmp_path / "sv.json"),
                                 "--obs", str(sim / "observations.csv"), "--out", str(out),
                                 "--grad-tol", "1e-9"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["verify", "--model", str(tmp_path / "sv.json"),
                                 "--obs", str(sim / "observations.csv"), "--points", "3"])
        assert r.exit_code == 0, r.output
        assert json.loads(r.output)["pass"] is True

    def test_neural_simulate_and_solve_roundtrip(self, runner, tmp_path):
        spikes = random_spikes(3, 4, 13, seed=9)
        manifest = vio.write_spike_bundle(tmp_path / "spk", spikes)
        cfg = {
            "signal": {
                "type": "linear_gaussian",
                "A": (0.5 * np.eye(3)).tolist(),
                "b": [0.0] * 3,
                "Sigma": np.eye(3).tolist(),
                "b0": [0.0] * 3,
                "Sigma0": np.eye(3).tolist(),
            },
            "likelihood": {"type": "neural_pseudo", "manifest": str(manifest)},
        }
        (tmp_path / "m.json").write_text(json.dumps(cfg))
        out = tmp_path / "sol"
        r = runner.invoke(main, ["solve", "--model", str(tmp_path / "m.json"), "--out", str(out),
                                 "--grad-tol", "1e-9"])
        assert r.exit_code == 0, r.output
        sol = vio.read_table_csv(out / "solution.csv", "x")
        assert sol.shape == (13, 3)

        sim = tmp_path / "nsim"
        r = runner.invoke(main, ["simulate", "--model", str(tmp_path / "m.json"), "--n", "6",
                                 "--seed", "3", "--out", str(sim)])
        assert r.exit_code == 0, r.output
        back, rates, _ = vio.read_spike_bundle(sim / "spikes" / "manifest.json")
        assert back.shape == (7, 4, 3)
