"""Tests for config validation and the command-line runner."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from boltzgas import cli, picard
from boltzgas.config import ConfigError, load_config, validate_config
from boltzgas.runio import read_csv_columns, read_event_log, write_snapshot_csv


def _base_config(**overrides):
    mapping = {
        "mode": "Simulate",
        "seed": 5,
        "kernel": {"gamma": 1.0, "c": 1.0, "angular": "hard_sphere"},
        "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
        "sim": {"horizon": 0.5},
        "simulate": {"n_paths": 2},
    }
    mapping.update(overrides)
    return mapping


def _write(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


class TestValidateConfig:
    def test_minimal_simulate_config(self):
        cfg = validate_config(_base_config())
        assert cfg.mode == "Simulate"
        assert cfg.seed == 5
        assert cfg.kernel.gamma == 1.0
        assert cfg.sim.horizon == 0.5
        assert cfg.params == {"n_paths": 2, "log_events": True}
        assert cfg.output_times == []

    def test_mode_is_required_and_checked(self):
        with pytest.raises(ConfigError, match="missing required key 'mode'"):
            validate_config({"kernel": {}})
        with pytest.raises(ConfigError, match="config.mode"):
            validate_config(_base_config(mode="Orbit"))

    def test_unknown_top_level_key_names_the_key(self):
        with pytest.raises(ConfigError, match="colour"):
            validate_config(_base_config(colour="red"))

    def test_foreign_mode_section_is_rejected(self):
        mapping = _base_config()
        mapping["entropy"] = {"n_paths": 100}
        with pytest.raises(ConfigError, match="entropy"):
            validate_config(mapping)

    def test_kernel_gamma_out_of_range_names_the_field(self):
        mapping = _base_config()
        mapping["kernel"]["gamma"] = 2.0
        with pytest.raises(ConfigError, match="gamma"):
            validate_config(mapping)

    def test_unknown_kernel_key_rejected(self):
        mapping = _base_config()
        mapping["kernel"]["mass"] = 3.0
        with pytest.raises(ConfigError, match="mass"):
            validate_config(mapping)

    def test_unknown_model_family(self):
        mapping = _base_config(model={"family": "plasma"})
        with pytest.raises(ConfigError, match="model.family"):
            validate_config(mapping)

    def test_unknown_model_key(self):
        mapping = _base_config()
        mapping["model"]["sides"] = 2.0
        with pytest.raises(ConfigError, match="sides"):
            validate_config(mapping)

    def test_model_constructor_errors_carry_the_path(self):
        mapping = _base_config()
        mapping["model"]["vel_var"] = -1.0
        with pytest.raises(ConfigError, match="model.vel_var"):
            validate_config(mapping)

    def test_sim_section_required_for_simulate(self):
        mapping = _base_config()
        del mapping["sim"]
        with pytest.raises(ConfigError, match="sim section"):
            validate_config(mapping)

    def test_sim_field_types_checked(self):
        mapping = _base_config()
        mapping["sim"]["escalate"] = "yes"
        with pytest.raises(ConfigError, match="sim.escalate"):
            validate_config(mapping)

    def test_output_times_must_be_sorted_nonnegative(self):
        with pytest.raises(ConfigError, match="nondecreasing"):
            validate_config(_base_config(output_times=[0.5, 0.1]))
        with pytest.raises(ConfigError, match="output_times\\[0\\]"):
            validate_config(_base_config(output_times=[-0.1]))

    def test_seed_must_be_a_nonnegative_integer(self):
        with pytest.raises(ConfigError, match="config.seed"):
            validate_config(_base_config(seed=-3))
        with pytest.raises(ConfigError, match="config.seed"):
            validate_config(_base_config(seed=1.5))

    def test_particles_section(self):
        mapping = {
            "mode": "Particles",
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "sim": {"horizon": 0.2},
            "particles": {"n": 50, "dt": 0.05, "mode": "symmetric_pair"},
        }
        cfg = validate_config(mapping)
        assert cfg.params["mode"] == "symmetric_pair"
        assert cfg.params["h_x"] is None
        mapping["particles"]["mode"] = "third_way"
        with pytest.raises(ConfigError, match="particles.mode"):
            validate_config(mapping)

    def test_exit_prob_thresholds_checked(self):
        mapping = {
            "mode": "ExitProb",
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian"},
            "sim": {"horizon": 0.2},
            "exit_prob": {"n_paths": 10, "thresholds": [1.0, -2.0]},
        }
        with pytest.raises(ConfigError, match="thresholds\\[1\\]"):
            validate_config(mapping)

    def test_empirical_model_resolves_snapshot_relative_to_config(
        self, tmp_path
    ):
        rng = np.random.default_rng(3)
        write_snapshot_csv(
            tmp_path / "snap.csv",
            rng.uniform(0.0, 1.0, (15, 3)),
            rng.normal(size=(15, 3)),
        )
        mapping = {
            "mode": "Certify",
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {
                "family": "empirical",
                "snapshot": "snap.csv",
                "h_x": 0.1,
                "h_v": 0.3,
                "side": 1.0,
            },
            "sim": {"horizon": 0.2},
        }
        cfg = load_config(_write(tmp_path, mapping))
        assert cfg.model.positions.shape == (15, 3)

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


def _run_cli(*argv):
    return cli.main(list(argv))


class TestCliValidate:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, _base_config())
        assert _run_cli("validate", "--config", path) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "mode=Simulate" in out

    def test_schema_error_exits_one(self, tmp_path, capsys):
        mapping = _base_config()
        mapping["kernel"]["gamma"] = 2.0
        path = _write(tmp_path, mapping)
        assert _run_cli("validate", "--config", path) == 1
        assert "gamma" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert _run_cli("validate", "--config", str(tmp_path / "no.json")) == 1

    def test_usage_errors_exit_one_not_two(self):
        with pytest.raises(SystemExit) as info:
            _run_cli("run")
        assert info.value.code == 1

    def test_console_entry_point(self, tmp_path):
        path = _write(tmp_path, _base_config())
        # the child imports the same package as this process, installed
        # or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "boltzgas.cli", "validate", "--config", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "config OK" in proc.stdout


def _grazing_free_config():
    # an angular cutoff at pi removes every collision, so the simulated
    # path must be the exact straight line
    return {
        "mode": "Simulate",
        "seed": 11,
        "kernel": {
            "gamma": 0.0,
            "c": 1.0,
            "angular": "hard_sphere",
            "epsilon": math.pi - 1e-12,
        },
        "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
        "sim": {"horizon": 1.0},
        "output_times": [0.25, 0.5],
        "simulate": {"n_paths": 1},
    }


class TestCliRun:
    def test_straight_line_simulation(self, tmp_path):
        path = _write(tmp_path, _grazing_free_config())
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        cols = read_csv_columns(out / "trajectory_0000.csv")
        assert_allclose(cols["t"], [0.0, 0.25, 0.5, 1.0])
        for name in ("v1", "v2", "v3"):
            assert_allclose(cols[name], cols[name][0], rtol=0.0)
        expect_x = cols["x1"][0] + cols["t"] * cols["v1"][0]
        assert_allclose(cols["x1"], expect_x, rtol=1e-14, atol=1e-14)
        assert read_event_log(out / "events_0000.jsonl") == []

    def test_manifest_references_every_output(self, tmp_path):
        path = _write(tmp_path, _base_config())
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        manifest = json.load(open(out / "manifest.json"))
        on_disk = sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json"
        )
        assert manifest["outputs"] == on_disk
        assert manifest["seed"] == 5

    def test_reruns_are_byte_identical_except_manifest_time(self, tmp_path):
        path = _write(tmp_path, _base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert _run_cli("run", "--config", path, "--out", str(out_a)) == 0
        assert _run_cli("run", "--config", path, "--out", str(out_b)) == 0
        names = json.load(open(out_a / "manifest.json"))["outputs"]
        assert names
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        doc_a = json.load(open(out_a / "manifest.json"))
        doc_b = json.load(open(out_b / "manifest.json"))
        differing = {k for k in doc_a if doc_a[k] != doc_b[k]}
        assert differing <= {"created_utc"}

    def test_seed_override_changes_data_and_manifest(self, tmp_path):
        path = _write(tmp_path, _base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert _run_cli("run", "--config", path, "--out", str(out_a)) == 0
        assert (
            _run_cli(
                "run", "--config", path, "--out", str(out_b), "--seed", "99"
            )
            == 0
        )
        doc_b = json.load(open(out_b / "manifest.json"))
        assert doc_b["seed"] == 99
        assert doc_b["config_digest"] == json.load(
            open(out_a / "manifest.json")
        )["config_digest"]
        same = (out_a / "trajectory_0000.csv").read_bytes() == (
            out_b / "trajectory_0000.csv"
        ).read_bytes()
        assert not same

    def test_invariant_mode_reports_pass(self, tmp_path, capsys):
        mapping = {
            "mode": "CheckInvariants",
            "kernel": {"gamma": 1.0, "c": 0.7, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 2.0, "vel_var": 0.8},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        docs = json.load(open(out / "reports.json"))
        assert len(docs) == 5
        assert all(d["verdict"] == "PASS" for d in docs)
        kinds = {d["details"]["psi"] for d in docs}
        assert kinds == {"constant", "linear_momentum", "energy"}

    def test_failed_verdict_exits_two_with_outputs_kept(self, tmp_path):
        mapping = {
            "mode": "Entropy",
            "seed": 3,
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
            "sim": {"horizon": 0.2, "escalate": False},
            "entropy": {"n_paths": 200, "reference_variance": 3.0},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 2
        docs = json.load(open(out / "reports.json"))
        assert any(d["verdict"] == "FAIL" for d in docs)
        assert (out / "manifest.json").exists()

    def test_matched_reference_passes(self, tmp_path):
        mapping = {
            "mode": "Entropy",
            "seed": 3,
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
            "sim": {"horizon": 0.2, "escalate": False},
            "output_times": [0.1, 0.2],
            "entropy": {"n_paths": 200},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        docs = json.load(open(out / "reports.json"))
        ops = [d["operation"] for d in docs]
        assert ops.count("relative_entropy") == 2
        assert "entropy_monotonicity" in ops

    def test_exit_prob_mode(self, tmp_path):
        mapping = {
            "mode": "ExitProb",
            "seed": 5,
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
            "sim": {"horizon": 0.3},
            "exit_prob": {"n_paths": 100, "thresholds": [2.0, 3.0, 5.0]},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        doc = json.load(open(out / "reports.json"))[0]
        assert doc["operation"] == "exit_statistics"
        assert doc["verdict"] == "PASS"
        probs = doc["details"]["probabilities"]
        assert probs == sorted(probs, reverse=True)

    def test_picard_mode_writes_distance_table(self, tmp_path):
        mapping = {
            "mode": "Picard",
            "seed": 9,
            "kernel": {"gamma": 1.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
            "sim": {"horizon": 0.1, "level": 4.0, "escalate": False},
            "picard": {"n_iterates": 4, "n_realizations": 30},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        code = _run_cli("run", "--config", path, "--out", str(out))
        assert code in (0, 2)
        cols = read_csv_columns(out / "distances.csv")
        assert_allclose(cols["n"], [1, 2, 3, 4])
        assert np.all(cols["d_n"] >= 0.0)
        doc = json.load(open(out / "reports.json"))[0]
        assert doc["operation"] == "picard_contraction"

    def test_picard_report_counts_passes_to_fixed_point(self, tmp_path):
        mapping = {
            "mode": "Picard",
            "seed": 9,
            "kernel": {"gamma": 1.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {"family": "box_maxwellian", "side": 1.0, "vel_var": 1.0},
            "sim": {"horizon": 0.2, "level": 4.0, "escalate": False},
            "picard": {"n_iterates": 6, "n_realizations": 30},
        }
        out = tmp_path / "out"
        _run_cli("run", "--config", _write(tmp_path, mapping), "--out", str(out))
        details = json.load(open(out / "reports.json"))[0]["details"]
        cfg = validate_config(mapping)
        reached = picard.contraction_profile(
            cfg.model, cfg.kernel, 4.0, 0.2, 6, 30, 9
        ).passes_to_fixed_point()
        hit = reached[reached > 0]
        assert 0 < hit.size < 30
        assert details["fixed_point_share"] == hit.size / 30
        assert details["fixed_point_passes_mean"] == hit.mean()
        assert details["fixed_point_passes_max"] == hit.max()

    def test_particles_mode_writes_snapshots(self, tmp_path):
        mapping = {
            "mode": "Particles",
            "seed": 2,
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "sim": {"horizon": 0.1},
            "output_times": [0.05],
            "particles": {"n": 60, "dt": 0.05},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        mid = read_csv_columns(out / "snapshot_0000.csv")
        final = read_csv_columns(out / "snapshot_final.csv")
        assert len(mid["x1"]) == 60
        assert len(final["v3"]) == 60

    def test_certify_mode(self, tmp_path):
        mapping = {
            "mode": "Certify",
            "kernel": {"gamma": 1.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {
                "family": "gaussian_product",
                "vel_var": 1.0,
                "pos_var": 0.5,
            },
            "sim": {"horizon": 0.3},
            "certify": {"n_time": 3, "n_side": 2},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 0
        docs = json.load(open(out / "reports.json"))
        assert all(d["operation"].startswith("hypothesis_") for d in docs)
        assert all(d["verdict"] == "PASS" for d in docs)

    def test_schema_error_leaves_no_outputs(self, tmp_path, capsys):
        mapping = _base_config()
        mapping["kernel"]["gamma"] = 2.0
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 1
        assert not out.exists()

    def test_runtime_error_removes_partial_outputs(self, tmp_path, capsys):
        # an empirical background has no single reference variance, so
        # entropy mode fails only at run time, after the output
        # directory exists; the failed run must leave nothing behind
        rng = np.random.default_rng(4)
        write_snapshot_csv(
            tmp_path / "snap.csv",
            rng.uniform(0.0, 1.0, (12, 3)),
            rng.normal(size=(12, 3)),
        )
        mapping = {
            "mode": "Entropy",
            "kernel": {"gamma": 0.0, "c": 1.0, "angular": "hard_sphere"},
            "model": {
                "family": "empirical",
                "snapshot": "snap.csv",
                "h_x": 0.1,
                "h_v": 0.3,
                "side": 1.0,
            },
            "sim": {"horizon": 0.1},
            "entropy": {"n_paths": 10},
        }
        path = _write(tmp_path, mapping)
        out = tmp_path / "out"
        assert _run_cli("run", "--config", path, "--out", str(out)) == 1
        assert "reference_variance" in capsys.readouterr().err
        assert not out.exists()

    def test_interrupt_removes_partial_outputs(self, tmp_path, monkeypatch):
        def interrupted(cfg, seed, out, digest):
            with open(out.path("trajectory_0000.csv"), "w") as fh:
                fh.write("t\n0.0\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_execute", interrupted)
        path = _write(tmp_path, _base_config())
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            _run_cli("run", "--config", path, "--out", str(out))
        assert not out.exists()
