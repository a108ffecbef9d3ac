import json
import os

import numpy as np
import pytest

from besovflow.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_STALL, main
from besovflow.littlewood_paley import (
    GridFunction,
    random_grid_function,
    save_grid_function,
)


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def read_all_reports(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                out[name] = fh.read()
    return out


class TestConfigValidation:
    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "--quiet"]) == EXIT_CONFIG

    def test_bad_schema_version(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"schema_version": 99, "command": "verify"}
        )
        assert main(["--config", cfg, "--quiet"]) == EXIT_CONFIG

    def test_unknown_command(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"schema_version": 1, "command": "dance"}
        )
        assert main(["--config", cfg, "--quiet"]) == EXIT_CONFIG

    def test_bad_grid_size(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "filters", "grid_size": 100},
        )
        assert main(["--config", cfg, "--quiet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("time_steps", [2.7, True, "64", 0, -4])
    def test_time_steps_must_be_positive_integer(self, tmp_path, time_steps):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "flow",
                "grid_size": 32,
                "flow": {"kind": "transport", "T": 1.0, "time_steps": time_steps},
            },
        )
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not (out / "flow_report.json").exists()

    def test_io_failure_exit(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "decompose",
                "io": {"input": str(tmp_path / "missing.gfn")},
            },
        )
        assert main(["--config", cfg, "--quiet", "--out", str(tmp_path)]) == EXIT_IO


class TestCommands:
    def test_verify_zero_trials_vacuous_pass(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 3, "trials": 0},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "verify_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["failures"] == []
        assert all(s["trials"] == 0 for s in report["suites"])

    def test_verify_sweeps_pass(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 11, "trials": 60},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK

    def test_filters_command(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "filters", "grid_size": 64, "seed": 1},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "filters_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["partition_max_deviation"] <= 1e-12
        assert (out / "filters.csv").exists()

    def test_decompose_constant_has_single_block(self, tmp_path):
        grid_path = tmp_path / "const.gfn"
        save_grid_function(grid_path, GridFunction(np.ones(64)))
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "decompose",
                "io": {"input": str(grid_path)},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "decompose_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        norms = report["sequence"]["block_norms"]
        assert norms[0] > 0.0
        assert all(v <= 1e-12 for v in norms[1:])

    def test_norms_command(self, tmp_path):
        rng = np.random.default_rng(5)
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(rng, 64))
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "norms",
                "io": {"input": str(grid_path)},
                "s_values": [0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "norms_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["sobolev"]["s=0"] == pytest.approx(report["l2"], rel=1e-12)

    def test_envelope_command(self, tmp_path):
        rng = np.random.default_rng(6)
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(rng, 64))
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "envelope",
                "io": {"input": str(grid_path)},
                "scale": {"s0": 0.0, "s": 1.0, "s1": 2.0, "q": 2.0},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "envelope_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        eq = report["equivalence"]
        assert eq["lower"] <= eq["mid"] <= eq["upper"]
        lines = (out / "envelope.csv").read_text().splitlines()
        assert lines[0] == "n,gamma_n,c_n,weighted_block_norm"

    def test_flow_command_transport(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "flow",
                "seed": 2,
                "grid_size": 64,
                "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
                "flow": {"kind": "transport", "speed": 1.0, "T": 1.0,
                         "time_steps": 32, "mu": "inf"},
                "io": {"trajectory_dir": "trajectory"},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        with open(out / "flow_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["failures"] == []
        assert report["continuity_trend_ok"] is True
        assert report["constants_checked"]["estimated"] is True
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n,actual,bound"
        for line in lines[1:]:
            _, actual, bound = line.split(",")
            assert float(actual) <= float(bound) * (1 + 1e-9)
        assert (out / "trajectory" / "manifest.json").exists()
        assert (out / "decay_profile.csv").exists()
        assert (out / "continuity.csv").exists()


class TestExitStatus:
    def test_failures_map_to_exit_one(self, tmp_path, monkeypatch):
        import besovflow.cli as cli

        def failing_handler(config, outdir, rng):
            return {"command": "verify", "failures": [{"check": "synthetic"}]}, [
                {"check": "synthetic"}
            ]

        monkeypatch.setitem(cli._COMMANDS, "verify", failing_handler)
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 0, "trials": 1},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        with open(out / "verify_report.json", encoding="utf-8") as fh:
            assert json.load(fh)["failures"] == [{"check": "synthetic"}]

    def test_infeasible_flow_setup_is_config_error(self, tmp_path):
        # horizon far beyond the shock margin of the default family
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "flow",
                "grid_size": 32,
                "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
                "flow": {"kind": "burgers", "T": 50.0, "time_steps": 16, "mu": "inf"},
            },
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_CONFIG


class TestNumericalStall:
    CONFIG = {
        "schema_version": 1,
        "command": "flow",
        "seed": 0,
        "grid_size": 32,
        "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
        "flow": {"kind": "burgers", "T": 0.5, "time_steps": 8, "mu": "inf"},
    }

    def stall(self, monkeypatch):
        import besovflow.flows as flows

        def stalled(u0, cfg):
            raise flows.CharacteristicSolveError("characteristic solve stalled at node 3, time 0.5")

        monkeypatch.setattr(flows, "burgers_flow", stalled)

    def test_stall_has_its_own_exit_code(self, tmp_path, monkeypatch, capsys):
        self.stall(monkeypatch)
        cfg = write_config(tmp_path / "c.json", self.CONFIG)
        assert EXIT_STALL not in (EXIT_OK, 1, EXIT_CONFIG, EXIT_IO)
        assert main(["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_STALL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical stall:") and "node 3" in err
        assert not (tmp_path / "o" / "flow_report.json").exists()

    def test_quiet_stall_prints_nothing(self, tmp_path, monkeypatch, capsys):
        self.stall(monkeypatch)
        cfg = write_config(tmp_path / "c.json", self.CONFIG)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_STALL
        captured = capsys.readouterr()
        assert captured.out == captured.err == ""


class TestDeterminism:
    def test_verify_runs_are_byte_identical(self, tmp_path):
        payload = {"schema_version": 1, "command": "verify", "seed": 9, "trials": 40}
        cfg = write_config(tmp_path / "c.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a), "--quiet"]) == EXIT_OK
        assert main(["--config", cfg, "--out", str(out_b), "--quiet"]) == EXIT_OK
        assert read_all_reports(out_a) == read_all_reports(out_b)

    def test_seed_override_changes_stream(self, tmp_path):
        payload = {"schema_version": 1, "command": "filters", "grid_size": 64, "seed": 1}
        cfg = write_config(tmp_path / "c.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a), "--quiet"]) == EXIT_OK
        assert (
            main(["--config", cfg, "--out", str(out_b), "--seed", "2", "--quiet"])
            == EXIT_OK
        )
        with open(out_a / "filters_report.json", encoding="utf-8") as fh:
            a = json.load(fh)
        with open(out_b / "filters_report.json", encoding="utf-8") as fh:
            b = json.load(fh)
        assert a["seed"] == 1 and b["seed"] == 2

    def test_flow_runs_are_byte_identical(self, tmp_path):
        payload = {
            "schema_version": 1,
            "command": "flow",
            "seed": 4,
            "grid_size": 32,
            "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
            "flow": {"kind": "burgers", "T": 0.4, "time_steps": 16, "mu": "inf"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", cfg, "--out", str(out_a), "--quiet"]) == EXIT_OK
        assert main(["--config", cfg, "--out", str(out_b), "--quiet"]) == EXIT_OK
        assert read_all_reports(out_a) == read_all_reports(out_b)


class TestReportFormatting:
    def test_floats_have_seventeen_significant_digits(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "filters", "grid_size": 64, "seed": 1},
        )
        out = tmp_path / "out"
        main(["--config", cfg, "--out", str(out), "--quiet"])
        text = (out / "filters_report.json").read_text()
        # a known irrational-ish value appears with full precision
        assert "0.3333333" in text or "partition_max_deviation" in text
        with open(out / "filters_report.json", encoding="utf-8") as fh:
            report = json.load(fh)  # remains valid JSON
        assert "config_hash" in report
