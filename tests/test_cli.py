import gc
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from besovflow.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_IO, EXIT_OK, EXIT_STALL, main
from besovflow.littlewood_paley import (
    GridFunction,
    build_filters,
    decompose,
    load_grid_function,
    random_grid_function,
    reconstruct,
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


PLANTED_ROW = 2  # the trial whose row of a batched result a planted failure corrupts


def with_row(values, source):
    """A copy of per-trial ``values`` whose planted row is taken from ``source``."""
    values = np.array(values, dtype=float)
    values[PLANTED_ROW] = np.broadcast_to(source, values.shape)[PLANTED_ROW]
    return values


def fail_every_row(monkeypatch):
    """Corrupt three verify suites so that every trial fails.

    truncation_power_sum fails its first check on even rows of a chunk and
    its second on odd ones; envelope_equivalence fails both checks, the
    first worse on even rows; interpolation_bound fails at its best level.
    """
    import besovflow.dyadic as dyadic
    import besovflow.envelope as envelope

    power, equivalence = dyadic.truncation_power_sum, envelope.envelope_equivalence
    interpolation = dyadic.interpolation_bound

    def power_sum(*args):
        _, bound = power(*args)
        return bound * np.where(np.arange(bound.size) % 2, 1 / 3, 3.0), bound

    def equivalent(*args):
        _, mid, _ = equivalence(*args)
        return 3.0 * mid, mid, mid / np.where(np.arange(mid.size) % 2, 4.0, 2.0)

    def interpolated(*args):
        r = interpolation(*args)
        return r._replace(actual=2.0 * (r.low + r.high).max(axis=1))

    monkeypatch.setattr(dyadic, "truncation_power_sum", power_sum)
    monkeypatch.setattr(envelope, "envelope_equivalence", equivalent)
    monkeypatch.setattr(dyadic, "interpolation_bound", interpolated)


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

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", ["seed", "trials"])
    def test_seed_and_trials_reject_json_booleans(self, tmp_path, key, value):
        payload = {"schema_version": 1, "command": "verify", "seed": 0, "trials": 1}
        payload[key] = value
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not (out / "verify_report.json").exists()

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

    def test_verify_sweeps_pass(self):
        import besovflow.cli as cli

        violations = {
            (seed, suite["name"]): suite["violations"]
            for seed in range(16)
            for suite in cli._verify_suites(np.random.default_rng(seed), 1000)
            if suite["violations"]
        }
        assert violations == {}

    def test_verify_report_is_pinned(self, tmp_path):
        # sha256 of the report written before split levels were batched.  A
        # passing report holds no sampled values, so the generator state
        # after the sweeps is pinned as well: it moves with every draw.  The
        # state was re-pinned when the suites began to draw a chunk of
        # trials as arrays; the report did not change.
        import besovflow.cli as cli

        rng = np.random.default_rng(12)
        cli._verify_suites(rng, 200)
        assert rng.bit_generator.state["state"]["state"] == (
            172958274973547183828739483198325043183
        )
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 12, "trials": 200},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        digest = hashlib.sha256((out / "verify_report.json").read_bytes()).hexdigest()
        assert digest == "df2d5eef1bc0f5c8dcc3154427cdf3939d79ecb354db988335b70184cc286074"

    def test_failing_verify_report_is_pinned(self, tmp_path, monkeypatch):
        # sha256 of the report written when every (trial, check) row was
        # built as a Check: 600 records, each the worst of its trial's rows.
        # Re-pinned when the norms began to take numpy's power instead of
        # Python's float power: 26 of the report's 2,352 floats moved, by at
        # most 3.0e-16 relative.
        fail_every_row(monkeypatch)
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 12, "trials": 200},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        report = (out / "verify_report.json").read_bytes()
        assert [len(s["violations"]) for s in json.loads(report)["suites"]] == [
            0, 0, 200, 0, 200, 0, 200
        ]
        digest = hashlib.sha256(report).hexdigest()
        assert digest == "afd86dda8ad1df03f827417a1868c2f125d1a595469fcaa3265f4caca7c87b7b"

    def test_filters_csv_is_pinned(self, tmp_path):
        # sha256 of the N = 64 table as written from the complex-FFT layout:
        # one row per frequency -32 .. 31, each radial value read at |xi|
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "filters", "grid_size": 64, "seed": 1},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        digest = hashlib.sha256((out / "filters.csv").read_bytes()).hexdigest()
        assert digest == "362a8b6fc96b515e654935c07d12a1bc9b849b1c95d3611fb7658717a5438f84"

    def test_flow_reports_are_pinned(self, tmp_path):
        # sha256 of each file as written on the real-FFT half spectrum (the
        # CSV rows moved at rounding level from the complex-FFT layout); a
        # refactor that moves one bit of a flow report fails here.
        # flow_report.json was re-pinned when the constant reports lost their
        # "smooth_only": false line; no value in it changed.  decay_profile.csv
        # was re-pinned when each block's Plancherel sum began to run over its
        # own band only: the largest |d| / max(1, |x|) is 3.2e-30 (a relative
        # 2.7e-16, on an lhs of 1.2e-14); the other three files kept their bytes.
        # All four were re-pinned when transport images began to come from the
        # data's power spectra times the phase table's power, without a
        # trajectory: the largest |d| / max(1, |x|) is 4.3e-16 in
        # decay_profile.csv, 3.5e-16 in convergence.csv, 2.7e-16 in
        # flow_report.json and 2.4e-16 in continuity.csv.  All four were
        # re-pinned again when transport images became the data's block norms
        # at t = 0, which no later time exceeds: the largest |d| / max(1, |x|)
        # is 4.3e-16 in decay_profile.csv, 3.5e-16 in convergence.csv,
        # 2.7e-16 in flow_report.json and 2.4e-16 in continuity.csv.
        # flow_report.json was re-pinned when its trajectory began to come
        # from the sequence map's solve of the reconstructed probe datum
        # instead of a second solve of the sampled datum: only
        # block_sup_square_tails moved, by at most 3.0e-28 in |d| / max(1, |x|)
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
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in read_all_reports(out).items()
        }
        assert digests == {
            "continuity.csv": "89d707bc24692065981736ce43d8d626460c81a684a7639a829fd9d2adad427b",
            "convergence.csv": "950a18e053b50bddfe41b34767c4a264d85863f9cb4fa6b4f09dce89d7162eee",
            "decay_profile.csv": "e96d6d53a713bcfce0e0c52a20dc2cc7dda8411d4e4d2750c6b01f83035c5a74",
            "flow_report.json": "14732562d23bf9142b1a59f36defba80019139bad0b7b1fc4e85dfcfdc2a3a12",
        }

    def test_verify_detects_a_broken_interpolation_bound(self, tmp_path, monkeypatch):
        import besovflow.dyadic as dyadic

        original = dyadic.interpolation_bound

        def halved(*args):
            parts = original(*args)
            return parts._replace(low=parts.low / 2, high=parts.high / 2)

        monkeypatch.setattr(dyadic, "interpolation_bound", halved)
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 12, "trials": 50},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        with open(out / "verify_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        suites = {suite["name"]: suite["violations"] for suite in report["suites"]}
        assert suites.pop("interpolation_bound")
        assert not any(suites.values())
        assert [f["suite"] for f in report["failures"]] == ["interpolation_bound"]

    # suite -> (module, function, corruption of its batched result, keys of
    # the record).  Each suite's 5 trials are one batched call, corrupted in
    # the row of trial 2 only.
    PLANTED = {
        "smoothing_gain": (
            "dyadic", "smoothing_gain", lambda r: (with_row(r[0], 2.0 * r[1]), r[1]),
            {"check", "trial"},
        ),
        "weighted_smoothing_sum": (
            "dyadic", "weighted_smoothing_sum", lambda r: (with_row(r[0], 2.0 * r[1]), r[1]),
            {"check", "trial"},
        ),
        "truncation_power_sum": (
            "dyadic", "truncation_power_sum", lambda r: (r[0], with_row(r[1], 2.0 * r[0])),
            {"check", "trial"},
        ),
        "young_convolution": (
            "dyadic", "young_convolve",
            lambda r: r._replace(bound=with_row(r.bound, r.norm / 2)), {"check", "trial"},
        ),
        "envelope_equivalence": (
            "envelope", "envelope_equivalence", lambda r: (r[0], r[1], with_row(r[2], r[1] / 2)),
            {"check", "trial"},
        ),
        "interpolation_bound": (
            "dyadic", "interpolation_bound",
            # every split level of the row bounds it by half its actual value
            lambda r: r._replace(
                low=with_row(r.low, r.actual[:, None] / 4),
                high=with_row(r.high, r.actual[:, None] / 4),
            ),
            {"check", "trial", "n"},
        ),
    }

    def run_planted_verify(self, tmp_path, monkeypatch, module, name, corrupt, bad_call):
        import importlib

        target = importlib.import_module(f"besovflow.{module}")
        original = getattr(target, name)
        calls = []

        def planted(*args):
            result = original(*args)
            calls.append(None)
            return corrupt(result) if len(calls) == bad_call + 1 else result

        monkeypatch.setattr(target, name, planted)
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "command": "verify", "seed": 5, "trials": 5},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        with open(out / "verify_report.json", encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("suite", sorted(PLANTED))
    def test_verify_records_one_planted_failure(self, tmp_path, monkeypatch, suite):
        module, name, corrupt, keys = self.PLANTED[suite]
        report = self.run_planted_verify(tmp_path, monkeypatch, module, name, corrupt, 0)
        suites = {entry["name"]: entry["violations"] for entry in report["suites"]}
        [record] = suites.pop(suite)
        assert not any(suites.values())
        assert set(record) == keys | {"lhs", "rhs"}
        assert record["check"] == suite and record["trial"] == 2
        assert record["lhs"] > record["rhs"]
        assert report["failures"] == [{"suite": suite, "violations": [record]}]

    @pytest.mark.parametrize("zero_at, level", [(None, 3), (7, 6)])
    def test_verify_records_slow_variation_at_the_worst_level(
        self, tmp_path, monkeypatch, zero_at, level
    ):
        # the envelope suite's batched call reaches compute_envelope first,
        # so the slow-variation batch is call 1.  Trial 2's envelope gets
        # ratio 2 at level 3 and, with a zero at ``zero_at``, a positive
        # gamma over a zero bound one level below, which counts as an
        # infinite ratio
        def spike(env):
            gamma = env.gamma.copy()
            row = gamma[PLANTED_ROW]
            row[3] = 2.0 * 2.0 ** (env.s1[PLANTED_ROW] - env.s[PLANTED_ROW]) * row[4]
            if zero_at is not None:
                row[zero_at] = 0.0
            return env._replace(gamma=gamma)

        report = self.run_planted_verify(
            tmp_path, monkeypatch, "envelope", "compute_envelope", spike, 1
        )
        suites = {entry["name"]: entry["violations"] for entry in report["suites"]}
        [record] = suites.pop("envelope_slow_variation")
        lhs, rhs = record.pop("lhs"), record.pop("rhs")
        assert record == {"check": "envelope_slow_variation", "trial": 2, "n": level}
        if zero_at is None:
            assert lhs / rhs == pytest.approx(2.0, rel=1e-12)
        else:
            assert rhs == 0.0 < lhs
        assert not any(suites.values())

    @pytest.mark.parametrize("pair", [(0.05 * (1 + 1e-8), 0.05), (0.05, 0.05 * (1 + 1e-8))])
    def test_power_sum_identity_is_relative_below_one(self, tmp_path, monkeypatch, pair):
        # 5e-10 apart: within an absolute 1e-9, but 1e-8 apart relative to the bound
        report = self.run_planted_verify(
            tmp_path, monkeypatch, "dyadic", "truncation_power_sum",
            lambda r: (with_row(r[0], pair[0]), with_row(r[1], pair[1])), 0,
        )
        # of the trial's two one-sided checks only value > bound fails
        record = {"check": "truncation_power_sum", "trial": 2, "lhs": max(pair), "rhs": min(pair)}
        assert report["failures"] == [{"suite": "truncation_power_sum", "violations": [record]}]

    def test_verify_records_a_nan_row(self, tmp_path, monkeypatch):
        report = self.run_planted_verify(
            tmp_path, monkeypatch, "dyadic", "young_convolve",
            lambda r: r._replace(norm=with_row(r.norm, math.nan)), 0,
        )
        [failure] = report["failures"]
        [record] = failure["violations"]
        assert failure["suite"] == record["check"] == "young_convolution"
        assert record["trial"] == 2 and record["lhs"] == "nan" and record["rhs"] > 0

    def test_flow_detects_shrunken_constants(self, tmp_path, monkeypatch):
        import besovflow.engine as engine

        original = engine.estimate_constants
        monkeypatch.setattr(
            engine, "estimate_constants", lambda *args: original(*args).inflated(1e-3)
        )
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "flow",
                "seed": 2,
                "grid_size": 64,
                "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
                "flow": {"kind": "transport", "T": 1.0, "time_steps": 8},
            },
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        with open(out / "flow_report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        shapes = {"high": {"check", "n"}, "low": {"check", "n"},
                  "block_decay": {"check", "n", "m"}, "convergence": {"check", "n"}}
        assert {f["check"] for f in report["failures"]} == set(shapes)
        for failure in report["failures"]:
            assert set(failure) == shapes[failure["check"]] | {"lhs", "rhs"}
            assert failure["lhs"] > failure["rhs"]

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

    def test_envelope_failure_records_its_lhs_and_rhs(self, tmp_path, monkeypatch):
        import besovflow.envelope as envelope

        original = envelope.envelope_equivalence

        def broken(*args):  # the upper bound drops to half the mid value
            lower, mid, _ = original(*args)
            return lower, mid, mid / 2

        monkeypatch.setattr(envelope, "envelope_equivalence", broken)
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(6), 64))
        config = {"schema_version": 1, "command": "envelope", "io": {"input": str(grid_path)}}
        cfg, out = write_config(tmp_path / "c.json", config), tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == 1
        report = json.loads((out / "envelope_report.json").read_text(encoding="utf-8"))
        mid, upper = report["equivalence"]["mid"], report["equivalence"]["upper"]
        assert report["failures"] == [{"check": "envelope_equivalence", "lhs": mid, "rhs": upper}]

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
        assert (out / "convergence.csv").read_text().startswith("n,actual,bound\n")
        assert (out / "trajectory" / "manifest.json").exists()
        assert (out / "decay_profile.csv").exists()
        assert (out / "continuity.csv").exists()


class TestFlowSolvesEachDatumOnce:
    """A flow op solves each distinct datum once and saves the trajectory of that solve."""

    # alpha sin x + beta sin 2x with T / T* from 0.31 to 0.55 at T = 0.5
    FAMILY = [
        {"alpha": 0.9, "beta": -0.1},
        {"alpha": -0.85, "beta": 0.2},
        {"alpha": 0.8, "beta": -0.05},
        {"alpha": 0.95},
    ]

    def test_burgers_groups_hold_every_datum_once(self, tmp_path, monkeypatch):
        import besovflow.flows as flows

        sizes = []
        solve = flows.burgers_flow

        def recorded(data, cfg):
            sizes.append(len(data))
            return solve(data, cfg)

        monkeypatch.setattr(flows, "burgers_flow", recorded)
        payload = {
            **_flow_payload(kind="burgers", T=0.5, time_steps=16, family=self.FAMILY),
            "grid_size": 256,
            "io": {"trajectory_dir": "trajectory"},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        # 33 pair members and truncations plus 3 probes in groups of 2048 // 256,
        # and no solo solve for the trajectory
        assert sizes == [8, 8, 8, 8, 4]

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_trajectory_and_tails_are_the_reconstructed_probe_datum(self, tmp_path, kind):
        from besovflow.flows import (
            FlowConfig,
            make_flow,
            sinusoid_datum,
            time_continuity_modulus,
        )

        payload = {
            **_flow_payload(kind=kind, T=0.5, time_steps=16, family=self.FAMILY),
            "grid_size": 64,
            "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
            "io": {"trajectory_dir": "trajectory"},
        }
        cfg, out = write_config(tmp_path / "c.json", payload), tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        bank = build_filters(64)
        probe = decompose(sinusoid_datum(64, 0.9, -0.1), bank)
        (traj,) = make_flow(FlowConfig(64, 0.5, 16, kind))([reconstruct(probe, bank)])
        report = json.loads((out / "flow_report.json").read_text(encoding="utf-8"))
        tails = time_continuity_modulus(traj, 2.0, bank)
        assert report["block_sup_square_tails"] == tails.tolist()
        for index, state in enumerate(traj.states):
            saved = load_grid_function(out / "trajectory" / f"state_{index:04d}.gfn")
            assert saved.values.tobytes() == state.values.tobytes()


class TestFailureRecords:
    def test_level_failing_high_and_low_gives_two_records(self):
        from besovflow.cli import _failure_records
        from besovflow.dyadic import DyadicSequence
        from besovflow.engine import FlowMapAdapter, HypothesisReport, high_low_rows
        from besovflow.littlewood_paley import grid_l2_space

        blocks = np.array([1.0, 0.5, 0.25, 0.125])[:, None] * np.ones((4, 8))
        f = DyadicSequence(grid_l2_space(8), blocks)

        def block_norms(fs):  # each image: the block norms of its datum, four blocks wide
            return [np.pad(g.block_norms, (0, 4 - g.support)) for g in fs]

        adapter = FlowMapAdapter(phi=block_norms, radius=100.0, s0=0.0, s=1.0, s1=2.0, q=2.0)
        shrunk = HypothesisReport(1e-3, 1e-3, 0.0, 1.0, 2.0, samples_used=1)
        checks = high_low_rows(adapter, f, shrunk)
        # every row fails but low at the last level, where S_4 f = S_3 f
        assert len(checks) == 8 and [c.failed for c in checks] == [True] * 7 + [False]
        assert _failure_records(checks) == [
            {"check": c.family, "n": n, "lhs": c.lhs, "rhs": c.rhs}
            for n in range(4)
            for c in checks[2 * n : 2 * n + 2]
            if c.failed
        ]

    def test_records_keep_first_seen_order(self):
        from besovflow.cli import _failure_records
        from besovflow.dyadic import Check

        # each record holds its worst failing row: the largest lhs/rhs, where a
        # positive lhs over rhs = 0 counts as infinite
        checks = [
            Check("b", (("n", 1),), 2.0, 1.0),
            Check("a", (("n", 0), ("m", 4)), 1.0, 1.0),
            Check("a", (("n", 0), ("m", 3)), 2.0, 1.0),
            Check("b", (("n", 1),), 3.0, 1.0),
            Check("b", (("n", 1),), 5.0, 4.0),
            Check("b", (("n", 1),), 9.0, 10.0),
            Check("b", (), 1e-300, 0.0),
            Check("b", (), 1e300, 1.0),
            Check("c", (), 2.0, 1.0),
            Check("c", (), math.nan, 1.0),
            Check("c", (), 1e300, 1.0),
            Check("d", (), 1.0, math.nan),
        ]
        records = _failure_records(checks)
        assert records[:3] == [
            {"check": "b", "n": 1, "lhs": 3.0, "rhs": 1.0},
            {"check": "a", "n": 0, "m": 3, "lhs": 2.0, "rhs": 1.0},
            {"check": "b", "lhs": 1e-300, "rhs": 0.0},
        ]
        # a NaN side fails and ranks as infinite, above any finite ratio
        c, d = records[3:]
        assert c["check"] == "c" and math.isnan(c["lhs"]) and c["rhs"] == 1.0
        assert d["check"] == "d" and d["lhs"] == 1.0 and math.isnan(d["rhs"])


class TestExitStatus:
    def test_failures_map_to_exit_one(self, tmp_path, monkeypatch):
        import besovflow.cli as cli

        def failing_handler(config, outdir):
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

    def test_zero_continuity_direction_is_config_error(self, tmp_path, capsys):
        # members 0 and 1 are equal, so there is no direction toward member 1
        family = [{"alpha": 0.1}, {"alpha": 0.1}, {"alpha": 0.05}]
        cfg = write_config(tmp_path / "c.json", _flow_payload(family=family))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "continuity direction must be nonzero" in capsys.readouterr().err
        assert not (out / "flow_report.json").exists()

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_default_ball_holds_a_small_family(self, tmp_path, kind):
        # the largest member norm M ~ 0.008 lies below the probe's largest
        # step 0.1, so a radius of 2 M would not hold the probes
        family = [{"alpha": 0.001}, {"alpha": 0.0008, "beta": 0.0002}]
        payload = {**_flow_payload(kind=kind, T=0.5, time_steps=16, family=family), "grid_size": 64}
        cfg, out = write_config(tmp_path / "c.json", payload), tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
        report = json.loads((out / "flow_report.json").read_text(encoding="utf-8"))
        assert report["ball_radius"] == pytest.approx(0.208, abs=1e-3)
        assert report["continuity_trend_ok"]

    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_mu_inf_runs_as_when_absent(self, tmp_path, kind):
        # "inf" names the one time norm, so giving it changes no file but the config hash
        runs = []
        for name, flow in (("absent", {}), ("inf", {"mu": "inf"})):
            payload = _flow_payload(kind=kind, T=0.5, **flow)
            cfg, out = write_config(tmp_path / f"{name}.json", payload), tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            runs.append(read_all_reports(out))
        reports = [json.loads(run.pop("flow_report.json")) for run in runs]
        assert runs[0] == runs[1]
        assert reports[0].pop("config_hash") != reports[1].pop("config_hash")
        assert reports[0] == reports[1] and reports[0]["mu"] == "inf"

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


def _flow_payload(**flow):
    base = {"kind": "transport", "T": 1.0, "time_steps": 8}
    return {"schema_version": 1, "command": "flow", "grid_size": 32, "flow": {**base, **flow}}


def _norms_payload(**keys):
    return {"schema_version": 1, "command": "norms", **keys}


class TestMalformedConfigSections:
    """A malformed config section or value exits 2 with one line naming it, and no report."""

    @pytest.mark.parametrize(
        "payload, name",
        [
            (_flow_payload(family=[]), "flow.family"),
            (_flow_payload(family=[{"beta": 0.1}]), "flow.family"),
            (_flow_payload(family={"alpha": 0.1}), "flow.family"),
            (_flow_payload(family=[0.1]), "flow.family"),
            (_flow_payload(family=[{"alpha": True}]), "flow.family"),
            (_flow_payload(family=[{"alpha": 0.1, "beta": "0.05"}]), "flow.family"),
            (_flow_payload(ball_radius=5.0), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius=True), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius="5"), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius=0.0), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius=-1.0), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius=float("inf")), "unknown config key flow.ball_radius"),
            (_flow_payload(ball_radius=10**400), "unknown config key flow.ball_radius"),
            (_flow_payload(T=0.0), "horizon T"),
            (_flow_payload(T=-0.5), "horizon T"),
            (_flow_payload(T="inf"), "horizon T"),
            (_flow_payload(kind="burgers", T=0.0), "horizon T"),
            (_flow_payload(kind="burgers", T=-0.5), "horizon T"),
            (_norms_payload(besov=[1]), "besov"),
            (_norms_payload(besov={"s": 1.0}), "besov"),
            (_norms_payload(s_values=1.0), "s_values"),
            (_norms_payload(s_values=["1"]), "s_values"),
            (_norms_payload(s_values=[True]), "s_values"),
            ({**_flow_payload(), "scale": [1]}, "scale"),
            ({**_flow_payload(), "flow": []}, "flow"),
            ({**_flow_payload(), "io": []}, "io"),
            ({"schema_version": 1, "command": "decompose", "io": []}, "io"),
            ({**_flow_payload(), "scale": {"s1": 10**400}}, "scale.s1"),
            ({**_flow_payload(), "scale": {"s1": "inf"}}, "scale.s1"),
            (_norms_payload(besov=[{"s": 10**400}]), "besov.s"),
            (_norms_payload(besov=[{"s": "inf"}]), "besov.s"),
            (_norms_payload(besov=[{"s": 5000.0}]), "(s, q) = (5000, 2) dyadic norm"),
            (_norms_payload(besov=[{"q": 0.5}]), "summability q must be >= 1"),
            (_flow_payload(speed="inf"), "flow.speed"),
            (_flow_payload(speed=float("nan")), "flow.speed"),
            (_flow_payload(T=float("nan")), "flow.T"),
            (_flow_payload(mu=float("nan")), "flow.mu"),
            (_flow_payload(mu=4.0), "flow.mu must be 'inf'"),
            (_flow_payload(mu="4"), "flow.mu must be 'inf'"),
            ({**_flow_payload(), "schema_version": True}, "schema_version must be 1"),
            ({**_flow_payload(), "schema_version": 1.0}, "schema_version must be 1"),
            ({**_flow_payload(), "schema_version": "1"}, "schema_version must be 1"),
            (
                {k: v for k, v in _flow_payload().items() if k != "schema_version"},
                "schema_version must be 1",
            ),
            ({**_flow_payload(), "trails": 8}, "unknown config key trails"),
            ({**_flow_payload(), "scale": {"s_1": 3.0}}, "unknown config key scale.s_1"),
            (_flow_payload(timesteps=8), "unknown config key flow.timesteps"),
            ({**_flow_payload(), "io": {"ouput": "o"}}, "unknown config key io.ouput"),
            (
                _flow_payload(family=[{"alpha": 0.1}, {"alpha": 0.1, "bta": 0.5}]),
                "unknown config key flow.family[1].bta",
            ),
            (_norms_payload(besov=[{"s": 1.0, "r": 2.0}]), "unknown config key besov[0].r"),
        ],
        ids=[
            "family-empty", "family-no-alpha", "family-object", "family-number",
            "family-bool-alpha", "family-string-beta",
            "radius-key", "radius-bool", "radius-string", "radius-zero", "radius-negative",
            "radius-inf", "radius-huge-int",
            "transport-T-zero", "transport-T-negative", "transport-T-inf",
            "burgers-T-zero", "burgers-T-negative",
            "besov-number", "besov-object", "s-values-number", "s-values-string",
            "s-values-bool",
            "scale-list", "flow-list", "io-list-flow", "io-list-decompose",
            "scale-huge-int", "scale-inf", "besov-huge-int", "besov-inf", "besov-out-of-range",
            "besov-q-below-one",
            "speed-inf", "speed-nan", "T-nan", "mu-nan", "mu-four", "mu-string",
            "schema-version-bool", "schema-version-float", "schema-version-string",
            "schema-version-missing",
            "key-top", "key-scale", "key-flow", "key-io", "key-family-member", "key-besov-entry",
        ],
    )
    def test_exits_as_invalid_config(self, tmp_path, capsys, payload, name):
        if payload["command"] == "norms":
            grid_path = tmp_path / "u.gfn"
            save_grid_function(grid_path, random_grid_function(np.random.default_rng(0), 32))
            payload["io"] = {"input": str(grid_path)}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and err.count("\n") == 1
        assert name in err
        assert not (out / f"{payload['command']}_report.json").exists()


class TestValuesOfUnreadKeys:
    """Every value present is checked whatever the command, so a key that the command does
    not read exits 2 on a bad value, and is still accepted when its value is good."""

    @pytest.mark.parametrize(
        "payload, name",
        [
            (
                {"schema_version": 1, "command": "verify", "trials": 3,
                 "flow": {"kind": "burgers", "T": 0.5}, "s_values": [1.0],
                 "scale": {"s": 7.0}},
                "s0 < s < s1",
            ),
            ({"schema_version": 1, "command": "filters", "grid_size": 8,
              "scale": {"q": 0.5}}, "scale.q"),
            ({"schema_version": 1, "command": "filters", "grid_size": 8,
              "flow": {"kind": "heat"}}, "flow kind"),
            ({"schema_version": 1, "command": "verify", "trials": 1,
              "flow": {"time_steps": 0}}, "time_steps"),
            ({"schema_version": 1, "command": "verify", "trials": 1,
              "flow": {"family": []}}, "flow.family"),
            ({"schema_version": 1, "command": "filters", "grid_size": 8,
              "s_values": ["1"]}, "s_values"),
            ({"schema_version": 1, "command": "filters", "grid_size": 8,
              "besov": [{"q": 0.5}]}, "besov[0].q"),
            ({"schema_version": 1, "command": "verify", "trials": 1,
              "besov": [{"s": 1.0}, {"p": 0.5}]}, "besov[1].p"),
            ({"schema_version": 1, "command": "verify", "trials": 1,
              "io": {"input": 5}}, "io.input"),
            ({"schema_version": 1, "command": "verify", "trials": 1,
              "io": {"trajectory_dir": ["x"]}}, "io.trajectory_dir"),
        ],
        ids=["verify-scale-s", "filters-scale-q", "filters-flow-kind", "verify-time-steps",
             "verify-family", "filters-s-values", "filters-besov-q", "verify-besov-p",
             "verify-io-input", "verify-io-trajectory-dir"],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, payload, name):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and err.count("\n") == 1
        assert name in err
        assert not out.exists()

    def test_bench_filters_config_runs(self, tmp_path):
        # the filters op of the spectral benchmark sends io.input, which filters does not read
        grid_path = tmp_path / "grid.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(3), 16384))
        cfg = write_config(
            tmp_path / "filters.json",
            {"schema_version": 1, "command": "filters", "seed": 3, "grid_size": 16384,
             "io": {"input": str(grid_path)}},
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK


class TestIoPaths:
    """An ``io`` path that is not a string is an invalid config, caught before any output."""

    @pytest.mark.parametrize("value", [5, 0])
    def test_non_string_input_is_not_a_file_descriptor(self, tmp_path, value):
        # in a child process, so a descriptor taken as a file cannot close this one's
        cfg = write_config(tmp_path / "c.json", _norms_payload(io={"input": value}))
        out = tmp_path / "o"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-m", "besovflow.cli", "--config", cfg, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith("invalid config:") and "io.input" in result.stderr
        assert not out.exists()

    def test_non_string_trajectory_dir_leaves_no_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {**_flow_payload(), "io": {"trajectory_dir": 5}})
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and "io.trajectory_dir" in err
        assert not out.exists()


class TestTinyData:
    def test_envelope_of_tiny_data_is_not_zero(self, tmp_path):
        x = np.arange(64) * (2.0 * np.pi / 64)
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, GridFunction(1e-200 * np.sin(3.0 * x)))
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
            eq = json.load(fh)["equivalence"]
        assert 0.0 < eq["lower"] <= eq["mid"] <= eq["upper"]


class TestOutOfFloatRange:
    """A scale whose norms or envelope leave float range is an invalid config."""

    @pytest.mark.parametrize(
        "command, scale",
        [
            ("flow", {"s0": 0.0, "s": 200.0, "s1": 300.0}),
            ("envelope", {"s0": 0.0, "s": 200.0, "s1": 201.0}),
            ("envelope", {"s0": 0.0, "s": 2.0, "s1": 300.0}),
        ],
        ids=["flow-s200-s1-300", "envelope-s200", "envelope-s2-s1-300"],
    )
    def test_exits_as_invalid_config(self, tmp_path, command, scale):
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(0), 64))
        payload = {"schema_version": 1, "command": command, "grid_size": 32, "scale": scale}
        if command == "flow":
            payload["flow"] = {"kind": "transport", "T": 1.0, "time_steps": 8}
        else:
            payload["io"] = {"input": str(grid_path)}
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "o"
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-m", "besovflow.cli", "--config", cfg, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_CONFIG
        assert result.stderr.startswith("invalid config:") and result.stderr.count("\n") == 1
        assert "leaves float range" in result.stderr
        assert not (out / f"{command}_report.json").exists()


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


class TestCommandImports:
    """A command loads only the modules it uses."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    FLOW_STACK = ("besovflow.flows", "besovflow.engine", "numpy.polynomial")

    def loaded_after(self, code, modules=FLOW_STACK):
        """Which of ``modules`` a fresh interpreter holds after ``code``."""
        # this test process has loaded every module already
        probe = f"; import json; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
        result = subprocess.run(
            [sys.executable, "-c", "import sys; " + code + probe],
            env=dict(os.environ, PYTHONPATH=self.SRC), capture_output=True, text=True,
            timeout=120, check=True,
        )
        return json.loads(result.stdout)

    def test_cli_import_loads_no_flow_stack(self):
        # nor the filter bank or the envelope, which not every command uses;
        # no module builds a class with the dataclasses factory
        unused = ("besovflow.littlewood_paley", "besovflow.envelope", "dataclasses")
        assert self.loaded_after("import besovflow.cli", self.FLOW_STACK + unused) == []

    def test_spectral_commands_load_no_flow_stack(self, tmp_path):
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(0), 64))
        runs = []
        for command in ("filters", "decompose", "norms"):
            cfg = write_config(
                tmp_path / f"{command}.json",
                {"schema_version": 1, "command": command, "grid_size": 64,
                 "io": {"input": str(grid_path)}},
            )
            runs.append(f"main(['--config', {cfg!r}, '--out', {str(tmp_path)!r}, '--quiet'])")
        code = "from besovflow.cli import main; " + "; ".join(runs)
        # nor the envelope module, which only envelope, verify and flow use
        assert self.loaded_after(code, self.FLOW_STACK + ("besovflow.envelope",)) == []

    def test_verify_and_envelope_load_no_engine(self, tmp_path):
        # their bound rows are dyadic.Check rows, so neither command loads the engine
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(0), 64))
        configs = {
            "verify": {"trials": 4},
            "envelope": {"io": {"input": str(grid_path)}},
        }
        runs = []
        for command, keys in configs.items():
            cfg = write_config(
                tmp_path / f"{command}.json", {"schema_version": 1, "command": command, **keys}
            )
            out = str(tmp_path / command)
            runs.append(f"main(['--config', {cfg!r}, '--out', {out!r}, '--quiet'])")
        code = "from besovflow.cli import main; assert [" + ", ".join(runs) + "] == [0, 0]"
        assert self.loaded_after(code) == []

    def test_verify_loads_no_filter_bank(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", {"schema_version": 1, "command": "verify", "trials": 4}
        )
        run = f"main(['--config', {cfg!r}, '--out', {str(tmp_path)!r}, '--quiet'])"
        code = f"from besovflow.cli import main; assert {run} == 0"
        assert self.loaded_after(code, ("besovflow.littlewood_paley",)) == []

    def test_only_drawing_commands_import_numpy_random(self, tmp_path):
        def loads_random(code):
            probe = "; print('numpy.random' in sys.modules)"
            result = subprocess.run(
                [sys.executable, "-c", "import sys; " + code + probe],
                env=dict(os.environ, PYTHONPATH=self.SRC), capture_output=True, text=True,
                timeout=120, check=True,
            )
            return result.stdout.strip() == "True"

        if loads_random("import numpy"):
            pytest.skip("this numpy imports numpy.random with numpy itself")
        grid_path = tmp_path / "u.gfn"
        save_grid_function(grid_path, random_grid_function(np.random.default_rng(0), 64))
        configs = {
            "norms": {"io": {"input": str(grid_path)}},
            "flow": {"grid_size": 64, "flow": {"kind": "transport", "T": 1.0, "time_steps": 8}},
        }
        runs = []
        for command, keys in configs.items():
            cfg = write_config(
                tmp_path / f"{command}.json", {"schema_version": 1, "command": command, **keys}
            )
            out = str(tmp_path / command)
            runs.append(f"main(['--config', {cfg!r}, '--out', {out!r}, '--quiet'])")
        code = "from besovflow.cli import main; assert [" + ", ".join(runs) + "] == [0, 0]"
        assert not loads_random(code)

    def test_other_errors_are_library_faults(self, tmp_path, monkeypatch, capsys):
        import besovflow.cli as cli
        import besovflow.flows  # noqa: F401  (first with flows loaded, then without)

        def broken(config, outdir):
            raise RuntimeError("not a stall")

        monkeypatch.setitem(cli._COMMANDS, "filters", broken)
        cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "command": "filters"})
        out = tmp_path / "o"
        for quiet in (["--quiet"], []):  # the traceback is printed even under --quiet
            assert main(["--config", cfg, "--out", str(out), *quiet]) == EXIT_FAULT
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("Traceback")
            assert captured.err.rstrip().endswith("RuntimeError: not a stall")
            monkeypatch.delitem(sys.modules, "besovflow.flows", raising=False)
        assert not (out / "filters_report.json").exists()


class TestEvaluationPlan:
    @pytest.mark.parametrize("kind", ["transport", "burgers"])
    def test_each_distinct_sequence_reaches_phi_once(self, tmp_path, monkeypatch, kind):
        import besovflow.engine as engine

        mapped = []

        class RecordingAdapter(engine.FlowMapAdapter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                phi = self.phi

                def recorded(sequences):
                    mapped.extend(f.key for f in sequences)
                    return phi(sequences)

                self.phi = recorded

        monkeypatch.setattr(engine, "FlowMapAdapter", RecordingAdapter)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "command": "flow",
                "seed": 2,
                "grid_size": 64,
                "flow": {"kind": kind, "T": 0.5, "time_steps": 8, "mu": "inf"},
            },
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_OK
        assert mapped and len(mapped) == len(set(mapped))


class TestBatchedVerify:
    """Each verify suite evaluates a chunk of trials in one batched call."""

    # the function each suite's chunk goes through; compute_envelope serves
    # the slow-variation suite and envelope_equivalence, so twice per chunk
    BATCHED = (
        ("dyadic", "smoothing_gain", 1),
        ("dyadic", "weighted_smoothing_sum", 1),
        ("dyadic", "truncation_power_sum", 1),
        ("dyadic", "young_convolve", 1),
        ("envelope", "envelope_equivalence", 1),
        ("envelope", "compute_envelope", 2),
        ("dyadic", "interpolation_bound", 1),
    )

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_one_batched_call_per_suite_and_chunk(self, monkeypatch, chunk):
        import importlib

        import besovflow.cli as cli

        if chunk is not None:
            monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
        calls = {}
        for module, name, _ in self.BATCHED + (("dyadic", "random_sequence", None),):
            target = importlib.import_module(f"besovflow.{module}")

            def counted(*args, _name=name, _original=getattr(target, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)
        cli._verify_suites(np.random.default_rng(12), 200)
        chunks = -(-200 // cli.VERIFY_CHUNK)
        # six suites draw one batch of sequences per chunk
        assert calls == {name: per * chunks for _, name, per in self.BATCHED} | {
            "random_sequence": 6 * chunks
        }

    def test_trials_build_no_dyadic_sequence(self, monkeypatch):
        import besovflow.cli as cli
        import besovflow.dyadic as dyadic
        from besovflow.littlewood_paley import grid_l2_space

        built = []
        original = dyadic.DyadicSequence.__init__

        def counted(self, *args):
            built.append(self)
            original(self, *args)

        monkeypatch.setattr(dyadic.DyadicSequence, "__init__", counted)
        cli._verify_suites(np.random.default_rng(12), 200)
        assert built == []
        dyadic.DyadicSequence(grid_l2_space(8), np.ones((1, 8)))  # the count is live
        assert len(built) == 1

    @staticmethod
    def counted_checks(monkeypatch):
        import besovflow.cli as cli

        built = []

        def counted(*args):
            built.append(cli.dyadic.Check(*args))
            return built[-1]

        monkeypatch.setattr(cli, "Check", counted)
        return built

    def test_passing_sweeps_build_no_check_row(self, monkeypatch):
        import besovflow.cli as cli

        built = self.counted_checks(monkeypatch)
        suites = cli._verify_suites(np.random.default_rng(3), 1000)
        assert [s["violations"] for s in suites] == [[]] * 7
        assert built == []

    def test_a_failing_sweep_builds_only_its_failing_rows(self, monkeypatch):
        import besovflow.cli as cli

        fail_every_row(monkeypatch)
        built = self.counted_checks(monkeypatch)
        suites = cli._verify_suites(np.random.default_rng(12), 200)
        # one failing power-sum check, two equivalence checks and one
        # interpolation check per trial, trial by trial
        assert [(c.family, c.index[0][1]) for c in built] == [
            (name, trial)
            for name, per in (
                ("truncation_power_sum", 1), ("envelope_equivalence", 2),
                ("interpolation_bound", 1),
            )
            for trial in range(200)
            for _ in range(per)
        ]
        assert all(c.failed for c in built)
        assert all(type(v) is float for c in built for v in (c.lhs, c.rhs))
        assert all(type(n) is int for c in built for _, n in c.index)
        assert sum(len(s["violations"]) for s in suites) == 600

    def test_random_sequence_is_a_read_only_batch(self):
        import besovflow.dyadic as dyadic

        batch = dyadic.random_sequence(np.random.default_rng(12), 50, 9, (-3.0, 5.0))
        supports = np.random.default_rng(12).integers(1, 10, 50)  # its first draw
        assert isinstance(batch, np.ndarray) and batch.dtype == float
        assert batch.shape == (50, supports.max()) and not batch.flags.writeable
        assert np.array_equal(np.count_nonzero(batch, axis=1), supports)
        assert ((1 <= supports) & (supports <= 9)).all()
        stored = np.arange(batch.shape[1]) < supports[:, None]
        assert (batch[~stored] == 0.0).all()
        assert ((2.0**-3 <= batch[stored]) & (batch[stored] < 2.0**5)).all()

    def test_one_sequence_is_the_draws_of_a_signed_sequence(self):
        import besovflow.dyadic as dyadic

        rng, expected_rng = np.random.default_rng(12), np.random.default_rng(12)
        batch = dyadic.random_sequence(rng, 1)
        size = int(expected_rng.integers(1, 33))
        magnitudes = np.exp2(expected_rng.uniform(-20.0, 20.0, size))
        expected_rng.integers(0, 2, size)  # the signs, which the block norms drop
        assert np.array_equal(batch, magnitudes[None])
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_chunk_size_changes_no_report_byte(self, tmp_path, monkeypatch):
        import besovflow.cli as cli

        trials = cli.VERIFY_CHUNK + 44  # two chunks at the default size
        payload = {"schema_version": 1, "command": "verify", "seed": 3, "trials": trials}
        cfg = write_config(tmp_path / "c.json", payload)
        reports = []
        for chunk in (1, 7, cli.VERIFY_CHUNK):
            monkeypatch.setattr(cli, "VERIFY_CHUNK", chunk)
            out = tmp_path / str(chunk)
            assert main(["--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
            reports.append(read_all_reports(out))
        assert reports[0] == reports[1] == reports[2]


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

    def test_a_record_is_not_written_as_a_list(self, tmp_path):
        # records are tuples too; only plain lists and tuples are arrays
        from besovflow.cli import dump_json
        from besovflow.dyadic import Check

        path = tmp_path / "r.json"
        dump_json({"rows": [("n", 1), [0.5]]}, path)
        assert json.loads(path.read_text()) == {"rows": [["n", 1], [0.5]]}
        with pytest.raises(TypeError, match="cannot serialize Check"):
            dump_json({"row": Check("high", (("n", 1),), 0.5, 1.0)}, path)


class TestProcessEntryPoint:
    """``python -m besovflow.cli`` and the console script run ``main`` and then exit."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run_python(self, *args):
        return subprocess.run(
            [sys.executable, *args], env=dict(os.environ, PYTHONPATH=os.path.join(self.ROOT, "src")),
            stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120,
        )

    def test_module_run_writes_what_main_writes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", _flow_payload())
        out = tmp_path / "a"
        result = self.run_python("-m", "besovflow.cli", "--config", cfg, "--out", str(out))
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        assert result.stdout == f"flow: ok; report at {out / 'flow_report.json'}\n"
        assert main(["--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == EXIT_OK
        assert read_all_reports(out) == read_all_reports(tmp_path / "b")

    def test_module_run_exits_2_on_a_bad_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "command": "nope"})
        result = self.run_python("-m", "besovflow.cli", "--config", cfg, "--out", str(tmp_path))
        assert (result.returncode, result.stdout) == (EXIT_CONFIG, "")
        assert result.stderr.startswith("invalid config:") and result.stderr.count("\n") == 1

    def test_console_script_freezes_the_heap_after_main(self, tmp_path):
        # nothing is frozen at import; exit handlers still run after the freeze
        with open(os.path.join(self.ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            assert 'besovflow = "besovflow.cli:entry_point"' in fh.read()
        cfg = write_config(tmp_path / "c.json", _flow_payload())
        argv = ["besovflow", "--config", cfg, "--out", str(tmp_path), "--quiet"]
        code = (
            "import atexit, gc, sys; from besovflow.cli import entry_point; "
            "print('imported', gc.get_freeze_count()); "
            "atexit.register(lambda: print('exiting', gc.get_freeze_count() > 1000)); "
            f"sys.argv = {argv!r}; entry_point()"
        )
        result = self.run_python("-c", code)
        assert (result.returncode, result.stderr) == (EXIT_OK, "")
        assert result.stdout.splitlines() == ["imported 0", "exiting True"]

    def test_main_in_process_freezes_nothing(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", _flow_payload())
        frozen = gc.get_freeze_count()
        assert main(["--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert gc.get_freeze_count() == frozen
