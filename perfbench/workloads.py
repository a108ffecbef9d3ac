"""Seeded inputs for the four benchmark workloads.

Each workload function takes the run's seed and a work directory, writes
the configs and grid files that the CLI ops read, and returns a
:class:`Workload`: the op list, the check for each op, the parameters to
record, and the wrappers a traced pass must see called.  The CLI sees only these generated files.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from checks import GRID_MAGIC, FlowCheck, SpectralCheck, VerifyCheck

TAU = 2.0 * math.pi
TRAJECTORY_DIR = "trajectory"


@dataclass
class Op:
    """One CLI invocation: its config, where it writes, and how it is checked."""

    name: str
    command: str
    config_path: str
    out_dir: str
    check: object
    trajectory: bool = False

    @property
    def report_path(self) -> str:
        return os.path.join(self.out_dir, f"{self.command}_report.json")

    @property
    def trajectory_dir(self) -> str | None:
        return os.path.join(self.out_dir, TRAJECTORY_DIR) if self.trajectory else None

    def cli_args(self) -> list[str]:
        return ["--config", self.config_path, "--out", self.out_dir, "--quiet"]


@dataclass
class Workload:
    name: str
    ops: list
    params: dict
    expected_hits: tuple


FLOW_HITS = (
    "cli.main", "cli.run", "cli.load_config", "cli.dump_json", "cli.dump_csv",
    "flows.make_flow", "flows.flow_as_sequence_map", "flows.block_time_norms",
    "flows.time_continuity_modulus", "flows.save_trajectory", "flows.sinusoid_datum",
    "engine.adapter", "engine.estimate_constants", "engine.high_low_rows",
    "engine.block_decay_profile", "engine.convergence_report", "engine.continuity_probe",
    "littlewood_paley.build_filters", "littlewood_paley.decompose",
    "littlewood_paley.reconstruct", "littlewood_paley.save_grid_function",
    "dyadic.dyadic_norm", "dyadic.truncate", "envelope.compute_envelope",
    "envelope.c_tail_lq", "pseudonorm.eval_pseudo_norm",
)


def _write_config(work: str, name: str, config: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return path


def _op(work, name, config, check, trajectory=False) -> Op:
    return Op(
        name=name,
        command=config["command"],
        config_path=_write_config(work, name, config),
        out_dir=os.path.join(work, "out", name),
        check=check,
        trajectory=trajectory,
    )


def _sinusoid(grid_size: int, member: dict) -> np.ndarray:
    x = np.arange(grid_size) * (TAU / grid_size)
    return member["alpha"] * np.sin(x) + member["beta"] * np.sin(2.0 * x)


# dense nodes for the steepest slope of a family member
_DENSE_X = np.linspace(0.0, TAU, 1 << 15, endpoint=False)


def _pre_shock_member(rng, T: float, ratio_range, beta_range) -> tuple[dict, float]:
    """alpha sin x + beta sin 2x scaled so that T/T* lands in ratio_range.

    T* = 1 / max(-u0') is the first characteristic crossing; the slope is
    taken on a dense grid, which is at least as steep as the CLI's grid.
    """
    sign = float(rng.choice([-1.0, 1.0]))
    beta_ratio = float(rng.uniform(*beta_range))
    slope = sign * (np.cos(_DENSE_X) + 2.0 * beta_ratio * np.cos(2.0 * _DENSE_X))
    ratio = float(rng.uniform(*ratio_range))
    scale = ratio / (T * -float(slope.min()))
    return {"alpha": sign * scale, "beta": sign * scale * beta_ratio}, ratio


def burgers_256(seed: int, work: str) -> Workload:
    """One Burgers `flow` op: the characteristic solver dominates.

    Every member has T/T* in [0.45, 0.5] (the limit is 0.8) and a
    second-harmonic ratio beta/alpha in [-0.3, 0].  T/T* sets the Newton
    iteration count, which this band holds within a few percent from seed
    to seed.  Outside it the cost jumps: with beta/alpha >= 0.2 and
    T/T* >= 0.6 the Newton loop falls back to bisection and a flow costs
    about twice as much; near T/T* = 0.8 the RK4 oracle at N=256 no longer
    resolves the solution to the 1e-6 check.
    """
    from besovflow.flows import burgers_spectral_reference
    from besovflow.littlewood_paley import GridFunction

    rng = np.random.default_rng(seed)
    n, T, steps = 256, 0.5, 64
    members, ratios = zip(
        *(_pre_shock_member(rng, T, (0.45, 0.5), (-0.3, 0.0)) for _ in range(4))
    )
    config = {
        "schema_version": 1,
        "command": "flow",
        "seed": seed,
        "grid_size": n,
        "flow": {"kind": "burgers", "T": T, "time_steps": steps, "mu": "inf",
                 "family": list(members)},
        "io": {"trajectory_dir": TRAJECTORY_DIR},
    }
    times = np.linspace(0.0, T, steps + 1)
    oracle = burgers_spectral_reference(
        GridFunction(_sinusoid(n, members[0])), times, steps_per_interval=32
    )
    expected = np.stack([state.values for state in oracle.states])
    op = _op(work, "flow", config, FlowCheck(times, expected, 1e-6), trajectory=True)
    params = {"grid_size": n, "T": T, "time_steps": steps, "family": list(members),
              "T_over_Tstar": list(ratios), "max_T_over_Tstar": max(ratios)}
    hits = FLOW_HITS + (
        "flows.burgers_flow", "flows.shock_time",
        "flows.TrigInterpolant.value_and_derivative", "flows.TrigInterpolant.__call__",
    )
    return Workload("burgers-256", [op], params, hits)


def transport_2048(seed: int, work: str) -> Workload:
    """One transport `flow` op: an exact phase shift, no Burgers solver."""
    rng = np.random.default_rng(seed)
    n, T, steps = 2048, 1.0, 128
    speed = float(rng.uniform(0.5, 2.0))
    members = []
    for _ in range(4):
        alpha = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.15))
        members.append({"alpha": alpha, "beta": alpha * float(rng.uniform(-0.5, 0.5))})
    config = {
        "schema_version": 1,
        "command": "flow",
        "seed": seed,
        "grid_size": n,
        "flow": {"kind": "transport", "T": T, "time_steps": steps, "mu": "inf",
                 "speed": speed, "family": members},
        "io": {"trajectory_dir": TRAJECTORY_DIR},
    }
    times = np.linspace(0.0, T, steps + 1)
    half = np.fft.rfft(_sinusoid(n, members[0]))
    k = np.arange(half.size)
    expected = np.fft.irfft(half[None, :] * np.exp(-1j * k[None, :] * speed * times[:, None]), n=n)
    op = _op(work, "flow", config, FlowCheck(times, expected, 1e-10), trajectory=True)
    params = {"grid_size": n, "T": T, "time_steps": steps, "speed": speed, "family": members}
    return Workload("transport-2048", [op], params, FLOW_HITS + ("flows.transport_flow",))


def verify_sweeps(seed: int, work: str) -> Workload:
    """One `verify` op: randomized inequality sweeps on scalar sequences."""
    trials = 1000
    config = {"schema_version": 1, "command": "verify", "seed": seed, "trials": trials}
    op = _op(work, "verify", config, VerifyCheck(trials))
    hits = (
        "cli.main", "cli.load_config", "cli.dump_json",
        "dyadic.dyadic_norm", "dyadic.truncate", "dyadic.smoothing_gain",
        "dyadic.weighted_smoothing_sum", "dyadic.truncation_power_sum",
        "dyadic.young_convolve", "dyadic.interpolation_bound", "dyadic.random_sequence",
        "envelope.compute_envelope", "envelope.envelope_equivalence",
        "pseudonorm.eval_pseudo_norm",
    )
    return Workload("verify-sweeps", [op], {"trials": trials}, hits)


def spectral_16k(seed: int, work: str) -> Workload:
    """Seven ops on one seeded N=16384 grid function, binary and CSV."""
    rng = np.random.default_rng(seed)
    n = 16384
    k = np.arange(n // 2 + 1)
    half = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (1.0 + k)
    half[0] = half[0].real
    half[-1] = 0.0  # no Nyquist mode
    values = np.fft.irfft(half, n=n)
    values /= np.abs(values).max()
    l2 = float(np.sqrt(TAU / n * np.dot(values, values)))

    binary = os.path.join(work, "grid.gfn")
    with open(binary, "wb") as fh:
        fh.write(GRID_MAGIC + struct.pack("<Q", n) + values.astype("<f8").tobytes())
    text = os.path.join(work, "grid.csv")
    with open(text, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,value\n")
        fh.writelines(f"{i},{v:.17g}\n" for i, v in enumerate(values.tolist()))

    def config(command, path):
        return {"schema_version": 1, "command": command, "seed": seed, "grid_size": n,
                "io": {"input": path}}

    ops = [_op(work, "filters", config("filters", binary), SpectralCheck("filters", n, l2))]
    for fmt, path in (("bin", binary), ("csv", text)):
        for command in ("decompose", "norms", "envelope"):
            ops.append(_op(work, f"{command}-{fmt}", config(command, path),
                           SpectralCheck(command, n, l2)))
    hits = (
        "cli.main", "cli.load_config", "cli.dump_json", "cli.dump_csv",
        "littlewood_paley.load_grid_function", "littlewood_paley.build_filters",
        "littlewood_paley.smooth_cutoff", "littlewood_paley.decompose",
        "littlewood_paley.reconstruct", "littlewood_paley.partition_of_unity",
        "littlewood_paley.almost_orthogonality", "littlewood_paley.besov_norm",
        "littlewood_paley.sobolev_norm", "littlewood_paley.grid_l2_norm",
        "littlewood_paley.reconstruction_stability_ratio",
        "littlewood_paley.random_grid_function", "envelope.compute_envelope",
        "envelope.envelope_equivalence", "dyadic.dyadic_norm", "dyadic.sequence_report",
        "pseudonorm.eval_pseudo_norm",
    )
    return Workload("spectral-16k", ops, {"grid_size": n, "l2": l2}, hits)


WORKLOADS = {
    "burgers-256": burgers_256,
    "transport-2048": transport_2048,
    "verify-sweeps": verify_sweeps,
    "spectral-16k": spectral_16k,
}
