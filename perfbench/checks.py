"""Output checks for benchmark ops, and their self-test.

Each check reads what one CLI op left behind (exit code, report JSON,
saved trajectory) and returns a list of problems; an empty list means the
op passed.  The checks use their own readers and references, computed from
the generated inputs, and share no code with the layers being timed.  The
one exception is the Burgers oracle, the package's independent
pseudospectral RK4 solver, which shares no code with the characteristic
solver that the timed op runs.
"""
from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

GRID_MAGIC = b"GFN1\x00\x00\x00\x00"


@dataclass(frozen=True)
class OpOutput:
    """What one op produced, parsed by the checker's own readers."""

    exit_code: int
    report: dict | None
    times: np.ndarray | None = None
    states: np.ndarray | None = None


def read_grid_file(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(8) != GRID_MAGIC:
            raise ValueError(f"{path}: not a binary grid file")
        (n,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n:
        raise ValueError(f"{path}: expected {n} samples, found {data.size}")
    return data.astype(float)


def read_output(exit_code: int, report_path, trajectory_dir=None) -> OpOutput:
    """Parse an op's report and, when given, its saved trajectory."""
    report = times = states = None
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError):
        pass
    if trajectory_dir is not None:
        try:
            with open(os.path.join(trajectory_dir, "manifest.json"), encoding="utf-8") as fh:
                times = np.asarray(json.load(fh)["times"], dtype=float)
            states = np.stack(
                [
                    read_grid_file(os.path.join(trajectory_dir, f"state_{i:04d}.gfn"))
                    for i in range(times.size)
                ]
            )
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            times = states = None
    return OpOutput(exit_code, report, times, states)


def _number(x) -> bool:
    # reports write 0.0 as "0", which JSON reads back as an int
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _common(out: OpOutput, command: str) -> list[str]:
    problems = []
    if out.exit_code != 0:
        problems.append(f"exit code {out.exit_code}")
    if out.report is None:
        return problems + ["no report"]
    if out.report.get("command") != command:
        problems.append(f"report is for {out.report.get('command')!r}, not {command!r}")
    if out.report.get("failures") != []:
        problems.append(f"report lists failures: {out.report.get('failures')!r}")
    return problems


def _trajectory(out: OpOutput, times: np.ndarray, expected: np.ndarray, tol: float) -> list[str]:
    if out.states is None:
        return ["no readable trajectory"]
    if out.times.shape != times.shape or np.abs(out.times - times).max() > 1e-12:
        return ["trajectory time nodes differ from the configured grid"]
    if out.states.shape != expected.shape:
        return [f"trajectory shape {out.states.shape}, expected {expected.shape}"]
    error = float(np.abs(out.states - expected).max())
    if not error <= tol:
        return [f"trajectory differs from the reference by {error:.3e} > {tol:g}"]
    return []


class FlowCheck:
    """Flow op: clean report, and the saved trajectory matches a reference."""

    def __init__(self, times: np.ndarray, expected: np.ndarray, tol: float):
        self.times, self.expected, self.tol = times, expected, tol

    def __call__(self, out: OpOutput) -> list[str]:
        return _common(out, "flow") + _trajectory(out, self.times, self.expected, self.tol)

    def corruptions(self, good: OpOutput) -> dict:
        states = good.states.copy()
        states[states.shape[0] // 2, 0] += 1e3 * self.tol
        return {"perturbed trajectory state": replace(good, states=states)}


class VerifyCheck:
    """verify op: every suite ran the full trial count with no violation."""

    SUITES = 7

    def __init__(self, trials: int):
        self.trials = trials

    def __call__(self, out: OpOutput) -> list[str]:
        problems = _common(out, "verify")
        if out.report is None:
            return problems
        suites = out.report.get("suites", [])
        if out.report.get("trials") != self.trials or len(suites) != self.SUITES:
            problems.append(f"expected {self.SUITES} suites of {self.trials} trials")
        for suite in suites:
            if suite.get("trials") != self.trials:
                problems.append(f"suite {suite.get('name')} ran {suite.get('trials')} trials")
            if suite.get("violations") != []:
                problems.append(f"suite {suite.get('name')} has violations")
        return problems

    def corruptions(self, good: OpOutput) -> dict:
        report = copy.deepcopy(good.report)
        report["suites"][0]["trials"] = self.trials - 1
        return {"short trial count": replace(good, report=report)}


class SpectralCheck:
    """filters/decompose/norms/envelope op on the generated grid function."""

    def __init__(self, command: str, grid_size: int, l2: float):
        self.command, self.grid_size, self.l2 = command, grid_size, l2

    def __call__(self, out: OpOutput) -> list[str]:
        problems = _common(out, self.command)
        report = out.report
        if report is None:
            return problems
        if report.get("grid_size") != self.grid_size:
            problems.append(f"grid size {report.get('grid_size')}, expected {self.grid_size}")
        if self.command == "filters":
            deviation = report.get("partition_max_deviation")
            if not (_number(deviation) and deviation <= 1e-12):
                problems.append(f"partition of unity deviates by {deviation}")
        elif self.command == "decompose":
            error = report.get("round_trip_relative_error")
            if not (_number(error) and error <= 1e-10):
                problems.append(f"round trip error {error}")
        elif self.command == "norms":
            l2 = report.get("l2")
            if not (_number(l2) and abs(l2 - self.l2) <= 1e-12 * self.l2):
                problems.append(f"l2 norm {l2}, quadrature gives {self.l2!r}")
        elif self.command == "envelope":
            eq = report.get("equivalence", {})
            lower, mid, upper = (eq.get(k) for k in ("lower", "mid", "upper"))
            if not all(_number(v) for v in (lower, mid, upper)) or not (
                lower <= mid * (1 + 1e-9) and mid <= upper * (1 + 1e-9)
            ):
                problems.append(f"envelope sandwich broken: {eq}")
        return problems

    def corruptions(self, good: OpOutput) -> dict:
        report = copy.deepcopy(good.report)
        if self.command == "filters":
            report["partition_max_deviation"] = 1e-11
        elif self.command == "decompose":
            report["round_trip_relative_error"] = 1e-9
        elif self.command == "norms":
            report["l2"] = self.l2 * (1.0 + 1e-9)
        else:
            report["equivalence"]["mid"] = 2.0 * report["equivalence"]["upper"]
        return {f"corrupted {self.command} value": replace(good, report=report)}


def self_test(check, good: OpOutput) -> dict:
    """Feed a check corrupted copies of a good output; each must fail.

    Every check gets a non-zero exit and a report with a non-empty failure
    list; each kind adds its own corruption (a perturbed trajectory state
    for flows).  Returns corruption name -> whether the check caught it.
    """
    report = copy.deepcopy(good.report)
    report["failures"] = [{"check": "injected"}]
    cases = {
        "non-zero exit": replace(good, exit_code=1),
        "non-empty failures": replace(good, report=report),
        **check.corruptions(good),
    }
    return {name: bool(check(bad)) for name, bad in cases.items()}
