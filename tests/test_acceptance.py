"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""
import json
import math
import os

import numpy as np
import pytest

from besovflow.cli import EXIT_OK, main as cli_main
from besovflow.dyadic import random_sequence, smoothing_gain, weighted_smoothing_sum
from besovflow.engine import verify_map
from besovflow.envelope import compute_envelope, envelope_equivalence
from besovflow.flows import (
    FlowConfig,
    burgers_flow,
    burgers_spectral_reference,
    chemin_lerner_norm,
    flow_as_sequence_map,
    sinusoid_datum,
    sup_time_sobolev_norm,
    time_continuity_modulus,
)
from besovflow.littlewood_paley import (
    almost_orthogonality,
    build_filters,
    decompose,
    grid_l2_norm,
    partition_of_unity,
    random_grid_function,
    reconstruct,
)
from conftest import bessel_potential

INF = math.inf
GRID = 256
SCALE = (0.0, 2.0, 3.0, 2.0)  # (s0, s, s1, q)


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def bank():
    return build_filters(GRID)


@pytest.fixture(scope="module")
def transport_setup(bank):
    rng = np.random.default_rng(616)
    data = [random_grid_function(rng, GRID, max_mode=24, decay=2.5) for _ in range(4)]
    family = [decompose(u, bank) for u in data]
    cfg = FlowConfig(grid_size=GRID, T=1.0, time_steps=64, flow_kind="transport")
    return verify_map(flow_as_sequence_map(cfg, bank), family, SCALE)


@pytest.fixture(scope="module")
def burgers_setup(bank):
    data = [
        sinusoid_datum(GRID, a, b)
        for a, b in [(0.1, 0.05), (0.08, -0.04), (-0.06, 0.05), (0.12, 0.0)]
    ]
    family = [decompose(u, bank) for u in data]
    cfg = FlowConfig(grid_size=GRID, T=0.5, time_steps=64, flow_kind="burgers")
    (trajectory,) = burgers_flow([data[0]], cfg)
    return {
        "verified": verify_map(flow_as_sequence_map(cfg, bank), family, SCALE),
        "cfg": cfg, "trajectory": trajectory,
    }


def test_criterion_01_filter_axioms(bank):
    partition_dev = float(np.abs(partition_of_unity(bank) - 1.0).max())
    ao = almost_orthogonality(bank)
    ok = (
        partition_dev <= 1e-12
        and ao.min() >= 1.0 / 3.0 - 1e-12
        and ao.max() <= 1.0 + 1e-12
    )
    report(
        ok,
        "criterion 1 (filter axioms)",
        f"partition dev {partition_dev:.2e}, ao in [{ao.min():.12f}, {ao.max():.12f}]",
    )


def test_criterion_02_exact_inversion(bank):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        u = random_grid_function(rng, GRID, decay=float(rng.uniform(0.0, 2.0)))
        rebuilt = reconstruct(decompose(u, bank), bank)
        worst = max(
            worst,
            float(np.abs(rebuilt.values - u.values).max())
            / float(np.abs(u.values).max()),
        )
    report(
        worst <= 1e-10,
        "criterion 2 (exact inversion)",
        f"worst relative error {worst:.2e} over 1000 functions",
    )


def test_criterion_03_sobolev_equivalence(bank):
    rng = np.random.default_rng(202)
    worst_low, worst_high = math.inf, 0.0
    ok = True
    for _ in range(200):
        u = random_grid_function(rng, GRID, decay=float(rng.uniform(0.0, 1.5)))
        for s in (-1.0, 0.0, 1.0, 2.0):
            shifted = bessel_potential(u, s)
            blockwise = float(np.sum(grid_l2_norm(decompose(shifted, bank).blocks) ** 2))
            squared = grid_l2_norm(shifted) ** 2
            ok = ok and blockwise <= squared * (1 + 1e-9)
            ok = ok and squared <= 3.0 * blockwise * (1 + 1e-9)
            worst_low = min(worst_low, blockwise / squared)
            worst_high = max(worst_high, squared / blockwise)
    report(
        ok,
        "criterion 3 (dyadic Sobolev equivalence)",
        f"block-sum/norm ratios within [{worst_low:.4f}, {worst_high:.4f}] of [1/3, 1]",
    )


def test_criterion_04_smoothing_bounds():
    rng = np.random.default_rng(303)
    ok = True
    worst_gain, worst_weighted = 0.0, 0.0
    for _ in range(1000):
        f = random_sequence(rng, 1)
        r = float(rng.uniform(-2.0, 2.0))
        rp = r + float(rng.uniform(0.05, 2.0))
        q = float(rng.choice([1.0, 2.0, INF]))
        n = int(rng.integers(0, f.shape[1] + 4))
        value, bound = (x[0] for x in smoothing_gain(f, r, rp, q, n))
        if bound > 0:
            worst_gain = max(worst_gain, value / bound)
        ok = ok and value <= bound * (1 + 1e-9)
        value, bound = (x[0] for x in weighted_smoothing_sum(f, r, rp, q))
        if bound > 0:
            worst_weighted = max(worst_weighted, value / bound)
        ok = ok and value <= bound * (1 + 1e-9)
    report(
        ok,
        "criterion 4 (smoothing bounds)",
        f"worst value/bound: gain {worst_gain:.6f}, weighted sum {worst_weighted:.6f}",
    )


def test_criterion_05_envelope_equivalence():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        f = random_sequence(rng, 1)
        s = float(rng.uniform(-2.0, 2.0))
        s1 = s + float(rng.uniform(0.1, 2.0))
        q = float(rng.choice([1.0, 2.0, INF]))
        lower, mid, upper = (x[0] for x in envelope_equivalence(f, s, q, s1))
        ok = ok and lower <= mid * (1 + 1e-9) and mid <= upper * (1 + 1e-9)
        growth = 2.0 ** (s1 - s)
        gamma = compute_envelope(f, s, s1).gamma[0]
        ok = ok and bool(np.all(gamma[:-1] <= growth * gamma[1:] * (1 + 1e-9)))
    report(
        ok,
        "criterion 5 (envelope equivalence)",
        "sandwich and one-sided slow variation hold on 1000 sequences",
    )


def test_criterion_06_transport_engine(transport_setup):
    constants = transport_setup.constants_checked
    high_ok, low_ok, decay_ok, conv_ok = (
        not any(c.failed for c in transport_setup.rows(family))
        for family in ("high", "low", "block_decay", "convergence")
    )
    decay_rows = len(transport_setup.rows("block_decay"))
    ok = constants.kappa == 1.0 and high_ok and low_ok and decay_ok and conv_ok
    ok = ok and constants.A == pytest.approx(4.0, rel=1e-15)
    report(
        ok,
        "criterion 6 (transport engine rows)",
        f"high/low {high_ok}/{low_ok}, "
        f"decay rows {decay_rows} ok={decay_ok}, telescoped ok={conv_ok}, A={constants.A}",
    )


def test_criterion_07_burgers_continuity(burgers_setup):
    verified = burgers_setup["verified"]
    conv = verified.rows("convergence")
    conv_ok = not any(c.failed for c in conv)
    vanishes = conv[-1].lhs <= 1e-12

    outputs = [row.output_distance for row in verified.continuity.rows]
    strictly_decreasing = outputs[0] > outputs[1] > outputs[2]
    ok = conv_ok and vanishes and strictly_decreasing and verified.continuity.trend_ok
    report(
        ok,
        "criterion 7 (Burgers convergence and continuity)",
        f"rows ok={conv_ok}, limit {conv[-1].lhs:.1e}, "
        f"probe distances {[f'{o:.3e}' for o in outputs]}",
    )


def test_criterion_08_chemin_lerner(burgers_setup, bank):
    traj = burgers_setup["trajectory"]
    y_norm = chemin_lerner_norm(traj, 2.0, bank)
    tails = time_continuity_modulus(traj, 2.0, bank)
    finite = math.isfinite(y_norm) and y_norm > 0.0
    monotone = bool(np.all(np.diff(tails) <= 1e-15))
    vanishes = tails[bank.j_max] <= 1e-12 * tails[0]
    sup_hs = sup_time_sobolev_norm(traj, 2.0)
    minkowski = sup_hs <= math.sqrt(3.0) * y_norm * (1 + 1e-9)
    ok = finite and monotone and vanishes and minkowski
    report(
        ok,
        "criterion 8 (Chemin-Lerner conclusion)",
        f"Y-norm {y_norm:.4f}, tail[{bank.j_max}]/tail[0] "
        f"{tails[bank.j_max] / tails[0]:.1e}, sup_t H2 {sup_hs:.4f} "
        f"<= sqrt(3)*Y {math.sqrt(3.0) * y_norm:.4f}",
    )


def test_criterion_09_oracle_cross_check(burgers_setup):
    cfg = burgers_setup["cfg"]
    datum = sinusoid_datum(GRID, 0.1)
    (traj,) = burgers_flow([datum], cfg)
    reference = burgers_spectral_reference(datum, traj.times, steps_per_interval=32)
    worst = max(
        float(np.abs(a.values - b.values).max())
        for a, b in zip(traj.states, reference.states)
    )
    report(
        worst <= 1e-6,
        "criterion 9 (solver cross-check)",
        f"characteristics vs pseudospectral RK4 max error {worst:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def emit(config, out):
        path = tmp_path / "config.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        assert cli_main(["--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK

    def snapshot(directory):
        out = {}
        for name in sorted(os.listdir(directory)):
            full = os.path.join(directory, name)
            if os.path.isfile(full):
                with open(full, "rb") as fh:
                    out[name] = fh.read()
        return out

    verify_cfg = {"schema_version": 1, "command": "verify", "seed": 12, "trials": 50}
    flow_cfg = {
        "schema_version": 1, "command": "flow", "seed": 12, "grid_size": 32,
        "scale": {"s0": 0.0, "s": 2.0, "s1": 3.0, "q": 2.0},
        "flow": {"kind": "burgers", "T": 0.4, "time_steps": 16, "mu": "inf"},
    }
    identical = True
    for config in (verify_cfg, flow_cfg):
        emit(config, tmp_path / "run_a")
        emit(config, tmp_path / "run_b")
        identical = identical and snapshot(tmp_path / "run_a") == snapshot(
            tmp_path / "run_b"
        )
    report(
        identical,
        "criterion 10 (deterministic reports)",
        "verify and flow reruns with a fixed seed are byte-identical",
    )
