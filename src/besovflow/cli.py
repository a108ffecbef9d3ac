"""Batch front-end: JSON-configured runs emitting CSV/JSON reports.

Usage:

    besovflow --config run.json [--out DIR] [--seed N] [--quiet]

The config selects one command: ``filters``, ``decompose``, ``norms``,
``envelope``, ``verify`` or ``flow``.  The seed fully determines all random
sampling, so two runs with the same config and seed produce byte-identical
reports.  Exit status: 0 when every assertion in the selected suite passes,
1 on assertion failures (the report carries the failure list), 2 on an
invalid config, 3 on I/O failure, 4 on a numerical stall (a characteristic
solve of the Burgers flow that fails to converge; no report is written).

All floating-point numbers in reports are serialized with 17 significant
digits so regression diffs round-trip exactly.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import dyadic, envelope as envelope_mod, flows
from .engine import (
    block_decay_profile,
    continuity_probe,
    convergence_report,
    estimate_constants,
    high_low_rows,
)
from .littlewood_paley import (
    almost_orthogonality,
    besov_norm,
    build_filters,
    decompose,
    frequencies,
    grid_l2_norm,
    load_grid_function,
    partition_of_unity,
    random_grid_function,
    reconstruct,
    reconstruction_stability_ratio,
    sobolev_norm,
)

__all__ = ["main", "run", "ConfigError"]

SCHEMA_VERSION = 1
COMMANDS = ("filters", "decompose", "norms", "envelope", "verify", "flow")

EXIT_OK = 0
EXIT_ASSERTIONS = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STALL = 4

# relative rounding slack allowed on every value <= bound check
SLACK = 1e-9


class ConfigError(ValueError):
    """The run config does not validate against the schema."""


# --- deterministic serialization ----------------------------------------------

def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _to_json_fragment(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{key}": {_to_json_fragment(value, indent, level + 1)}'
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [
            f"{pad_in}{_to_json_fragment(value, indent, level + 1)}" for value in obj
        ]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if math.isnan(value):
            return '"nan"'
        return format_float(value)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj, path) -> None:
    text = _to_json_fragment(obj, indent=2, level=0) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                format_float(cell) if isinstance(cell, (float, np.floating)) else str(cell)
                for cell in row
            ]
            fh.write(",".join(cells) + "\n")


def _exceeds(value, bound):
    """True where value breaks value <= bound beyond the relative SLACK."""
    return value > bound * (1.0 + SLACK)


# --- config ---------------------------------------------------------------------

def _parse_extended(value, name):
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number or 'inf'")
    return float(value)


def load_config(path, seed_override=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    if config.get("command") not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}")
    seed = config.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    config["seed"] = seed
    grid_size = config.get("grid_size", 256)
    if not isinstance(grid_size, int) or grid_size < 8 or grid_size & (grid_size - 1):
        raise ConfigError("grid_size must be a power of two >= 8")
    config["grid_size"] = grid_size
    trials = config.get("trials", 0)
    if not isinstance(trials, int) or trials < 0:
        raise ConfigError("trials must be a nonnegative integer")
    config["trials"] = trials
    return config


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _scale_block(config: dict):
    scale = config.get("scale", {})
    s0 = _parse_extended(scale.get("s0", 0.0), "scale.s0")
    s = _parse_extended(scale.get("s", 2.0), "scale.s")
    s1 = _parse_extended(scale.get("s1", 3.0), "scale.s1")
    q = _parse_extended(scale.get("q", 2.0), "scale.q")
    if not s0 < s < s1:
        raise ConfigError("scale must satisfy s0 < s < s1")
    if not q >= 1:
        raise ConfigError("scale.q must be >= 1")
    return s0, s, s1, q


def _input_grid(config: dict):
    io_block = config.get("io", {})
    path = io_block.get("input")
    if path is None:
        raise ConfigError("this command needs io.input (a grid-function file)")
    return load_grid_function(path)


# --- commands ---------------------------------------------------------------------

def _cmd_filters(config, outdir, rng):
    bank = build_filters(config["grid_size"])
    partition = partition_of_unity(bank)
    ao = almost_orthogonality(bank)
    partition_dev = float(np.abs(partition - 1.0).max())
    ao_min, ao_max = float(ao.min()), float(ao.max())
    failures = []
    if partition_dev > 1e-12:
        failures.append({"check": "partition_of_unity", "deviation": partition_dev})
    if ao_min < 1.0 / 3.0 - 1e-12 or ao_max > 1.0 + 1e-12:
        failures.append({"check": "almost_orthogonality", "range": [ao_min, ao_max]})

    # measured round-trip growth of decompose(reconstruct(.)) on random data
    stability = {}
    for s in (0.0, 1.0, 2.0):
        worst = 0.0
        for _ in range(8):
            u = random_grid_function(rng, config["grid_size"])
            f = decompose(u, bank)
            worst = max(worst, reconstruction_stability_ratio(f, bank, s))
        stability[f"s={s:g}"] = worst

    freqs = frequencies(bank.grid_size).astype(int)
    order = np.argsort(freqs)
    dump_csv(
        os.path.join(outdir, "filters.csv"),
        ["xi", "psi", "partition", "almost_orthogonality"],
        [
            (int(freqs[i]), float(bank.multipliers[0][i]), float(partition[i]), float(ao[i]))
            for i in order
        ],
    )
    report = {
        "command": "filters",
        "grid_size": config["grid_size"],
        "j_max": bank.j_max,
        "partition_max_deviation": partition_dev,
        "almost_orthogonality_min": ao_min,
        "almost_orthogonality_max": ao_max,
        "round_trip_block_norm_ratio": stability,
        "failures": failures,
    }
    return report, failures


def _cmd_decompose(config, outdir, rng):
    u = _input_grid(config)
    bank = build_filters(u.grid_size)
    f = decompose(u, bank)
    rebuilt = reconstruct(f, bank)
    scale = float(np.abs(u.values).max()) or 1.0
    round_trip_error = float(np.abs(rebuilt.values - u.values).max()) / scale
    failures = []
    if round_trip_error > 1e-10:
        failures.append({"check": "reconstruction", "relative_error": round_trip_error})
    dump_csv(
        os.path.join(outdir, "blocks.csv"),
        ["j", "block_l2"],
        [(j, float(v)) for j, v in enumerate(f.block_norms)],
    )
    report = {
        "command": "decompose",
        "grid_size": u.grid_size,
        "sequence": dyadic.sequence_report(f),
        "round_trip_relative_error": round_trip_error,
        "failures": failures,
    }
    return report, failures


def _cmd_norms(config, outdir, rng):
    u = _input_grid(config)
    bank = build_filters(u.grid_size)
    s_values = config.get("s_values", [-1.0, 0.0, 1.0, 2.0])
    sobolev = {f"s={float(s):g}": sobolev_norm(u, float(s)) for s in s_values}
    besov_specs = config.get("besov", [{"s": 2.0, "p": 2.0, "q": 2.0}])
    besov = {}
    for entry in besov_specs:
        s = _parse_extended(entry.get("s", 0.0), "besov.s")
        p = _parse_extended(entry.get("p", 2.0), "besov.p")
        q = _parse_extended(entry.get("q", 2.0), "besov.q")
        besov[f"s={s:g},p={p:g},q={q:g}"] = besov_norm(u, s, p, q, bank)
    report = {
        "command": "norms",
        "grid_size": u.grid_size,
        "l2": grid_l2_norm(u),
        "sobolev": sobolev,
        "besov": besov,
        "failures": [],
    }
    return report, []


def _cmd_envelope(config, outdir, rng):
    u = _input_grid(config)
    bank = build_filters(u.grid_size)
    f = decompose(u, bank)
    s0, s, s1, q = _scale_block(config)
    env = envelope_mod.compute_envelope(f, s, s1)
    lower, mid, upper = envelope_mod.envelope_equivalence(f, s, q, s1)
    failures = []
    if _exceeds(lower, mid) or _exceeds(mid, upper):
        failures.append(
            {"check": "envelope_equivalence", "lower": lower, "mid": mid, "upper": upper}
        )
    dump_csv(
        os.path.join(outdir, "envelope.csv"),
        ["n", "gamma_n", "c_n", "weighted_block_norm"],
        envelope_mod.envelope_report_rows(env),
    )
    report = {
        "command": "envelope",
        "grid_size": u.grid_size,
        "scale": {"s": s, "s1": s1, "q": q},
        "equivalence": {"lower": lower, "mid": mid, "upper": upper},
        "failures": failures,
    }
    return report, failures


def _verify_suites(rng, trials):
    """Randomized inequality sweeps shared by the verify command."""
    suites = []

    def run_suite(name, one_trial):
        violations = []
        for trial in range(trials):
            problem = one_trial(trial)
            if problem is not None:
                violations.append(problem)
        suites.append({"name": name, "trials": trials, "violations": violations})
        return violations

    def random_orders():
        r = float(rng.uniform(-2.0, 2.0))
        return r, r + float(rng.uniform(0.1, 2.0))

    def random_q():
        return float(rng.choice([1.0, 2.0, np.inf]))

    def smoothing_trial(trial):
        f = dyadic.random_sequence(rng)
        r, rp = random_orders()
        q = random_q()
        n = int(rng.integers(0, f.support + 4))
        value, bound = dyadic.smoothing_gain(f, r, rp, q, n)
        if _exceeds(value, bound):
            return {"trial": trial, "value": value, "bound": bound}
        return None

    def weighted_trial(trial):
        f = dyadic.random_sequence(rng)
        r, rp = random_orders()
        q = random_q()
        value, bound = dyadic.weighted_smoothing_sum(f, r, rp, q)
        if _exceeds(value, bound):
            return {"trial": trial, "value": value, "bound": bound}
        return None

    def power_sum_trial(trial):
        f = dyadic.random_sequence(rng, log2_range=(-8.0, 8.0))
        r, rp = random_orders()
        q = float(rng.choice([1.0, 2.0]))
        value, bound = dyadic.truncation_power_sum(f, r, rp, q)
        if abs(value - bound) > SLACK * max(1.0, abs(bound)):
            return {"trial": trial, "value": value, "bound": bound}
        return None

    def young_trial(trial):
        q = random_q()
        u = rng.standard_normal(int(rng.integers(1, 12)))
        v = rng.standard_normal(int(rng.integers(1, 12)))
        result = dyadic.young_convolve(u, v, q)
        if _exceeds(result.norm, result.bound):
            return {"trial": trial, "norm": result.norm, "bound": result.bound}
        return None

    def envelope_trial(trial):
        f = dyadic.random_sequence(rng)
        s = float(rng.uniform(-2.0, 2.0))
        s1 = s + float(rng.uniform(0.1, 2.0))
        q = random_q()
        lower, mid, upper = envelope_mod.envelope_equivalence(f, s, q, s1)
        if _exceeds(lower, mid) or _exceeds(mid, upper):
            return {"trial": trial, "lower": lower, "mid": mid, "upper": upper}
        return None

    def slow_variation_trial(trial):
        f = dyadic.random_sequence(rng)
        s = float(rng.uniform(-2.0, 2.0))
        s1 = s + float(rng.uniform(0.1, 2.0))
        env = envelope_mod.compute_envelope(f, s, s1)
        growth = 2.0 ** (s1 - s)
        gamma = env.gamma
        bad = _exceeds(gamma[:-1], growth * gamma[1:])
        if bool(np.any(bad)):
            return {"trial": trial, "level": int(np.argmax(bad))}
        return None

    def interpolation_trial(trial):
        f = dyadic.random_sequence(rng, log2_range=(-8.0, 8.0))
        s0 = float(rng.uniform(-2.0, 0.0))
        s1 = float(rng.uniform(0.5, 2.5))
        s = float(rng.uniform(s0 + 0.1, s1 - 0.1))
        q = random_q()
        best = math.inf
        for n_split in range(f.support + 4):
            parts = dyadic.interpolation_bound(f, s0, s, s1, q, n_split)
            best = min(best, parts.low + parts.high)
        actual = dyadic.dyadic_norm(f, (s, q))
        if _exceeds(actual, best):
            return {"trial": trial, "actual": actual, "best_bound": best}
        return None

    run_suite("smoothing_gain", smoothing_trial)
    run_suite("weighted_smoothing_sum", weighted_trial)
    run_suite("truncation_power_sum", power_sum_trial)
    run_suite("young_convolution", young_trial)
    run_suite("envelope_equivalence", envelope_trial)
    run_suite("envelope_slow_variation", slow_variation_trial)
    run_suite("interpolation_bound", interpolation_trial)
    return suites


def _cmd_verify(config, outdir, rng):
    suites = _verify_suites(rng, config["trials"])
    failures = [
        {"suite": suite["name"], "violations": suite["violations"]}
        for suite in suites
        if suite["violations"]
    ]
    report = {
        "command": "verify",
        "trials": config["trials"],
        "suites": suites,
        "failures": failures,
    }
    return report, failures


def _flow_config(config) -> flows.FlowConfig:
    s0, s, s1, q = _scale_block(config)
    flow_block = config.get("flow", {})
    kind = flow_block.get("kind", "burgers")
    if kind not in ("burgers", "transport"):
        raise ConfigError("flow.kind must be 'burgers' or 'transport'")
    time_steps = flow_block.get("time_steps", 64)
    if isinstance(time_steps, bool) or not isinstance(time_steps, int) or time_steps < 1:
        raise ConfigError("flow.time_steps must be a positive integer")
    return flows.FlowConfig(
        grid_size=config["grid_size"],
        T=_parse_extended(flow_block.get("T", 0.5), "flow.T"),
        time_steps=time_steps,
        flow_kind=kind,
        transport_speed=_parse_extended(flow_block.get("speed", 1.0), "flow.speed"),
        ball_radius=None,
        s0=s0,
        s=s,
        s1=s1,
        q=q,
        mu=_parse_extended(flow_block.get("mu", "inf"), "flow.mu"),
    )


def _cmd_flow(config, outdir, rng):
    cfg = _flow_config(config)
    flow_block = config.get("flow", {})
    family_block = flow_block.get(
        "family",
        [
            {"alpha": 0.1, "beta": 0.05},
            {"alpha": 0.08, "beta": -0.04},
            {"alpha": -0.06, "beta": 0.05},
            {"alpha": 0.12, "beta": 0.0},
        ],
    )
    data = [
        flows.sinusoid_datum(cfg.grid_size, float(d["alpha"]), float(d.get("beta", 0.0)))
        for d in family_block
    ]
    bank = build_filters(cfg.grid_size)
    family = [decompose(u, bank) for u in data]
    norms = [dyadic.dyadic_norm(f, (cfg.s, cfg.q)) for f in family]
    radius = flow_block.get("ball_radius")
    radius = 2.0 * max(norms) if radius is None else float(radius)
    cfg = replace(cfg, ball_radius=radius)
    adapter = flows.flow_as_sequence_map(flows.make_flow(cfg), cfg, bank)

    probe = family[0]
    pairs = [(family[i], family[j]) for i in range(len(family)) for j in range(i)]
    levels = probe.support - 1
    pairs += [
        (dyadic.truncate(probe, n + 1), dyadic.truncate(probe, n)) for n in range(levels)
    ]
    raw = estimate_constants(adapter, pairs)
    report_constants = raw.inflated(1.1)

    hl = high_low_rows(adapter, probe, report_constants, n_max=levels)
    decay = block_decay_profile(adapter, probe, report_constants, n_max=levels)
    conv = convergence_report(
        adapter, probe, report_constants, n_values=range(probe.support)
    )

    direction = None
    if len(family) > 1:
        delta = family[1] - probe
        dnorm = dyadic.dyadic_norm(delta, (cfg.s, cfg.q))
        if dnorm > 0:
            direction = [delta * (1.0 / dnorm)]
    probe_report = continuity_probe(
        adapter, probe, [1e-1, 1e-2, 1e-3], directions=direction
    )
    failures = (
        [
            {"check": "high_low", "n": row.n}
            for row in hl
            if _exceeds(row.high_lhs, row.high_rhs) or _exceeds(row.low_lhs, row.low_rhs)
        ]
        + [
            {"check": "block_decay", "n": row.n, "m": row.m}
            for row in decay
            if _exceeds(row.lhs, row.rhs)
        ]
        + [
            {"check": "convergence", "n": row.n}
            for row in conv.rows
            if _exceeds(row.actual, row.bound)
        ]
        + ([] if probe_report.trend_ok else [{"check": "continuity_trend"}])
    )

    traj = flows.make_flow(cfg)(data[0])
    tails = flows.time_continuity_modulus(traj, cfg.s, bank).tails if math.isinf(cfg.mu) else None

    dump_csv(
        os.path.join(outdir, "convergence.csv"),
        ["n", "actual", "bound"],
        [(row.n, row.actual, row.bound) for row in conv.rows],
    )
    dump_csv(
        os.path.join(outdir, "decay_profile.csv"),
        ["n", "m", "lhs", "rhs", "ratio"],
        [(row.n, row.m, row.lhs, row.rhs, row.ratio) for row in decay],
    )
    dump_csv(
        os.path.join(outdir, "continuity.csv"),
        ["scale", "direction", "input_distance", "output_distance"],
        [
            (row.scale, row.direction, row.input_distance, row.output_distance)
            for row in probe_report.rows
        ],
    )
    trajectory_dir = config.get("io", {}).get("trajectory_dir")
    if trajectory_dir is not None:
        flows.save_trajectory(
            os.path.join(outdir, trajectory_dir), traj, cfg.flow_kind, _config_hash(config)
        )

    report = {
        "command": "flow",
        "flow_kind": cfg.flow_kind,
        "grid_size": cfg.grid_size,
        "T": cfg.T,
        "mu": cfg.mu,
        "scale": {"s0": cfg.s0, "s": cfg.s, "s1": cfg.s1, "q": cfg.q},
        "ball_radius": radius,
        "output_block_cap": bank.j_max,
        "constants_raw": raw.to_dict(),
        "constants_checked": report_constants.to_dict(),
        "A": conv.A,
        "continuity_trend_ok": probe_report.trend_ok,
        "block_sup_square_tails": [float(v) for v in tails] if tails is not None else None,
        "failures": failures,
    }
    return report, failures


_COMMANDS = {
    "filters": _cmd_filters,
    "decompose": _cmd_decompose,
    "norms": _cmd_norms,
    "envelope": _cmd_envelope,
    "verify": _cmd_verify,
    "flow": _cmd_flow,
}


def run(config: dict, outdir: str, quiet: bool = False) -> int:
    """Execute one validated config and write its reports under outdir."""
    rng = np.random.default_rng(config["seed"])
    handler = _COMMANDS[config["command"]]
    try:
        os.makedirs(outdir, exist_ok=True)
        report, failures = handler(config, outdir, rng)
        report["schema_version"] = SCHEMA_VERSION
        report["seed"] = config["seed"]
        report["config_hash"] = _config_hash(config)
        report_path = os.path.join(outdir, f"{config['command']}_report.json")
        dump_json(report, report_path)
    except OSError as exc:
        if not quiet:
            print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # parameter combinations the library rejects (ball radius, shock
        # margin, order triples) are config problems, not assertion failures
        if not quiet:
            print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except flows.CharacteristicSolveError as exc:
        if not quiet:
            print(f"numerical stall: {exc}", file=sys.stderr)
        return EXIT_STALL
    if not quiet:
        status = "ok" if not failures else f"{len(failures)} failing check(s)"
        print(f"{config['command']}: {status}; report at {report_path}")
    return EXIT_OK if not failures else EXIT_ASSERTIONS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="besovflow", description="batch verification and analysis runs"
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=".", help="directory for emitted reports")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress status output")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        if not args.quiet:
            print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        if not args.quiet:
            print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return run(config, args.out, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
