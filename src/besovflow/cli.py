"""Batch front-end: JSON-configured runs emitting CSV/JSON reports.

Usage:

    besovflow --config run.json [--out DIR] [--seed N] [--quiet]

The config selects one command: ``filters``, ``decompose``, ``norms``,
``envelope``, ``verify`` or ``flow``.  The seed fully determines all random
sampling, so two runs with the same config and seed produce byte-identical
reports.  Exit status: 0 when every assertion in the selected suite passes,
1 on assertion failures (the report carries the failure list), 2 on an
invalid config, 3 on I/O failure, 4 on a numerical stall (a characteristic
solve of the Burgers flow that fails to converge; no report is written),
5 on any other exception, a library fault (its traceback goes to stderr,
also under --quiet, and no report is written).

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

import numpy as np

# every command loads dyadic (littlewood_paley imports it too); the other
# modules are imported by the commands that use them
from . import dyadic
from .dyadic import Check

__all__ = ["main", "run", "ConfigError"]

SCHEMA_VERSION = 1
COMMANDS = ("filters", "decompose", "norms", "envelope", "verify", "flow")

EXIT_OK = 0
EXIT_ASSERTIONS = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_STALL = 4
EXIT_FAULT = 5


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
    if type(obj) in (list, tuple):  # not a record, which is a tuple too
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


def _write_lines(path, lines) -> None:
    """Every report file: UTF-8 lines ended by "\\n", the last one too."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_json(obj, path) -> None:
    _write_lines(path, [_to_json_fragment(obj, indent=2, level=0)])


def dump_csv(path, header, rows) -> None:
    _write_lines(path, [",".join(header)] + [
        ",".join(
            format_float(cell) if isinstance(cell, (float, np.floating)) else str(cell)
            for cell in row
        )
        for row in rows
    ])


def _failure_records(checks) -> list:
    """One ``{"check": family, **index, "lhs", "rhs"}`` record per failing (family, index).

    Records keep first-seen order and hold the worst failing row: the largest
    lhs/rhs, where a positive lhs over rhs = 0, or a NaN side, counts as infinite.
    """
    worst = {}
    for c in checks:
        if c.failed:
            ratio = c.lhs / c.rhs if c.rhs > 0 and not math.isnan(c.lhs) else math.inf
            if ratio > worst.get((c.family, c.index), (-math.inf,))[0]:
                worst[c.family, c.index] = (ratio, c)
    return [
        {"check": c.family, **dict(c.index), "lhs": c.lhs, "rhs": c.rhs} for _, c in worst.values()
    ]


def _check_rows(checks) -> list:
    """CSV rows (index values..., lhs, rhs), one per check."""
    return [(*(value for _, value in c.index), c.lhs, c.rhs) for c in checks]


# --- config ---------------------------------------------------------------------

# The keys each config object may hold: "" is the top level, and "[]" names
# the entries of a list.  Any other key is a config error.
CONFIG_KEYS = {
    "": (
        "schema_version", "command", "seed", "grid_size", "trials",
        "s_values", "besov", "scale", "flow", "io",
    ),
    "scale": ("s0", "s", "s1", "q"),
    "flow": ("kind", "T", "time_steps", "speed", "mu", "family"),
    "io": ("input", "trajectory_dir"),
    "flow.family[]": ("alpha", "beta"),
    "besov[]": ("s", "p", "q"),
}


def _check_keys(obj: dict, table: str, name: str) -> None:
    """Reject the first key of ``obj`` not in ``CONFIG_KEYS[table]``; ``name`` prefixes it."""
    for key in obj:
        if key not in CONFIG_KEYS[table]:
            raise ConfigError(f"unknown config key {name}{key}")


def _parse_finite(value, name) -> float:
    # the bound also rejects nan, and integers too large to convert
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _parse_extended(value, name):
    if value == "inf":
        return math.inf
    try:
        return _parse_finite(value, name)
    except ConfigError:
        raise ConfigError(f"{name} must be a finite number or 'inf'") from None


def load_config(path, seed_override=None) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, "", "")
    version = config.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    if config.get("command") not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}")
    seed = config.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    config["seed"] = seed
    grid_size = config.get("grid_size", 256)
    if not isinstance(grid_size, int) or grid_size < 8 or grid_size & (grid_size - 1):
        raise ConfigError("grid_size must be a power of two >= 8")
    config["grid_size"] = grid_size
    trials = config.get("trials", 0)
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 0:
        raise ConfigError("trials must be a nonnegative integer")
    config["trials"] = trials
    for key in ("scale", "flow", "io"):
        if not isinstance(config.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object")
        _check_keys(config.get(key, {}), key, f"{key}.")
    # every value present is parsed whatever the command, so a key that the
    # command does not read cannot carry a bad value into a passing run; the
    # flow command parses its flow block itself when it runs, so loading its
    # config does not load the flow stack
    if "scale" in config:
        _scale_block(config)
    if "flow" in config:
        if config["command"] != "flow":
            _flow_config(config)
        _flow_family(config["flow"])
    if "s_values" in config:
        _s_values(config)
    if "besov" in config:
        _besov_specs(config)
    return config


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _scale_block(config: dict):
    scale = config.get("scale", {})
    s0 = _parse_finite(scale.get("s0", 0.0), "scale.s0")
    s = _parse_finite(scale.get("s", 2.0), "scale.s")
    s1 = _parse_finite(scale.get("s1", 3.0), "scale.s1")
    q = _parse_extended(scale.get("q", 2.0), "scale.q")
    if not s0 < s < s1:
        raise ConfigError("scale must satisfy s0 < s < s1")
    if not q >= 1:
        raise ConfigError("scale.q must be >= 1")
    return s0, s, s1, q


def _io_path(config: dict, key: str):
    """``io.<key>`` as a path string, or None when the key is absent."""
    path = config.get("io", {}).get(key)
    if path is not None and not isinstance(path, str):
        raise ConfigError(f"io.{key} must be a path string")
    return path


def _input_grid(config: dict):
    from .littlewood_paley import load_grid_function

    path = _io_path(config, "input")
    if path is None:
        raise ConfigError("this command needs io.input (a grid-function file)")
    return load_grid_function(path)


# --- commands ---------------------------------------------------------------------

def _cmd_filters(config, outdir):
    from .littlewood_paley import (
        almost_orthogonality,
        build_filters,
        partition_of_unity,
        random_grid_function,
        reconstruction_stability_ratio,
    )

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
    rng = np.random.default_rng(config["seed"])
    for s in (0.0, 1.0, 2.0):
        draws = (random_grid_function(rng, config["grid_size"]) for _ in range(8))
        stability[f"s={s:g}"] = max(0.0, *reconstruction_stability_ratio(draws, bank, s))

    # one row per grid frequency -N/2 .. N/2-1; the radial values at each
    # |xi| are formatted once (as format_float does) and shared by xi and -xi
    half = bank.grid_size // 2
    radial = [
        "%.17g,%.17g,%.17g" % values
        for values in zip(bank.multipliers[0].tolist(), partition.tolist(), ao.tolist())
    ]
    _write_lines(
        os.path.join(outdir, "filters.csv"),
        ["xi,psi,partition,almost_orthogonality"]
        + [f"{xi},{radial[-xi]}" for xi in range(-half, 0)]
        + [f"{xi},{radial[xi]}" for xi in range(half)],
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


def _cmd_decompose(config, outdir):
    from .littlewood_paley import build_filters, decompose, reconstruct

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


def _s_values(config: dict) -> list:
    """The Sobolev orders of ``s_values``, a list of finite numbers."""
    s_values = config.get("s_values", [-1.0, 0.0, 1.0, 2.0])
    if not isinstance(s_values, list):
        raise ConfigError("s_values must be a list of numbers")
    return [_parse_finite(s, f"s_values[{i}]") for i, s in enumerate(s_values)]


def _besov_specs(config: dict) -> list:
    """(s, p, q) of each entry of ``besov``, a list of objects with p, q >= 1."""
    besov_specs = config.get("besov", [{"s": 2.0, "p": 2.0, "q": 2.0}])
    if not isinstance(besov_specs, list) or not all(isinstance(e, dict) for e in besov_specs):
        raise ConfigError("besov must be a list of objects")
    specs = []
    for i, entry in enumerate(besov_specs):
        _check_keys(entry, "besov[]", f"besov[{i}].")
        s = _parse_finite(entry.get("s", 0.0), "besov.s")
        p = _parse_extended(entry.get("p", 2.0), "besov.p")
        q = _parse_extended(entry.get("q", 2.0), "besov.q")
        if not p >= 1:
            raise ConfigError(f"besov[{i}].p: integrability p must be >= 1")
        if not q >= 1:
            raise ConfigError(f"besov[{i}].q: summability q must be >= 1")
        specs.append((s, p, q))
    return specs


def _cmd_norms(config, outdir):
    from .littlewood_paley import besov_norm, build_filters, grid_l2_norm, sobolev_norm

    s_values = _s_values(config)
    besov_specs = _besov_specs(config)
    u = _input_grid(config)
    bank = build_filters(u.grid_size)
    sobolev = {f"s={s:g}": sobolev_norm(u, s) for s in s_values}
    besov = {
        f"s={s:g},p={p:g},q={q:g}": besov_norm(u, s, p, q, bank) for s, p, q in besov_specs
    }
    report = {
        "command": "norms",
        "grid_size": u.grid_size,
        "l2": grid_l2_norm(u),
        "sobolev": sobolev,
        "besov": besov,
        "failures": [],
    }
    return report, []


def _cmd_envelope(config, outdir):
    from . import envelope as envelope_mod
    from .littlewood_paley import build_filters, decompose

    u = _input_grid(config)
    bank = build_filters(u.grid_size)
    f = decompose(u, bank)
    s0, s, s1, q = _scale_block(config)
    norms = f.block_norms[None]
    env = envelope_mod.compute_envelope(norms, s, s1)
    lower, mid, upper = (float(x[0]) for x in envelope_mod.envelope_equivalence(norms, s, q, s1))
    family = "envelope_equivalence"
    failures = _failure_records([Check(family, (), lower, mid), Check(family, (), mid, upper)])
    dump_csv(
        os.path.join(outdir, "envelope.csv"),
        ["n", "gamma_n", "c_n", "weighted_block_norm"],
        envelope_mod.envelope_report_rows(env)[0],
    )
    report = {
        "command": "envelope",
        "grid_size": u.grid_size,
        "scale": {"s": s, "s1": s1, "q": q},
        "equivalence": {"lower": lower, "mid": mid, "upper": upper},
        "failures": failures,
    }
    return report, failures


VERIFY_CHUNK = 128  # trials per batched evaluation: a sweep's memory is O(chunk)
Q_VALUES = np.array([1.0, 2.0, math.inf])  # the summabilities a sweep draws from


def _verify_suites(rng, trials):
    """Randomized inequality sweeps shared by the verify command.

    Each suite is one function ``bounds(size)`` that draws ``size`` trials
    as arrays and returns their check columns from one call of its batched
    function, and a sweep calls it once per chunk of ``VERIFY_CHUNK``
    trials.  A chunk's sequences are one ``dyadic.random_sequence`` batch,
    with orders, q and levels drawn one per row.  Trials are drawn chunk by
    chunk, so which sample trial i gets depends on the module constant
    ``VERIFY_CHUNK``; a passing report holds no sampled value.  Levels past
    a row's own range (its split levels, its stored envelope) are masked
    with the row's support.
    """
    from . import envelope as envelope_mod

    suites = []

    def run_suite(name, bounds):
        """Check rows of ``bounds(size)`` chunk by chunk; failures are violations.

        ``bounds`` returns, per check of a trial, an (lhs, rhs) pair or
        (lhs, rhs, level) triple of arrays with one entry per trial; the
        rule fails whole columns, and only a failing entry becomes a ``Check``.
        """

        def checks():  # the failing rows, trial by trial, each trial's in check order
            for start in range(0, trials, VERIFY_CHUNK):
                columns = bounds(min(VERIFY_CHUNK, trials - start))
                failing = np.stack([dyadic.fails(lhs, rhs) for lhs, rhs, *_ in columns], axis=1)
                for row, column in zip(*np.nonzero(failing)):
                    lhs, rhs, *level = columns[column]
                    trial = (("trial", start + int(row)),)
                    index = trial + tuple(("n", int(n[row])) for n in level)
                    yield Check(name, index, float(lhs[row]), float(rhs[row]))

        suites.append({"name": name, "trials": trials, "violations": _failure_records(checks())})

    def smoothing(size):
        f = dyadic.random_sequence(rng, size)
        r = rng.uniform(-2.0, 2.0, size)
        rp = r + rng.uniform(0.1, 2.0, size)
        q = Q_VALUES[rng.integers(3, size=size)]
        n = rng.integers(0, np.count_nonzero(f, axis=1) + 4)
        return [dyadic.smoothing_gain(f, r, rp, q, n)]

    def weighted(size):
        f = dyadic.random_sequence(rng, size)
        r = rng.uniform(-2.0, 2.0, size)
        rp = r + rng.uniform(0.1, 2.0, size)
        q = Q_VALUES[rng.integers(3, size=size)]
        return [dyadic.weighted_smoothing_sum(f, r, rp, q)]

    def power_sum(size):
        # an identity: two one-sided checks
        f = dyadic.random_sequence(rng, size, log2_range=(-8.0, 8.0))
        r = rng.uniform(-2.0, 2.0, size)
        rp = r + rng.uniform(0.1, 2.0, size)
        q = Q_VALUES[rng.integers(2, size=size)]  # finite q only
        value, bound = dyadic.truncation_power_sum(f, r, rp, q)
        return [(value, bound), (bound, value)]

    def young(size):
        q = Q_VALUES[rng.integers(3, size=size)]
        u, v = rng.standard_normal((2, size, 11))
        # each row keeps its first 1..11 entries
        u[np.arange(11) >= rng.integers(1, 12, size)[:, None]] = 0.0
        v[np.arange(11) >= rng.integers(1, 12, size)[:, None]] = 0.0
        result = dyadic.young_convolve(u, v, q)
        return [(result.norm, result.bound)]

    def envelope(size):
        f = dyadic.random_sequence(rng, size)
        s = rng.uniform(-2.0, 2.0, size)
        s1 = s + rng.uniform(0.1, 2.0, size)
        q = Q_VALUES[rng.integers(3, size=size)]
        lower, mid, upper = envelope_mod.envelope_equivalence(f, s, q, s1)
        return [(lower, mid), (mid, upper)]

    def slow_variation(size):
        # gamma_n <= 2^{s1-s} gamma_{n+1}, checked at the level of largest
        # ratio among the levels a row's own envelope stores; a positive
        # gamma_n over a zero bound counts as infinite
        f = dyadic.random_sequence(rng, size)
        s = rng.uniform(-2.0, 2.0, size)
        s1 = s + rng.uniform(0.1, 2.0, size)
        gamma = envelope_mod.compute_envelope(f, s, s1).gamma
        lhs, rhs = gamma[:, :-1], (2.0 ** (s1 - s))[:, None] * gamma[:, 1:]
        ratio = np.divide(lhs, rhs, out=np.where(lhs > 0, np.inf, 0.0), where=rhs > 0)
        last = np.count_nonzero(f, axis=1) + envelope_mod.GUARD - 2
        ratio[np.arange(ratio.shape[1]) > last[:, None]] = -np.inf
        n = ratio.argmax(axis=1)
        trial = np.arange(size)
        return [(lhs[trial, n], rhs[trial, n], n)]

    def interpolation(size):
        f = dyadic.random_sequence(rng, size, log2_range=(-8.0, 8.0))
        s0 = rng.uniform(-2.0, 0.0, size)
        s1 = rng.uniform(0.5, 2.5, size)
        s = rng.uniform(s0 + 0.1, s1 - 0.1)
        q = Q_VALUES[rng.integers(3, size=size)]
        levels = np.arange(f.shape[1] + 4)  # each row splits at 0 .. its support + 3
        parts = dyadic.interpolation_bound(f, s0, s, s1, q, levels)
        bounds = parts.low + parts.high
        bounds[levels > np.count_nonzero(f, axis=1)[:, None] + 3] = np.inf
        n = bounds.argmin(axis=1)
        return [(parts.actual, bounds[np.arange(size), n], n)]

    run_suite("smoothing_gain", smoothing)
    run_suite("weighted_smoothing_sum", weighted)
    run_suite("truncation_power_sum", power_sum)
    run_suite("young_convolution", young)
    run_suite("envelope_equivalence", envelope)
    run_suite("envelope_slow_variation", slow_variation)
    run_suite("interpolation_bound", interpolation)
    return suites


def _cmd_verify(config, outdir):
    suites = _verify_suites(np.random.default_rng(config["seed"]), config["trials"])
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


def _flow_config(config):
    from . import flows

    flow_block = config.get("flow", {})
    # the sup-in-time norm is the only time norm; the key stays for old configs
    if flow_block.get("mu", "inf") != "inf":
        raise ConfigError("flow.mu must be 'inf'")
    T = _parse_extended(flow_block.get("T", 0.5), "flow.T")
    speed = _parse_finite(flow_block.get("speed", 1.0), "flow.speed")
    try:
        return flows.FlowConfig(
            grid_size=config["grid_size"],
            T=T,
            time_steps=flow_block.get("time_steps", 64),
            flow_kind=flow_block.get("kind", "burgers"),
            transport_speed=speed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _flow_family(flow_block) -> list:
    """(alpha, beta) of each member of ``flow.family``, a non-empty list of objects."""
    family = flow_block.get(
        "family",
        [
            {"alpha": 0.1, "beta": 0.05},
            {"alpha": 0.08, "beta": -0.04},
            {"alpha": -0.06, "beta": 0.05},
            {"alpha": 0.12, "beta": 0.0},
        ],
    )
    if not isinstance(family, list) or not family or not all(isinstance(d, dict) for d in family):
        raise ConfigError("flow.family must be a non-empty list of objects")
    for i, member in enumerate(family):
        _check_keys(member, "flow.family[]", f"flow.family[{i}].")
    return [
        (
            _parse_finite(d.get("alpha"), f"flow.family[{i}].alpha"),
            _parse_finite(d.get("beta", 0.0), f"flow.family[{i}].beta"),
        )
        for i, d in enumerate(family)
    ]


def _cmd_flow(config, outdir):
    from . import flows
    from .engine import verify_map
    from .littlewood_paley import build_filters, decompose

    s0, s, s1, q = scale = _scale_block(config)
    cfg = _flow_config(config)
    trajectory_dir = _io_path(config, "trajectory_dir")
    members = _flow_family(config.get("flow", {}))
    data = [flows.sinusoid_datum(cfg.grid_size, alpha, beta) for alpha, beta in members]
    bank = build_filters(cfg.grid_size)
    family = [decompose(u, bank) for u in data]
    # the trajectory of the rebuilt probe datum, from the solve that maps it
    kept = {family[0].key: None}
    verified = verify_map(flows.flow_as_sequence_map(cfg, bank, kept), family, scale)
    continuity = verified.continuity
    failures = _failure_records(verified.checks) + (
        [] if continuity.trend_ok else [{"check": "continuity_trend"}]
    )

    traj = kept[family[0].key]
    tails = flows.time_continuity_modulus(traj, s, bank)

    dump_csv(
        os.path.join(outdir, "convergence.csv"),
        ["n", "actual", "bound"],
        _check_rows(verified.rows("convergence")),
    )
    dump_csv(
        os.path.join(outdir, "decay_profile.csv"),
        ["n", "m", "lhs", "rhs", "ratio"],
        [
            (n, m, lhs, rhs, lhs / rhs if rhs > 0 else 0.0)
            for n, m, lhs, rhs in _check_rows(verified.rows("block_decay"))
        ],
    )
    dump_csv(
        os.path.join(outdir, "continuity.csv"),
        ["scale", "direction", "input_distance", "output_distance"],
        [
            (row.scale, row.direction, row.input_distance, row.output_distance)
            for row in continuity.rows
        ],
    )
    if trajectory_dir is not None:
        flows.save_trajectory(
            os.path.join(outdir, trajectory_dir), traj, cfg.flow_kind, _config_hash(config)
        )

    report = {
        "command": "flow",
        "flow_kind": cfg.flow_kind,
        "grid_size": cfg.grid_size,
        "T": cfg.T,
        "mu": "inf",  # the one time norm; the field stays until a schema bump
        "scale": {"s0": s0, "s": s, "s1": s1, "q": q},
        "ball_radius": verified.radius,
        "output_block_cap": bank.j_max,
        "constants_raw": verified.constants_raw.to_dict(),
        "constants_checked": verified.constants_checked.to_dict(),
        "A": verified.constants_checked.A,
        "continuity_trend_ok": continuity.trend_ok,
        "block_sup_square_tails": tails.tolist(),
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


def _stall_error():
    """The characteristic-solve failure class once a command has loaded flows.

    Before that no such failure can have been raised, and the empty tuple
    matches no exception.
    """
    flows = sys.modules.get(f"{__package__}.flows")
    return () if flows is None else flows.CharacteristicSolveError


def run(config: dict, outdir: str, quiet: bool = False) -> int:
    """Execute one validated config and write its reports under outdir."""
    handler = _COMMANDS[config["command"]]
    try:
        os.makedirs(outdir, exist_ok=True)
        report, failures = handler(config, outdir)
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
        # parameter combinations the library rejects (shock margin, order
        # triples) are config problems, not assertion failures
        if not quiet:
            print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _stall_error() as exc:
        if not quiet:
            print(f"numerical stall: {exc}", file=sys.stderr)
        return EXIT_STALL
    except Exception:
        # a bug or an exhausted resource: exit 1 would read as a failing check;
        # the interpreter's hook prints the traceback without importing a module
        sys.excepthook(*sys.exc_info())
        return EXIT_FAULT
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


def entry_point():
    """``main`` as a whole process: ``python -m besovflow.cli`` and the console script.

    Freezing the heap skips the shutdown collections over the ~20,000
    objects of numpy (~9 ms a run); SystemExit still flushes and runs atexit.
    """
    code = main()
    import gc  # here, so that importing cli loads nothing for the exit

    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
