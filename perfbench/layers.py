"""Per-layer metrics (layer = besovflow module) computed from span totals.

``<module>.<function>.calls`` counts calls, ``.ms`` is inclusive time and
``.self_ms`` is time not covered by traced child calls.  The comments give
the end-to-end metric and workload each group should move.
"""
from __future__ import annotations

from tracer import ADAPTER_MISSES, MODULES, SpanTotals

FUNCTIONS = (
    # wall_s/cpu_s on burgers-256 only
    ("flows.burgers_flow", ("self_ms",)),
    # wall_s (and peak_rss_mb) on transport-2048, slightly on burgers-256
    ("flows.transport_flow", ("self_ms",)),
    ("flows.block_time_norms", ("calls", "self_ms")),
    ("flows.time_continuity_modulus", ("self_ms",)),
    # wall_s on burgers-256 and transport-2048
    ("engine.estimate_constants", ("ms",)),
    ("engine.high_low_rows", ("ms",)),
    ("engine.block_decay_profile", ("ms",)),
    ("engine.convergence_report", ("ms",)),
    ("engine.continuity_probe", ("ms",)),
    # wall_s on spectral-16k; reconstruct also on transport-2048
    ("littlewood_paley.build_filters", ("ms",)),
    ("littlewood_paley.load_grid_function", ("calls", "ms")),
    ("littlewood_paley.decompose", ("calls", "self_ms")),
    ("littlewood_paley.reconstruct", ("calls", "self_ms")),
    ("littlewood_paley.besov_norm", ("ms",)),
    ("littlewood_paley.sobolev_norm", ("ms",)),
    ("littlewood_paley.reconstruction_stability_ratio", ("ms",)),
    # wall_s on verify-sweeps
    ("dyadic.dyadic_norm", ("calls", "self_ms")),
    ("dyadic.truncate", ("calls",)),
    ("dyadic.interpolation_bound", ("self_ms",)),
    ("dyadic.random_sequence", ("self_ms",)),
    ("envelope.compute_envelope", ("calls", "self_ms")),
    ("pseudonorm.eval_pseudo_norm", ("calls",)),
    # wall_s on spectral-16k
    ("cli.dump_csv", ("ms",)),
    ("cli.dump_json", ("ms",)),
    ("cli.load_config", ("ms",)),
)

INTERP_PREFIX = "flows.TrigInterpolant."
UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def layer_metrics(totals: SpanTotals) -> dict:
    """name -> (value, unit) for every per-layer metric except the overhead."""
    metrics = {}
    for name, kinds in FUNCTIONS:
        for kind in kinds:
            if kind == "calls":
                value = totals.calls[name]
            elif kind == "ms":
                value = 1e3 * totals.inclusive_s[name]
            else:
                value = 1e3 * totals.self_s[name]
            metrics[f"{name}.{kind}"] = (value, UNITS[kind])

    metrics["flows.newton_iters"] = (totals.calls[INTERP_PREFIX + "value_and_derivative"], "count")
    metrics["flows.interp_evals"] = (totals.calls[INTERP_PREFIX + "__call__"], "count")
    interp_self = sum(v for k, v in totals.self_s.items() if k.startswith(INTERP_PREFIX))
    metrics["flows.interp.self_ms"] = (1e3 * interp_self, "ms")

    calls = totals.calls["engine.adapter"]
    misses = totals.counters[ADAPTER_MISSES]
    metrics["engine.adapter.calls"] = (calls, "count")
    metrics["engine.adapter.misses"] = (misses, "count")
    metrics["engine.adapter.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")

    for module in MODULES:
        own = sum(v for k, v in totals.self_s.items() if k.startswith(module + "."))
        metrics[f"{module}.self_ms"] = (1e3 * own, "ms")
    return metrics
