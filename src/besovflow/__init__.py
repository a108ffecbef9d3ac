"""Dyadic sequence spaces, Littlewood-Paley analysis, and flow-map continuity checks.

The names below are loaded from their modules on first access (PEP 562),
so importing one module, such as ``besovflow.cli``, loads no other.
"""

import importlib

_EXPORTS = {
    "pseudonorm": (
        "KindMismatchError",
        "PseudoNormedSpace",
        "axiom_probe",
        "eval_pseudo_norm",
        "scalar_abs_space",
    ),
    "dyadic": (
        "DyadicSequence",
        "ScaleIndex",
        "dyadic_norm",
        "interpolation_bound",
        "random_sequence",
        "smoothing_gain",
        "truncate",
        "truncation_power_sum",
        "weighted_smoothing_sum",
        "young_convolve",
    ),
    "littlewood_paley": (
        "FilterBank",
        "GridFunction",
        "almost_orthogonality",
        "apply_block",
        "besov_norm",
        "build_filters",
        "decompose",
        "grid_l2_norm",
        "grid_l2_space",
        "load_grid_function",
        "partition_of_unity",
        "random_grid_function",
        "reconstruct",
        "save_grid_function",
        "sobolev_norm",
    ),
    "envelope": (
        "FrequencyEnvelope",
        "c_sequence",
        "compute_envelope",
        "envelope_equivalence",
    ),
    "engine": (
        "BallViolationError",
        "Check",
        "FlowMapAdapter",
        "HypothesisReport",
        "block_decay_profile",
        "continuity_probe",
        "convergence_report",
        "estimate_constants",
        "high_low_rows",
    ),
    "flows": (
        "FlowConfig",
        "Trajectory",
        "burgers_flow",
        "burgers_spectral_reference",
        "chemin_lerner_norm",
        "flow_as_sequence_map",
        "sinusoid_datum",
        "time_continuity_modulus",
        "transport_flow",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
