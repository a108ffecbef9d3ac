"""Dyadic sequence spaces, Littlewood-Paley analysis, and flow-map continuity checks."""

from .pseudonorm import (
    KindMismatchError,
    PseudoNormedSpace,
    axiom_probe,
    eval_pseudo_norm,
    scalar_abs_space,
)
from .dyadic import (
    DyadicSequence,
    ScaleIndex,
    dyadic_norm,
    interpolation_bound,
    random_sequence,
    smoothing_gain,
    truncate,
    truncation_power_sum,
    weighted_smoothing_sum,
    young_convolve,
)
from .littlewood_paley import (
    FilterBank,
    GridFunction,
    almost_orthogonality,
    apply_block,
    besov_norm,
    build_filters,
    decompose,
    grid_l2_norm,
    grid_l2_space,
    load_grid_function,
    partition_of_unity,
    random_grid_function,
    reconstruct,
    save_grid_function,
    sobolev_norm,
)
from .envelope import (
    FrequencyEnvelope,
    c_sequence,
    compute_envelope,
    envelope_equivalence,
)
from .engine import (
    BallViolationError,
    Check,
    FlowMapAdapter,
    HypothesisReport,
    block_decay_profile,
    continuity_probe,
    convergence_report,
    estimate_constants,
    high_low_rows,
)
from .flows import (
    FlowConfig,
    Trajectory,
    burgers_flow,
    burgers_spectral_reference,
    chemin_lerner_norm,
    flow_as_sequence_map,
    sinusoid_datum,
    time_continuity_modulus,
    transport_flow,
)

__version__ = "0.1.0"
