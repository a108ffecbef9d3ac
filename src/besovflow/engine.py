"""Forward verification of continuity bounds for maps on sequence spaces.

Given a map Phi defined on a ball of a dyadic sequence space, the engine

  1. estimates the two hypothesis constants empirically: a weak-Lipschitz
     constant C0 (low-order norm of differences) and a tame constant C1
     (high-order norm on truncated, hence smooth, inputs),
  2. checks the derived blockwise decay profile: the blocks of
     Phi(S_{n+1} f) - Phi(S_n f) decay exponentially away from n,
  3. checks the telescoped convergence bound
     ||Phi(f) - Phi(S_n f)||_{s,q} <= A C ( sum_{p>=n} c_p^q )^{1/q}
     with A = 2/(1 - 2^-kappa), kappa = min(s1-s, s-s0), and c the adjacent
     sums of the frequency envelope of f,
  4. probes continuity directly on a ladder of perturbation scales.

Every bound of steps 2 and 3, and the hypothesis bounds themselves, comes
back as a list of :class:`Check` rows ``lhs <= rhs``; a row fails when lhs
exceeds rhs beyond the relative rounding slack ``SLACK``.

The constants are empirical maxima over finite sample sets, so they are
estimates, not certificates; reports carry an ``estimated`` flag, and bound
checks are meant to run with the constants inflated by a safety factor
(1.1 by default via :meth:`HypothesisReport.inflated`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .dyadic import DyadicSequence, dyadic_norm, truncate
from .envelope import c_tail_lq, compute_envelope

__all__ = [
    "SLACK",
    "Check",
    "BallViolationError",
    "FlowMapAdapter",
    "HypothesisReport",
    "estimate_constants",
    "high_low_rows",
    "block_decay_profile",
    "convergence_report",
    "ContinuityRow",
    "ContinuityReport",
    "continuity_probe",
]

ZERO_DENOMINATOR = 1e-14  # pairs closer than this are excluded from ratios
CONTINUITY_FLOOR = 1e-9

# relative rounding slack allowed on every lhs <= rhs check
SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class Check:
    """One bound ``lhs <= rhs`` of a check family at a named index.

    ``index`` is a tuple of (name, integer) pairs, such as ``(("n", 3),)``
    or ``(("n", 3), ("m", 5))``.
    """

    family: str
    index: tuple
    lhs: float
    rhs: float

    @property
    def failed(self) -> bool:
        """True when lhs exceeds rhs beyond the relative SLACK."""
        return self.lhs > self.rhs * (1.0 + SLACK)


class BallViolationError(ValueError):
    """Input lies outside the ball on which the map is defined."""


@dataclass
class FlowMapAdapter:
    """A map on dyadic sequences, defined on a norm ball, with its scale.

    ``phi`` maps a list of sequences over the input base space to the list
    of their images over the output base space and must be pure, image by
    image.  Calls check the ball precondition ||f||_{s,q} < radius.
    Results are memoized on the block data by default, since verification
    sweeps revisit the same truncations.
    """

    phi: Callable[[list], list]
    radius: float
    s0: float
    s: float
    s1: float
    q: float
    memoize: bool = True
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (self.s0 < self.s < self.s1):
            raise ValueError(
                f"need s0 < s < s1, got {self.s0}, {self.s}, {self.s1}"
            )
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        if not self.q >= 1:
            raise ValueError("summability q must be >= 1")

    def check_ball(self, f: DyadicSequence) -> float:
        norm = dyadic_norm(f, (self.s, self.q))
        if not norm < self.radius:
            raise BallViolationError(
                f"||f||_(s={self.s},q={self.q}) = {norm} is not below "
                f"the ball radius {self.radius}"
            )
        return norm

    def __call__(self, f):
        """Phi(f) for one sequence, or the list of images of a list of sequences.

        A list is one request: each distinct sequence in it (by its ``key``)
        is checked against the ball once, and every image not yet memoized
        comes from one call of ``phi`` on the list of misses.
        """
        if isinstance(f, DyadicSequence):
            return self._images([f])[0]
        return self._images(list(f))

    def _images(self, request: list) -> list:
        keys = [f.key for f in request]
        distinct = dict(zip(keys, request))
        for f in distinct.values():
            self.check_ball(f)
        memo = self._cache if self.memoize else {}
        misses = [key for key in distinct if key not in memo]
        if misses:
            images = self.phi([distinct[key] for key in misses])
            memo.update(zip(misses, images, strict=True))
        return [memo[key] for key in keys]


@dataclass(frozen=True)
class HypothesisReport:
    """Empirically estimated hypothesis constants at the orders s0 < s < s1.

    C0_hat and C1_hat are maxima of sampled ratios, so they lower-bound the
    true constants; ``inflation`` records any safety factor applied before
    bound checks.  ``kappa``, ``C`` and ``A`` are derived from them and the
    orders.
    """

    C0_hat: float
    C1_hat: float
    s0: float
    s: float
    s1: float
    samples_used: int
    smooth_only: bool = False
    inflation: float = 1.0

    @property
    def kappa(self) -> float:
        """min(s1-s, s-s0)."""
        return min(self.s1 - self.s, self.s - self.s0)

    @property
    def C(self) -> float:
        """max(C0_hat, (1 + 2^{s1-s}) C1_hat)."""
        return max(self.C0_hat, (1.0 + 2.0 ** (self.s1 - self.s)) * self.C1_hat)

    @property
    def A(self) -> float:
        """2/(1 - 2^-kappa), the telescoping constant of the convergence bound."""
        return 2.0 / (1.0 - 2.0 ** (-self.kappa))

    def inflated(self, factor: float = 1.1) -> "HypothesisReport":
        """Scale both constants by a safety factor before bound checks."""
        return replace(
            self,
            C0_hat=self.C0_hat * factor,
            C1_hat=self.C1_hat * factor,
            inflation=self.inflation * factor,
        )

    def to_dict(self) -> dict:
        return {
            "C0_hat": self.C0_hat,
            "C1_hat": self.C1_hat,
            "kappa": self.kappa,
            "C": self.C,
            "samples_used": self.samples_used,
            "smooth_only": self.smooth_only,
            "inflation": self.inflation,
            "estimated": True,
        }


def _truncation_family(f: DyadicSequence) -> list:
    return [truncate(f, n) for n in range(f.support)]


def estimate_constants(
    adapter: FlowMapAdapter,
    samples: Sequence[tuple],
    smooth_only: bool = False,
) -> HypothesisReport:
    """Estimate the weak-Lipschitz and tame constants from sample pairs.

    C0_hat is the largest ratio
    ||Phi(v) - Phi(w)||_{s0,inf} / ||v - w||_{s0,1} over the pairs (pairs
    with near-zero denominator are skipped).  C1_hat is the largest ratio
    ||Phi(v)||_{s1,inf} / ||v||_{s1,1} over all truncations of the sampled
    elements, the smooth class on which a tame estimate is assumed.  With
    ``smooth_only`` the Lipschitz ratios too are taken only over matched
    truncations of each pair, the weaker hypothesis that suffices when the
    map is already known to be continuous at the low order.  Every pair
    member and truncation that enters a ratio is mapped in one request.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("at least one sample pair is required")
    for v, w in samples:
        adapter.check_ball(v)
        adapter.check_ball(w)

    if smooth_only:
        pairs = []
        for v, w in samples:
            for n in range(max(v.support, w.support)):
                pairs.append((truncate(v, n), truncate(w, n)))
    else:
        pairs = samples
    lipschitz = []
    for v, w in pairs:
        denom = dyadic_norm(v - w, (adapter.s0, 1.0))
        if denom >= ZERO_DENOMINATOR:
            lipschitz.append((v, w, denom))

    truncations = {
        smooth.key: smooth
        for pair in samples
        for element in pair
        for smooth in _truncation_family(element)
    }
    tame = []
    for smooth in truncations.values():
        denom = dyadic_norm(smooth, (adapter.s1, 1.0))
        if denom >= ZERO_DENOMINATOR:
            tame.append((smooth, denom))

    images = adapter([f for v, w, _ in lipschitz for f in (v, w)] + [f for f, _ in tame])
    c0 = 0.0
    for index, (_, _, denom) in enumerate(lipschitz):
        difference = images[2 * index] - images[2 * index + 1]
        c0 = max(c0, dyadic_norm(difference, (adapter.s0, math.inf)) / denom)
    c1 = 0.0
    for image, (_, denom) in zip(images[2 * len(lipschitz) :], tame):
        c1 = max(c1, dyadic_norm(image, (adapter.s1, math.inf)) / denom)

    return HypothesisReport(
        c0, c1, adapter.s0, adapter.s, adapter.s1,
        samples_used=len(samples), smooth_only=smooth_only,
    )


def _level_images(adapter, f, n_max):
    """The envelope of f and the images of S_0 f .. S_{n_max+1} f, in one request."""
    adapter.check_ball(f)
    env = compute_envelope(f, adapter.s, adapter.s1)
    if n_max + 1 >= env.gamma.size:
        raise ValueError("n_max exceeds the envelope's stored range")
    return env, adapter([truncate(f, n) for n in range(n_max + 2)])


def high_low_rows(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
    n_max: int,
) -> list:
    """The two hypothesis bounds at each level n <= n_max as ``high_low`` checks, high first.

    high: ||Phi(S_n f)||_{s1,inf} <= C1_hat 2^{n(s1-s)} gamma_n;
    low:  ||Phi(S_{n+1}f) - Phi(S_n f)||_{s0,inf} <= C0_hat 2^{-n(s-s0)} gamma_{n+1}.
    """
    env, images = _level_images(adapter, f, n_max)
    checks = []
    for n in range(n_max + 1):
        index = (("n", n),)
        high_lhs = dyadic_norm(images[n], (adapter.s1, math.inf))
        high_rhs = report.C1_hat * 2.0 ** (n * (adapter.s1 - adapter.s)) * float(env.gamma[n])
        low_lhs = dyadic_norm(images[n + 1] - images[n], (adapter.s0, math.inf))
        low_rhs = report.C0_hat * 2.0 ** (-n * (adapter.s - adapter.s0)) * float(env.gamma[n + 1])
        checks += [
            Check("high_low", index, high_lhs, high_rhs),
            Check("high_low", index, low_lhs, low_rhs),
        ]
    return checks


def block_decay_profile(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
    n_max: int,
) -> list:
    """Blockwise decay of the truncation increments of Phi as ``block_decay`` checks.

    Check (n, m) compares

        lhs = 2^{m s} ||(Phi(S_{n+1} f) - Phi(S_n f))_m||_F
        rhs = C 2^{-kappa |m - n|} (gamma_n + gamma_{n+1})

    for all m up to the output support.  With honest constants every check
    has lhs <= rhs.
    """
    env, images = _level_images(adapter, f, n_max)
    checks = []
    for n in range(n_max + 1):
        block = (images[n + 1] - images[n]).block_norms
        c_n = float(env.gamma[n] + env.gamma[n + 1])
        for m in range(block.size):
            lhs = 2.0 ** (m * adapter.s) * float(block[m])
            rhs = report.C * 2.0 ** (-report.kappa * abs(m - n)) * c_n
            checks.append(Check("block_decay", (("n", n), ("m", m)), lhs, rhs))
    return checks


def convergence_report(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
    n_values: Sequence[int],
) -> list:
    """One ``convergence`` check at every truncation level n in ``n_values``.

    lhs = ||Phi(f) - Phi(S_n f)||_{s,q};
    rhs = A C ( sum_{p>=n} c_p^q )^{1/q} with A = 2/(1 - 2^-kappa).
    """
    adapter.check_ball(f)
    env = compute_envelope(f, adapter.s, adapter.s1)
    n_values = list(n_values)
    image, *truncated = adapter([f] + [truncate(f, n) for n in n_values])
    return [
        Check(
            "convergence",
            (("n", n),),
            dyadic_norm(image - image_n, (adapter.s, adapter.q)),
            report.A * report.C * c_tail_lq(env, n, adapter.q),
        )
        for n, image_n in zip(n_values, truncated)
    ]


@dataclass(frozen=True)
class ContinuityRow:
    scale: float
    direction: int
    input_distance: float
    output_distance: float


@dataclass(frozen=True)
class ContinuityReport:
    rows: tuple
    trend_ok: bool


def continuity_probe(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    perturbation_scales: Sequence[float],
    directions: Sequence[DyadicSequence] | None = None,
) -> ContinuityReport:
    """Drive perturbations of f through Phi and record the distance pairs.

    For every scale eps and unit-normalized direction g the probe evaluates
    ||(f + eps g) - f||_{s,q} against ||Phi(f + eps g) - Phi(f)||_{s,q}.
    Continuity gives no rate, so the verdict compares batch extremes: the
    largest output distance at the smallest scale must lie below the
    smallest output distance at the largest scale (or both below the
    absolute floor).  All perturbed inputs must stay inside the ball.
    """
    adapter.check_ball(f)
    if directions is None:
        norm = dyadic_norm(f, (adapter.s, adapter.q))
        if norm == 0.0:
            raise ValueError("cannot build a default direction from the zero point")
        directions = [f * (1.0 / norm)]
    scales = sorted(set(float(s) for s in perturbation_scales), reverse=True)
    probes = [
        (eps, d_index, f + g * eps)
        for eps in scales
        for d_index, g in enumerate(directions)
    ]
    base_image, *images = adapter([f] + [perturbed for _, _, perturbed in probes])
    rows = [
        ContinuityRow(
            scale=eps,
            direction=d_index,
            input_distance=dyadic_norm(perturbed - f, (adapter.s, adapter.q)),
            output_distance=dyadic_norm(image - base_image, (adapter.s, adapter.q)),
        )
        for (eps, d_index, perturbed), image in zip(probes, images)
    ]
    trend_ok = True
    if len(scales) >= 2:
        largest = [r.output_distance for r in rows if r.scale == scales[0]]
        smallest = [r.output_distance for r in rows if r.scale == scales[-1]]
        trend_ok = max(smallest) < min(largest) or (
            max(smallest) <= CONTINUITY_FLOOR and max(largest) <= CONTINUITY_FLOOR
        )
    return ContinuityReport(rows=tuple(rows), trend_ok=trend_ok)
