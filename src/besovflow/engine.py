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

:func:`verify_map` runs these four steps as one protocol on a family of
data, with every input it maps in one request; the ``flow`` command and
the demos call it.

Every bound of steps 2 and 3, and the hypothesis bounds themselves, comes
back as a list of :class:`besovflow.dyadic.Check` rows ``lhs <= rhs``; a
row fails by the one rule ``besovflow.dyadic.fails``, beyond the relative
rounding slack ``SLACK`` or on a NaN side.

The inputs are grid sequences; an image Phi(v) is a row of block norms
(||Delta_j Phi(v)||)_j, and the adapter returns the images of one request
as one array, a row per input.  Differences of images are taken row by
row, so the image-side lhs of ``low``, ``block_decay``, ``convergence`` and
C0 is |‖Delta_j Phi(v)‖ - ‖Delta_j Phi(w)‖|.  By the reverse triangle
inequality this is at most ‖Delta_j(Phi(v) - Phi(w))‖, so those rows test
a weaker quantity than the hypothesis on the difference itself.

The constants are empirical maxima over finite sample sets, so they are
estimates, not certificates; reports carry an ``estimated`` flag, and
:func:`verify_map` checks the bounds with the constants inflated by the
safety factor ``INFLATION``.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dyadic import Check, DyadicSequence, dyadic_norm, truncate
from .envelope import c_tail_lq, compute_envelope

__all__ = [
    "BallViolationError",
    "FlowMapAdapter",
    "HypothesisReport",
    "estimate_constants",
    "high_low_rows",
    "block_decay_profile",
    "convergence_report",
    "ContinuityRow",
    "ContinuityReport",
    "perturbations",
    "continuity_probe",
    "INFLATION",
    "PERTURBATION_SCALES",
    "MapVerification",
    "verify_map",
]

ZERO_DENOMINATOR = 1e-14  # pairs closer than this are excluded from ratios
CONTINUITY_FLOOR = 1e-9

# safety factor on the sampled constants before the bound checks
INFLATION = 1.1
# perturbation sizes of the continuity probe, largest first
PERTURBATION_SCALES = (1e-1, 1e-2, 1e-3)


class BallViolationError(ValueError):
    """Input lies outside the ball on which the map is defined."""


class FlowMapAdapter:
    """A map from grid sequences to rows of block norms, defined on a norm ball.

    ``phi`` maps a list of grid sequences to the list of their images, each
    a 1-D row of block norms of one width, and must be pure, image by
    image.  Calls check the ball precondition ||f||_{s,q} < radius.
    Results are memoized on the block data, since verification sweeps
    revisit the same truncations.
    """

    def __init__(self, phi: Callable[[list], list], radius: float, s0: float, s: float,
                 s1: float, q: float):
        if not (s0 < s < s1):
            raise ValueError(f"need s0 < s < s1, got {s0}, {s}, {s1}")
        if not radius > 0:
            raise ValueError("ball radius must be positive")
        if not q >= 1:
            raise ValueError("summability q must be >= 1")
        self.phi, self.radius, self.s0, self.s, self.s1, self.q = phi, radius, s0, s, s1, q
        self._cache = {}

    def check_ball(self, f: DyadicSequence) -> float:
        norm = float(dyadic_norm(f.block_norms[None], (self.s, self.q))[0])
        if not norm < self.radius:
            raise BallViolationError(
                f"||f||_(s={self.s},q={self.q}) = {norm} is not below "
                f"the ball radius {self.radius}"
            )
        return norm

    @property
    def memoize(self) -> bool:
        """Always true: every adapter memoizes.  Read by ``perfbench/tracer.py``'s miss counter."""
        return True

    def __call__(self, request: list) -> np.ndarray:
        """The images of a list of sequences, one row each, as one array.

        The list is one request: every image not yet memoized comes from
        one call of ``phi`` on the list of distinct misses (by ``key``),
        each checked against the ball first.  A memoized sequence was
        checked against the same radius when it was mapped.
        """
        keys = [f.key for f in request]
        distinct = dict(zip(keys, request))
        misses = [key for key in distinct if key not in self._cache]
        for key in misses:
            self.check_ball(distinct[key])
        if misses:
            images = self.phi([distinct[key] for key in misses])
            self._cache.update(zip(misses, images, strict=True))
        return np.array([self._cache[key] for key in keys])


class HypothesisReport(NamedTuple):
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

    def inflated(self, factor: float) -> "HypothesisReport":
        """Scale both constants by a safety factor before bound checks."""
        return self._replace(
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
            "inflation": self.inflation,
            "estimated": True,
        }


def _truncation_family(f: DyadicSequence) -> list:
    return [truncate(f, n) for n in range(f.support)]


def estimate_constants(
    adapter: FlowMapAdapter,
    samples: Sequence[tuple],
    alongside: Sequence[DyadicSequence] = (),
) -> HypothesisReport:
    """Estimate the weak-Lipschitz and tame constants from sample pairs.

    C0_hat is the largest ratio
    ||Phi(v) - Phi(w)||_{s0,inf} / ||v - w||_{s0,1} over the pairs (pairs
    with near-zero denominator are skipped).  C1_hat is the largest ratio
    ||Phi(v)||_{s1,inf} / ||v||_{s1,1} over all truncations of the sampled
    elements, the smooth class on which a tame estimate is assumed.  Every
    pair member and truncation that enters a ratio is mapped in one request,
    and every pair member is checked against the ball once.  The sequences
    ``alongside`` join that request, so a later step reads their images
    from the memo; they enter no ratio.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("at least one sample pair is required")

    lipschitz = []
    for v, w in samples:
        denom = float(dyadic_norm((v - w).block_norms[None], (adapter.s0, 1.0))[0])
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
        denom = float(dyadic_norm(smooth.block_norms[None], (adapter.s1, 1.0))[0])
        if denom >= ZERO_DENOMINATOR:
            tame.append((smooth, denom))

    request = [f for v, w, _ in lipschitz for f in (v, w)] + [f for f, _ in tame]
    pairs_end, tame_end = 2 * len(lipschitz), len(request)
    request += alongside
    # the request checks every sequence it maps against the ball, once; each
    # pair member is in its own truncation family (S_{support-1} f is f), so
    # only a member with a near-zero s1 norm is left to check here
    mapped = {f.key for f in request}
    unmapped = {f.key: f for pair in samples for f in pair if f.key not in mapped}
    for f in unmapped.values():
        adapter.check_ball(f)
    images = adapter(request)
    c0 = c1 = 0.0
    if lipschitz:
        differences = np.abs(images[0:pairs_end:2] - images[1:pairs_end:2])
        lhs = dyadic_norm(differences, (adapter.s0, math.inf))
        c0 = float(np.max(lhs / [denom for _, _, denom in lipschitz]))
    if tame:
        lhs = dyadic_norm(images[pairs_end:tame_end], (adapter.s1, math.inf))
        c1 = float(np.max(lhs / [denom for _, denom in tame]))

    return HypothesisReport(
        c0, c1, adapter.s0, adapter.s, adapter.s1,
        samples_used=len(samples),
    )


def _level_images(adapter, f):
    """The envelope row of f and the images of S_0 f .. S_{K+1} f, in one request."""
    adapter.check_ball(f)
    gamma = compute_envelope(f.block_norms[None], adapter.s, adapter.s1).gamma[0]
    return gamma, adapter([truncate(f, n) for n in range(f.support + 1)])


def high_low_rows(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
) -> list:
    """The two hypothesis bounds at each level n <= K = f.last_index as ``high`` and ``low`` checks.

    high: ||Phi(S_n f)||_{s1,inf} <= C1_hat 2^{n(s1-s)} gamma_n;
    low:  ||Phi(S_{n+1}f) - Phi(S_n f)||_{s0,inf} <= C0_hat 2^{-n(s-s0)} gamma_{n+1}.
    """
    gamma, images = _level_images(adapter, f)
    high = dyadic_norm(images[:-1], (adapter.s1, math.inf)).tolist()
    low = dyadic_norm(np.abs(images[1:] - images[:-1]), (adapter.s0, math.inf)).tolist()
    checks = []
    for n in range(f.support):
        index = (("n", n),)
        high_rhs = report.C1_hat * 2.0 ** (n * (adapter.s1 - adapter.s)) * float(gamma[n])
        low_rhs = report.C0_hat * 2.0 ** (-n * (adapter.s - adapter.s0)) * float(gamma[n + 1])
        checks += [
            Check("high", index, high[n], high_rhs),
            Check("low", index, low[n], low_rhs),
        ]
    return checks


def block_decay_profile(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
) -> list:
    """Blockwise decay of the truncation increments of Phi as ``block_decay`` checks.

    Check (n, m), for n <= K = f.last_index, compares

        lhs = 2^{m s} ||(Phi(S_{n+1} f) - Phi(S_n f))_m||_F
        rhs = C 2^{-kappa |m - n|} (gamma_n + gamma_{n+1})

    for all m up to the output support.  With honest constants every check
    has lhs <= rhs.
    """
    gamma, images = _level_images(adapter, f)
    increments = np.abs(images[1:] - images[:-1]).tolist()
    checks = []
    for n, block in enumerate(increments):
        c_n = float(gamma[n] + gamma[n + 1])
        for m, norm in enumerate(block):
            lhs = 2.0 ** (m * adapter.s) * norm
            rhs = report.C * 2.0 ** (-report.kappa * abs(m - n)) * c_n
            checks.append(Check("block_decay", (("n", n), ("m", m)), lhs, rhs))
    return checks


def convergence_report(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    report: HypothesisReport,
) -> list:
    """One ``convergence`` check at every truncation level n <= K = f.last_index.

    lhs = ||Phi(f) - Phi(S_n f)||_{s,q};
    rhs = A C ( sum_{p>=n} c_p^q )^{1/q} with A = 2/(1 - 2^-kappa).
    S_K f is f, so the row at n = K has lhs 0.
    """
    env = compute_envelope(f.block_norms[None], adapter.s, adapter.s1)
    levels = range(f.support)
    images = adapter([f] + [truncate(f, n) for n in levels])
    lhs = dyadic_norm(np.abs(images[0] - images[1:]), (adapter.s, adapter.q)).tolist()
    return [
        Check(
            "convergence",
            (("n", n),),
            lhs_n,
            report.A * report.C * float(c_tail_lq(env, n, adapter.q)[0]),
        )
        for n, lhs_n in zip(levels, lhs)
    ]


class ContinuityRow(NamedTuple):
    scale: float
    direction: int
    input_distance: float
    output_distance: float


class ContinuityReport(NamedTuple):
    rows: tuple
    trend_ok: bool


def perturbations(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    perturbation_scales: Sequence[float],
    directions: Sequence[DyadicSequence],
) -> list:
    """The continuity probes f + eps g as (eps, direction index, probe) triples.

    Each direction g is normalized to unit ||g||_{s,q} (a zero direction
    raises ``ValueError``).  The distinct scales run largest first, each
    over every direction in order.
    """
    units = []
    for g in directions:
        norm = float(dyadic_norm(g.block_norms[None], (adapter.s, adapter.q))[0])
        if norm == 0.0:
            raise ValueError("a continuity direction must be nonzero")
        units.append(g * (1.0 / norm))
    scales = sorted(set(float(s) for s in perturbation_scales), reverse=True)
    return [(eps, d_index, f + g * eps) for eps in scales for d_index, g in enumerate(units)]


def continuity_probe(
    adapter: FlowMapAdapter,
    f: DyadicSequence,
    probes: Sequence[tuple],
) -> ContinuityReport:
    """Drive perturbations of f through Phi and record the distance pairs.

    ``probes`` are the (eps, direction index, f + eps g) triples of
    :func:`perturbations`; their images come from one request with f, so
    probes an earlier request mapped are read from the memo.  For every
    probe the report holds ||(f + eps g) - f||_{s,q} against
    ||Phi(f + eps g) - Phi(f)||_{s,q}.  Continuity gives no rate, so the
    verdict compares batch extremes: the largest output distance at the
    smallest scale must lie below the smallest output distance at the
    largest scale (or both below the absolute floor).  f and all perturbed
    inputs must lie inside the ball.
    """
    images = adapter([f] + [perturbed for _, _, perturbed in probes])
    output = dyadic_norm(np.abs(images[1:] - images[0]), (adapter.s, adapter.q)).tolist()
    rows = [
        ContinuityRow(
            scale=eps,
            direction=d_index,
            input_distance=float(
                dyadic_norm((perturbed - f).block_norms[None], (adapter.s, adapter.q))[0]
            ),
            output_distance=distance,
        )
        for (eps, d_index, perturbed), distance in zip(probes, output)
    ]
    scales = sorted({row.scale for row in rows}, reverse=True)
    trend_ok = True
    if len(scales) >= 2:
        largest = [r.output_distance for r in rows if r.scale == scales[0]]
        smallest = [r.output_distance for r in rows if r.scale == scales[-1]]
        trend_ok = max(smallest) < min(largest) or (
            max(smallest) <= CONTINUITY_FLOOR and max(largest) <= CONTINUITY_FLOOR
        )
    return ContinuityReport(rows=tuple(rows), trend_ok=trend_ok)


class MapVerification(NamedTuple):
    """The constants, check rows and continuity probe of :func:`verify_map`.

    ``checks`` holds the ``high``/``low``, then ``block_decay``, then ``convergence`` rows.
    ``radius`` is the radius of the ball on which the map was verified.
    """

    constants_raw: HypothesisReport
    constants_checked: HypothesisReport
    checks: tuple
    continuity: ContinuityReport
    radius: float

    def rows(self, family: str) -> list:
        """The checks of one family, in order."""
        return [c for c in self.checks if c.family == family]


def verify_map(phi: Callable, family: Sequence, scale: tuple) -> MapVerification:
    """The continuity argument for Phi, checked on a family of data.

    ``phi`` maps a list of grid sequences to the list of their image rows,
    as :class:`FlowMapAdapter` takes it; ``scale`` is (s0, s, s1, q).  Phi
    is verified on the ball ||f||_{s,q} < radius, with radius
    max(2 M, M + 2 max(PERTURBATION_SCALES)), M the largest
    ||f||_{s,q} over the family, so every input the protocol maps lies
    strictly inside: members have norm at most M, truncations S_n f at most
    ||f|| (S_n is a contraction), and probes f + eps g with unit g at most
    M + max(PERTURBATION_SCALES).

    f = family[0] is the probe, with K = f.last_index.  The constants are
    sampled on every pair of family members and on the truncation pairs
    (S_{n+1} f, S_n f), n < K, then inflated by ``INFLATION``.  With them
    the ``high``/``low`` rows, the block decay profile and the convergence
    rows are checked at the levels 0 .. K, and continuity is probed at
    ``PERTURBATION_SCALES`` toward family[1] (along f for a family of one).

    The probes are built first, so a zero direction raises ``ValueError``
    before Phi is called.  They and every truncation S_n f, n <= K, join
    the constants' request, whether or not they enter a ratio, so it maps
    in a single call of ``phi`` every input the protocol reads, and the
    later steps read their images from the memo.
    """
    s0, s, s1, q = scale
    largest = max(float(dyadic_norm(f.block_norms[None], (s, q))[0]) for f in family)
    radius = max(2.0 * largest, largest + 2.0 * max(PERTURBATION_SCALES))
    adapter = FlowMapAdapter(phi=phi, radius=radius, s0=s0, s=s, s1=s1, q=q)
    probe = family[0]
    direction = family[1] - probe if len(family) > 1 else probe
    probes = perturbations(adapter, probe, PERTURBATION_SCALES, [direction])
    levels = [truncate(probe, n) for n in range(probe.support)]
    pairs = [(family[i], family[j]) for i in range(len(family)) for j in range(i)]
    pairs += list(zip(levels[1:], levels[:-1]))
    raw = estimate_constants(adapter, pairs, levels + [perturbed for _, _, perturbed in probes])
    checked = raw.inflated(INFLATION)
    checks = (
        high_low_rows(adapter, probe, checked)
        + block_decay_profile(adapter, probe, checked)
        + convergence_report(adapter, probe, checked)
    )
    continuity = continuity_probe(adapter, probe, probes)
    return MapVerification(raw, checked, tuple(checks), continuity, radius)
