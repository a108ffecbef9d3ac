"""Concrete flows on the torus and their sequence-space adapters.

Two flows instantiate the abstract maps that the verification engine
consumes: linear transport (solved exactly by a spectral phase shift) and
inviscid Burgers before shock formation (solved by the method of
characteristics, with an independent pseudospectral RK4 solver kept as a
cross-check oracle).

A flow becomes a sequence map by conjugation with the dyadic
decompose/reconstruct pair: reconstruct the initial datum from its blocks,
run the flow, decompose every time slice, and keep one scalar per block,
its L^mu-in-time L2 norm.  Chemin-Lerner norms (time-integrate each block
first, then sum blocks in l^2) and the time-continuity diagnostics live
here as well.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .dyadic import DyadicSequence
from .engine import FlowMapAdapter
from .littlewood_paley import (
    TAU,
    FilterBank,
    GridFunction,
    GridMismatchError,
    frequencies,
    load_grid_function,
    reconstruct,
    save_grid_function,
)
from .pseudonorm import PseudoNormedSpace

__all__ = [
    "Trajectory",
    "FlowConfig",
    "ShockMarginError",
    "CharacteristicSolveError",
    "TrigInterpolant",
    "global_max_abs",
    "shock_time",
    "transport_flow",
    "burgers_flow",
    "burgers_spectral_reference",
    "make_flow",
    "block_time_norms",
    "chemin_lerner_norm",
    "chemin_lerner_sup_norm",
    "lmu_time_sobolev_norm",
    "flow_as_sequence_map",
    "TimeContinuityReport",
    "block_sup_tails",
    "time_continuity_modulus",
    "trajectory_sup_l2_space",
    "sinusoid_datum",
    "save_trajectory",
    "load_trajectory",
]


class ShockMarginError(ValueError):
    """Requested final time is not safely below the first shock time."""


class CharacteristicSolveError(RuntimeError):
    """A characteristic foot failed to converge within the iteration cap."""


@dataclass(frozen=True)
class Trajectory:
    """States of a flow on a uniform time grid, with a time exponent mu."""

    times: np.ndarray
    states: tuple
    mu: float = math.inf

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        if times.size != len(self.states):
            raise ValueError("one state per time node is required")
        if times.size < 2:
            raise ValueError("a trajectory needs at least two time nodes")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
            raise ValueError("time nodes must be uniform")
        sizes = {state.grid_size for state in self.states}
        if len(sizes) != 1:
            raise ValueError("all states must share one grid size")
        if not self.mu >= 2:
            raise ValueError("time exponent mu must be >= 2")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def grid_size(self) -> int:
        return self.states[0].grid_size

    def _check(self, other: "Trajectory"):
        if self.times.size != other.times.size or not np.array_equal(
            self.times, other.times
        ):
            raise ValueError("trajectories live on different time grids")

    def __add__(self, other: "Trajectory") -> "Trajectory":
        self._check(other)
        return Trajectory(
            times=self.times,
            states=tuple(a + b for a, b in zip(self.states, other.states)),
            mu=self.mu,
        )

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        self._check(other)
        return Trajectory(
            times=self.times,
            states=tuple(a - b for a, b in zip(self.states, other.states)),
            mu=self.mu,
        )

    def __neg__(self) -> "Trajectory":
        return Trajectory(
            times=self.times, states=tuple(-s for s in self.states), mu=self.mu
        )


@dataclass(frozen=True)
class FlowConfig:
    """Grid, horizon, flow kind and verification scale for one experiment."""

    grid_size: int = 256
    T: float = 1.0
    time_steps: int = 64
    flow_kind: str = "transport"
    transport_speed: float = 1.0
    ball_radius: float | None = None
    s0: float = 0.0
    s: float = 2.0
    s1: float = 3.0
    q: float = 2.0
    mu: float = math.inf

    def __post_init__(self):
        if self.flow_kind not in ("transport", "burgers"):
            raise ValueError(f"unknown flow kind {self.flow_kind!r}")
        if self.time_steps < 1:
            raise ValueError("at least one time step is required")
        if not self.mu >= 2:
            raise ValueError("time exponent mu must be >= 2")

    def time_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.time_steps + 1)


class TrigInterpolant:
    """Band-limited interpolant of grid samples, exact at the nodes.

    Evaluates the symmetric trigonometric polynomial through the samples
    (the Nyquist mode enters as a pure cosine) and its derivative at
    arbitrary points, one complex exponential z = exp(i y) per point.  The
    K = N/2 - 1 interior modes are split into blocks of B ~ sqrt(K)
    consecutive modes: one cumulative product builds the powers z^1 .. z^B,
    one matrix product contracts them with every block's coefficients, and
    a Horner recursion in z^B runs across the blocks.
    """

    def __init__(self, u: GridFunction):
        n = u.grid_size
        coeffs = np.fft.rfft(u.values) / n
        self.n = n
        self.c0 = float(coeffs[0].real)
        self.nyquist = float(coeffs[n // 2].real)
        interior = coeffs[1 : n // 2]  # modes 1 .. N/2 - 1
        self.block = math.isqrt(interior.size - 1) + 1  # ceil(sqrt(K))
        self.blocks = -(-interior.size // self.block)
        padded = np.zeros(self.block * self.blocks, dtype=complex)
        padded[: interior.size] = interior
        # row b holds modes b*B + 1 .. b*B + B; the derivative rows carry
        # the same coefficients times their mode numbers
        table = padded.reshape(self.blocks, self.block)
        modes = np.arange(1, padded.size + 1).reshape(self.blocks, self.block)
        self.weights = np.concatenate([table, modes * table])
        self.value_weights = self.weights[: self.blocks]

    def _horner(self, y: np.ndarray, derivative_too: bool):
        z = np.exp(1j * y.ravel())
        powers = np.cumprod(np.broadcast_to(z, (self.block, z.size)), axis=0)
        weights = self.weights if derivative_too else self.value_weights
        # sums[p, b] is the inner sum of block b for part p (value, derivative)
        sums = (weights @ powers).reshape(-1, self.blocks, z.size)
        step = powers[-1]  # z^B
        acc = sums[:, -1]
        for b in range(self.blocks - 2, -1, -1):
            acc = acc * step + sums[:, b]
        acc = acc.reshape((-1,) + y.shape)
        half_n = 0.5 * self.n
        value = self.c0 + 2.0 * acc[0].real + self.nyquist * np.cos(half_n * y)
        if not derivative_too:
            return value, None
        deriv = -2.0 * acc[1].imag - self.nyquist * half_n * np.sin(half_n * y)
        return value, deriv

    def __call__(self, y: np.ndarray) -> np.ndarray:
        value, _ = self._horner(np.asarray(y, dtype=float), False)
        return value

    def derivative(self, y: np.ndarray) -> np.ndarray:
        _, deriv = self._horner(np.asarray(y, dtype=float), True)
        return deriv

    def value_and_derivative(self, y: np.ndarray):
        return self._horner(np.asarray(y, dtype=float), True)


def global_max_abs(u: GridFunction, refine: int = 64) -> float:
    """Max of |u| over the whole torus, not just the grid nodes.

    Upsamples the band-limited interpolant and sharpens the discrete argmax
    with one parabolic fit, accurate to well below 1e-12 for smooth data.
    """
    n = u.grid_size
    half_spectrum = np.fft.rfft(u.values)
    dense = np.fft.irfft(half_spectrum, n=refine * n) * refine
    best = 0.0
    for signed in (dense, -dense):
        i = int(np.argmax(signed))
        f0 = signed[i]
        f_minus = signed[(i - 1) % signed.size]
        f_plus = signed[(i + 1) % signed.size]
        curvature = f_plus + f_minus - 2.0 * f0
        if curvature < 0.0:
            peak = f0 - (f_plus - f_minus) ** 2 / (8.0 * curvature)
        else:
            peak = f0
        best = max(best, float(peak))
    return best


def _spectral_derivative(u: GridFunction) -> np.ndarray:
    freqs = frequencies(u.grid_size)
    return np.fft.ifft(1j * freqs * np.fft.fft(u.values)).real


def shock_time(u0: GridFunction) -> float:
    """First characteristic crossing time 1/max(0, -min u0') (inf if none)."""
    slope_min = float(_spectral_derivative(u0).min())
    if slope_min >= 0.0:
        return math.inf
    return 1.0 / (-slope_min)


def transport_flow(u0: GridFunction, speed: float, cfg: FlowConfig) -> Trajectory:
    """Constant-speed transport solved by an exact spectral phase shift.

    Every Sobolev norm is conserved along the trajectory since the phase
    factor has modulus one.
    """
    coeffs = np.fft.fft(u0.values)
    freqs = frequencies(u0.grid_size)
    times = cfg.time_nodes()
    states = tuple(
        GridFunction(np.fft.ifft(coeffs * np.exp(-1j * freqs * speed * t)).real)
        for t in times
    )
    return Trajectory(times=times, states=states, mu=cfg.mu)


def burgers_flow(u0: GridFunction, cfg: FlowConfig) -> Trajectory:
    """Inviscid Burgers before shocks, solved by characteristics.

    For each grid node x and time t the foot y of the characteristic solves
    x = y + t u0(y); the solution value is u0(y).  The scalar equation is
    solved for the whole grid at once by safeguarded Newton iteration
    (bisection fallback inside a bracket that always contains the root),
    to residual 1e-12 per node.  Each step is seeded from the foot's ODE
    dy/dt = -u0(y) / (1 + t u0'(y)): a cubic Hermite extrapolation through
    the last two feet and their slopes (linear on the first step).
    Requires the horizon to sit below the shock time with a 10 percent
    margin.
    """
    margin_time = 0.9 * shock_time(u0)
    if not cfg.T <= margin_time:
        raise ShockMarginError(
            f"horizon T={cfg.T} exceeds the pre-shock margin {margin_time}"
        )
    interp = TrigInterpolant(u0)
    x = u0.nodes
    amplitude = float(np.abs(u0.values).max())
    half_width = 2.0 * amplitude + 1e-9
    times = cfg.time_nodes()
    states = [GridFunction(u0.values)]
    y = x
    slope_y = -u0.values  # dy/dt of every foot at t = 0
    y_prev = slope_prev = None
    for t_prev, t in zip(times[:-1], times[1:]):
        h = t - t_prev
        if y_prev is None:
            seed = y + h * slope_y
        else:
            seed = 5.0 * y_prev - 4.0 * y + h * (2.0 * slope_prev + 4.0 * slope_y)
        y_prev, slope_prev = y, slope_y
        lo = x - t * half_width
        hi = x + t * half_width
        y = np.clip(seed, lo, hi)
        converged = False
        for _ in range(100):
            value, deriv = interp.value_and_derivative(y)
            g = y + t * value - x
            if np.all(np.abs(g) <= 1e-12):
                converged = True
                break
            # maintain the bracket: g is increasing in y pre-shock
            hi = np.where(g > 0.0, np.minimum(hi, y), hi)
            lo = np.where(g < 0.0, np.maximum(lo, y), lo)
            slope = 1.0 + t * deriv
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = y - g / slope
            fallback = 0.5 * (lo + hi)
            usable = (slope > 0.0) & (newton > lo) & (newton < hi)
            y = np.where(usable, newton, fallback)
            value = interp(y)
            if np.all(np.abs(y + t * value - x) <= 1e-12):
                converged = True
                break
        if not converged:
            worst = int(np.argmax(np.abs(y + t * interp(y) - x)))
            raise CharacteristicSolveError(
                f"characteristic solve stalled at node {worst}, time {t}"
            )
        states.append(GridFunction(value))
        # the derivative is from the last Newton point, close enough for a seed
        slope_y = -value / (1.0 + t * deriv)
    return Trajectory(times=times, states=tuple(states), mu=cfg.mu)


def burgers_spectral_reference(
    u0: GridFunction,
    times: np.ndarray,
    steps_per_interval: int = 32,
    viscosity: float = 0.0,
    mu: float = math.inf,
) -> Trajectory:
    """Independent pseudospectral RK4 solver for Burgers, used as an oracle.

    Integrates u_t + (u^2/2)_x = viscosity * u_xx in spectral space with a
    2/3-rule dealiased product and fixed-step RK4 between the requested
    time nodes.  Deliberately shares no code with the characteristic
    solver.
    """
    n = u0.grid_size
    freqs = frequencies(n)
    keep = np.abs(freqs) <= n // 3
    ik = 1j * freqs
    k2 = freqs**2

    def rhs(u_hat):
        u_phys = np.fft.ifft(u_hat).real
        flux_hat = np.fft.fft(0.5 * u_phys * u_phys) * keep
        return -ik * flux_hat - viscosity * k2 * u_hat

    times = np.asarray(times, dtype=float)
    u_hat = np.fft.fft(u0.values)
    states = [GridFunction(u0.values)]
    for left, right in zip(times[:-1], times[1:]):
        dt = (right - left) / steps_per_interval
        for _ in range(steps_per_interval):
            k1 = rhs(u_hat)
            k2_ = rhs(u_hat + 0.5 * dt * k1)
            k3 = rhs(u_hat + 0.5 * dt * k2_)
            k4 = rhs(u_hat + dt * k3)
            u_hat = u_hat + (dt / 6.0) * (k1 + 2.0 * k2_ + 2.0 * k3 + k4)
        states.append(GridFunction(np.fft.ifft(u_hat).real))
    return Trajectory(times=times, states=tuple(states), mu=mu)


def make_flow(cfg: FlowConfig) -> Callable[[GridFunction], Trajectory]:
    """The configured flow as a single-argument callable on initial data."""
    if cfg.flow_kind == "transport":
        return lambda u0: transport_flow(u0, cfg.transport_speed, cfg)
    return lambda u0: burgers_flow(u0, cfg)


# --- time-frequency norms ------------------------------------------------------

def _time_combine(values: np.ndarray, times: np.ndarray, mu: float) -> float:
    """L^mu norm in time of nonnegative node values (trapezoid quadrature)."""
    if math.isinf(mu):
        return float(values.max())
    dt = times[1] - times[0]
    weights = np.full(times.size, dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.sum(weights * values**mu) ** (1.0 / mu))


def _spectra(traj: Trajectory, bank: FilterBank) -> list:
    """Normalized spectrum fft(u(t)) / N of every state, one array per node."""
    if traj.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"trajectory grid {traj.grid_size} does not match bank {bank.grid_size}"
        )
    n = traj.grid_size
    return [np.fft.fft(state.values) / n for state in traj.states]


def _block_l2_table(spectra: list, bank: FilterBank, s: float) -> np.ndarray:
    """Matrix [j, t] of ||Delta_j u(t)||_{H^s} over blocks and time nodes."""
    sobolev_weight = (1.0 + frequencies(bank.grid_size) ** 2) ** s
    row_weights = bank.multipliers**2 * sobolev_weight  # (j, xi)
    table = np.empty((bank.j_max + 1, len(spectra)))
    for t_index, coeffs in enumerate(spectra):
        table[:, t_index] = np.sqrt(TAU * (row_weights @ np.abs(coeffs) ** 2))
    return table


def block_time_norms(traj: Trajectory, bank: FilterBank, s: float = 0.0) -> np.ndarray:
    """Per-block scalars: the L^mu-in-time H^s norm of each dyadic block."""
    table = _block_l2_table(_spectra(traj, bank), bank, s)
    return np.array(
        [_time_combine(table[j], traj.times, traj.mu) for j in range(table.shape[0])]
    )


def chemin_lerner_norm(traj: Trajectory, s: float, bank: FilterBank) -> float:
    """Time-integrate each block first, then sum blocks in l^2.

    Stronger than the L^mu-in-time H^s norm when mu >= 2 (Minkowski, up to
    the almost-orthogonality constant sqrt(3)).
    """
    blocks = block_time_norms(traj, bank, s)
    return float(np.sqrt(np.sum(blocks**2)))


def chemin_lerner_sup_norm(traj: Trajectory, s: float, bank: FilterBank) -> float:
    """sup over blocks of the per-block time norm; below the L^mu H^s norm."""
    return float(block_time_norms(traj, bank, s).max())


def lmu_time_sobolev_norm(traj: Trajectory, s: float) -> float:
    """L^mu norm in time of t -> ||u(t)||_{H^s} (trapezoid for finite mu)."""
    from .littlewood_paley import sobolev_norm

    values = np.array([sobolev_norm(state, s) for state in traj.states])
    return _time_combine(values, traj.times, traj.mu)


# --- sequence-space adapters ---------------------------------------------------

def _time_norm_space(mu: float) -> PseudoNormedSpace:
    """Output base space: one L^mu-time L2 scalar per block."""
    return PseudoNormedSpace(
        label=f"Lmu-time-L2(mu={mu})",
        eval=abs,
        element_kind="scalar",
        zero=lambda: 0.0,
    )


def flow_as_sequence_map(
    flow: Callable[[GridFunction], Trajectory],
    cfg: FlowConfig,
    bank: FilterBank,
) -> FlowMapAdapter:
    """Conjugate a flow with decompose/reconstruct into a sequence map.

    ``flow`` maps an initial datum to a trajectory (see :func:`make_flow`).
    The adapter's map takes dyadic blocks of an initial datum, rebuilds the
    datum, runs the flow, and returns one scalar per block of the solution:
    the L^mu-in-time L2 norm of that block.  Ball membership at the
    configured (s, q) scale is checked on every call.
    """
    if cfg.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"config grid {cfg.grid_size} does not match bank {bank.grid_size}"
        )
    if cfg.ball_radius is None:
        raise ValueError("flow config needs an explicit ball_radius")
    out_space = _time_norm_space(cfg.mu)

    def phi(f: DyadicSequence) -> DyadicSequence:
        u0 = reconstruct(f, bank)
        traj = flow(u0)
        scalars = block_time_norms(traj, bank, s=0.0)
        return DyadicSequence(out_space, tuple(float(v) for v in scalars))

    return FlowMapAdapter(
        phi=phi, radius=cfg.ball_radius, s0=cfg.s0, s=cfg.s, s1=cfg.s1, q=cfg.q
    )


# --- time continuity ------------------------------------------------------------

def block_sup_tails(traj: Trajectory, s: float, bank: FilterBank) -> np.ndarray:
    """Tails sum_{j >= N} sup_t ||Delta_j u(t)||_{H^s}^2 for N = 0 .. J+1.

    Nonincreasing in N and zero once N passes the band limit.
    """
    table = _block_l2_table(_spectra(traj, bank), bank, s)
    squares = table.max(axis=1) ** 2
    return np.array(
        [float(np.sum(squares[start:])) for start in range(squares.size + 1)]
    )


def _shift_moduli(traj: Trajectory, s: float, bank: FilterBank) -> tuple:
    """(delta, sup_{|t-t'| <= delta} ||u(t) - u(t')||_{H^s}) on the dyadic lag ladder."""
    # one pass over the pairs (i, i + shift) up to the top lag; sqrt(TAU * .)
    # is monotone, so the largest squared distance per shift gives the modulus
    spectra = _spectra(traj, bank)
    weight = (1.0 + frequencies(traj.grid_size) ** 2) ** s
    m = len(spectra)
    ladder = [1 << k for k in range((m - 1).bit_length())]
    widest = [
        max(
            float(np.sum(weight * np.abs(spectra[i] - spectra[i + shift]) ** 2))
            for i in range(m - shift)
        )
        for shift in range(1, ladder[-1] + 1)
    ]
    running = np.sqrt(TAU * np.maximum.accumulate(widest))
    return tuple((float(lag * traj.dt), float(running[lag - 1])) for lag in ladder)


@dataclass(frozen=True)
class TimeContinuityReport:
    """Block tails and time-shift moduli backing the continuity-in-time check.

    ``tails`` is :func:`block_sup_tails`; ``moduli`` pairs each delta of the
    ladder with sup_{|t-t'| <= delta} ||u(t) - u(t')||_{H^s}.  The ladder
    visits every pair of time nodes, so it is computed on first access and
    callers that need only the tails do not pay for it.
    """

    tails: np.ndarray
    _ladder: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def moduli(self) -> tuple:
        return self._ladder()

    def to_dict(self) -> dict:
        return {
            "tails": [float(v) for v in self.tails],
            "moduli": [
                {"delta": d, "modulus": m} for d, m in self.moduli
            ],
        }


def time_continuity_modulus(
    traj: Trajectory, s: float, bank: FilterBank
) -> TimeContinuityReport:
    """Square-summable block sups plus a time-shift modulus ladder.

    Requires mu = inf: the block tails control the uniform-in-time H^s
    error of cutting high blocks, and the modulus ladder exhibits the
    continuity that low-order time regularity upgrades to.
    """
    if not math.isinf(traj.mu):
        raise ValueError("time-continuity diagnostics require mu = inf")
    return TimeContinuityReport(
        tails=block_sup_tails(traj, s, bank),
        _ladder=lambda: _shift_moduli(traj, s, bank),
    )


def trajectory_sup_l2_space(grid_size: int, time_steps: int) -> PseudoNormedSpace:
    """Trajectories under sup-in-time quadrature L2, as a pseudo-normed space."""
    from .littlewood_paley import grid_l2_norm

    def zero() -> Trajectory:
        times = np.linspace(0.0, 1.0, time_steps + 1)
        return Trajectory(
            times=times,
            states=tuple(GridFunction.zeros(grid_size) for _ in times),
        )

    return PseudoNormedSpace(
        label=f"sup-time-L2({grid_size})",
        eval=lambda traj: max(grid_l2_norm(state) for state in traj.states),
        element_kind="time_trajectory",
        zero=zero,
    )


def sinusoid_datum(grid_size: int, alpha: float, beta: float = 0.0) -> GridFunction:
    """The two-mode family alpha sin(x) + beta sin(2x)."""
    return GridFunction.from_function(
        lambda x: alpha * np.sin(x) + beta * np.sin(2.0 * x), grid_size
    )


# --- trajectory serialization ----------------------------------------------------

def save_trajectory(
    directory, traj: Trajectory, flow_kind: str, config_hash: str
) -> None:
    """Write states as binary grid files plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "times": [float(t) for t in traj.times],
        "grid_size": traj.grid_size,
        "flow_kind": flow_kind,
        "mu": "inf" if math.isinf(traj.mu) else traj.mu,
        "config_hash": config_hash,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for index, state in enumerate(traj.states):
        save_grid_function(os.path.join(directory, f"state_{index:04d}.gfn"), state)


def load_trajectory(directory) -> Trajectory:
    with open(os.path.join(directory, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    times = np.asarray(manifest["times"], dtype=float)
    mu = manifest.get("mu", "inf")
    mu = math.inf if mu == "inf" else float(mu)
    states = tuple(
        load_grid_function(os.path.join(directory, f"state_{index:04d}.gfn"))
        for index in range(times.size)
    )
    return Trajectory(times=times, states=states, mu=mu)
