"""Concrete flows on the torus and the sequence maps they induce.

Two flows instantiate the abstract maps that the verification engine
consumes: linear transport (solved exactly by a spectral phase shift) and
inviscid Burgers before shock formation (solved by the method of
characteristics, with an independent pseudospectral RK4 solver kept as a
cross-check oracle).  Each flow maps a list of data on one grid to the list
of their trajectories, and a trajectory holds its time slices as real-FFT
half spectra.

A flow becomes a sequence map by conjugation with the dyadic
decompose/reconstruct pair: reconstruct the initial datum from its blocks,
and keep one scalar per block of the solution, its sup-in-time L2 norm,
summed by Plancherel, so no slice is decomposed.  An image is that row of
block norms, a float array.  Transport conserves every block norm, so its
images are the data's own block norms, without a trajectory; Burgers is
solved in groups of data and its images are summed from the real-FFT half
spectra of the time slices.  A caller that needs the trajectory of a
datum it maps names the datum's key, and the map hands over the
trajectory of the solve that made its image, so no datum is solved
twice.  Chemin-Lerner norms (take each block's sup in time first, then
sum blocks in l^2) and the block tails behind the continuity-in-time
check live here as well.
"""
from __future__ import annotations

import copy
import json
import math
import os
from typing import Callable

import numpy as np

from .dyadic import _frozen, _read_only
from .littlewood_paley import (
    TAU,
    FilterBank,
    GridFunction,
    GridMismatchError,
    _check_grid_size,
    _weighted_energy,
    frequencies,
    reconstruct,
    save_grid_function,
)

__all__ = [
    "Trajectory",
    "FlowConfig",
    "ShockMarginError",
    "CharacteristicSolveError",
    "TrigInterpolant",
    "shock_time",
    "transport_flow",
    "burgers_flow",
    "burgers_spectral_reference",
    "make_flow",
    "block_time_norms",
    "chemin_lerner_norm",
    "sup_time_sobolev_norm",
    "flow_as_sequence_map",
    "time_continuity_modulus",
    "sinusoid_datum",
    "save_trajectory",
]


class ShockMarginError(ValueError):
    """Requested final time is not safely below the first shock time."""


class CharacteristicSolveError(RuntimeError):
    """A characteristic foot failed to converge within the iteration cap."""


class Trajectory:
    """States of a flow on a uniform time grid.

    ``spectra`` holds the states as their read-only (m, N/2 + 1) real-FFT
    half spectra, row i at ``times[i]``, N = 2 (W - 1) for width W, with
    real mode-0 and Nyquist entries as a real grid function has.  A
    read-only complex array whose buffer's owner is read-only too is kept
    as given; any other input is copied.  ``samples``, the (m, N) grid
    values, come from one inverse real FFT on each access and are never
    kept; ``states`` is the tuple of their rows as GridFunctions.
    Instances are immutable.
    """

    __slots__ = ("times", "spectra")

    def __init__(self, times, spectra):
        times = np.array(times, dtype=float)
        spectra = _read_only(spectra, complex)
        if spectra.ndim != 2 or times.ndim != 1 or times.size != spectra.shape[0]:
            raise ValueError("one state per time node is required")
        if times.size < 2:
            raise ValueError("a trajectory needs at least two time nodes")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
            raise ValueError("time nodes must be uniform")
        _check_grid_size(2 * (spectra.shape[1] - 1))
        if not np.all(np.isfinite(spectra)):
            raise ValueError("grid values must be finite")
        if np.any(spectra[:, [0, -1]].imag):
            raise ValueError("mode-0 and Nyquist entries of real-FFT spectra must be real")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "spectra", spectra)

    def __setattr__(self, name, value):
        raise AttributeError("Trajectory is immutable")

    @property
    def samples(self) -> np.ndarray:
        return _frozen(np.fft.irfft(self.spectra, n=self.grid_size, axis=1))

    @property
    def states(self) -> tuple:
        return tuple(GridFunction(row) for row in self.samples)

    @property
    def grid_size(self) -> int:
        return 2 * (self.spectra.shape[1] - 1)


class FlowConfig:
    """Grid, horizon, time steps, flow kind and transport speed of one flow; immutable."""

    __slots__ = ("grid_size", "T", "time_steps", "flow_kind", "transport_speed")

    def __init__(self, grid_size: int, T: float, time_steps: int, flow_kind: str,
                 transport_speed: float = 1.0):
        if flow_kind not in ("transport", "burgers"):
            raise ValueError(f"flow kind must be 'transport' or 'burgers', got {flow_kind!r}")
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"horizon T must be finite and > 0, got {T}")
        steps = time_steps
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ValueError(f"time_steps must be a positive integer, got {steps!r}")
        for name, value in zip(self.__slots__, (grid_size, T, steps, flow_kind, transport_speed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FlowConfig is immutable")

    def time_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.time_steps + 1)


# Taylor-table interpolant (see TrigInterpolant): oversampling factor sigma
# and expansion order P, so the remainder is below
# (pi / (2 sigma))^(P+1) / (P+1)! ~ 2.4e-14 of sum |c_k|.
_OVERSAMPLE = 8
_TAYLOR_ORDER = 9

# 2*pi = _TAU_HI + _TAU_LO to about 1e-23.  _TAU_HI keeps 26 significant bits,
# so node * _TAU_HI / M is exact for |node| < 2^27 (at least 1024 periods up
# to N = 16384); _TAU_LO also carries the 2.449e-16 by which the double TAU
# falls short of 2*pi.
_TAU_HI = math.ldexp(math.floor(math.ldexp(TAU, 23)), -23)
_TAU_LO = (TAU - _TAU_HI) + 2.4492935982947064e-16


def _oversampled(u: GridFunction, m: int, orders) -> np.ndarray:
    """Derivatives of u's trigonometric interpolant on m uniform nodes.

    Row i holds the derivative of order ``orders[i]`` at the nodes
    2 pi j / m, j = 0 .. m-1, for m a multiple of the grid size, all from
    one batched inverse real FFT.  The Nyquist mode enters the zero-padded
    spectrum at half weight, so it stays the pure cosine of the
    interpolant instead of becoming a full complex mode.
    """
    n = u.grid_size
    spectrum = np.fft.rfft(u.values) * (m / n)
    spectrum[-1] = 0.5 * spectrum[-1].real
    k = frequencies(n)
    multipliers = np.array([(1, 1j, -1, -1j)[r % 4] * k**r for r in orders])
    return np.fft.irfft(multipliers * spectrum, n=m, axis=-1)


# 1/r! for the terms of the Taylor sums, r = 0 .. P
_INVERSE_FACTORIALS = np.array([1.0 / math.factorial(r) for r in range(_TAYLOR_ORDER + 1)])


class TrigInterpolant:
    """Band-limited interpolant of grid samples, exact at the nodes.

    Evaluates the symmetric trigonometric polynomial through the samples
    (the Nyquist mode enters as a pure cosine) and its derivative at
    arbitrary points from precomputed Taylor tables (Anderson & Dahleh,
    SISC 1996).  Construction evaluates the interpolant and its first
    P + 1 = 10 derivatives on a grid of M = sigma N nodes, sigma = 8, with
    one batched inverse FFT, and stores one contiguous (M, P + 2) table of
    the raw derivatives: row m holds u^(r)(x_m) for r = 0 .. P + 1.  A call
    finds the nearest fine node x_n, gathers its row, and sums the two
    Taylor series sum_r u^(r) dy^r / r! and sum_r u^(r+1) dy^r / r!,
    r = 0 .. P, in dy = y - x_n, |dy| <= pi / M, each with one row-wise
    contraction that applies the 1/r! after the gather; the remainder is at
    most (pi / (2 sigma))^(P+1) / (P+1)! ~ 2.4e-14 times sum |c_k| (times
    N/2 for the derivative).  dy is reduced in two parts,
    (y - n h_hi) - n h_lo with h_hi + h_lo = 2 pi / M and n h_hi exact, so
    its error stays a rounding of dy itself rather than |y| eps, which the
    derivative N/2 would amplify.

    ``data`` is a list of G GridFunctions on one grid (a stack), whose
    tables lie one after another in one (G M, P + 2) table.  The
    interpolant takes points of shape (G, ...), row g evaluated on datum g,
    and :meth:`rows` restricts it to a subset of the data without copying
    the table.

    A caller that evaluates again at nearby points can pass a list as
    ``gathered``: an empty list receives the (fine node, table rows) pair
    of the call's points, shaped like them, and a filled one is reused,
    its rows gathered again only where a point moved to another fine node
    and updated in place.  The rows are exact table rows, so reusing them
    leaves every value bit for bit the same.
    """

    def __init__(self, data):
        m = _OVERSAMPLE * data[0].grid_size
        self.table = np.empty((len(data) * m, _TAYLOR_ORDER + 2))
        for start, datum in zip(range(0, self.table.shape[0], m), data):
            self.table[start : start + m] = _oversampled(datum, m, range(_TAYLOR_ORDER + 2)).T
        self.nodes_per_datum = m
        self.offsets = np.arange(len(data)) * m  # first table row of each datum
        self.nodes_per_radian = m / TAU
        self.step_hi = _TAU_HI / m
        self.step_lo = _TAU_LO / m

    def rows(self, index) -> "TrigInterpolant":
        """The interpolant of the data ``index`` of a stack, sharing its table."""
        view = copy.copy(self)
        view.offsets = self.offsets[index]
        return view

    def _table_rows(self, node: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Table rows of the fine nodes ``node`` (rounded floats) of data at ``offsets``."""
        return node.astype(np.int64) % self.nodes_per_datum + offsets

    def _taylor(self, y: np.ndarray, derivative_too: bool, gathered=None):
        if y.shape[:1] != self.offsets.shape:
            raise ValueError(f"points of shape {y.shape} for {self.offsets.size} data")
        flat = y.ravel()
        node = np.rint(flat * self.nodes_per_radian)
        dy = (flat - node * self.step_hi) - node * self.step_lo
        per_datum = flat.size // self.offsets.size
        if gathered:
            kept, raw = gathered[0].reshape(-1), gathered[1].reshape(flat.size, -1)
            moved = np.flatnonzero(kept != node)
            if moved.size:
                kept[moved] = node[moved]
                rows = self._table_rows(node[moved], self.offsets[moved // per_datum])
                raw[moved] = self.table.take(rows, axis=0)
        else:
            raw = self.table.take(self._table_rows(node, np.repeat(self.offsets, per_datum)), axis=0)
            if gathered is not None:
                gathered += [node.reshape(y.shape), raw.reshape(*y.shape, -1)]
        powers = np.empty((_TAYLOR_ORDER + 1, flat.size))
        powers[0] = 1.0
        powers[1] = dy
        for r in range(2, _TAYLOR_ORDER + 1):
            np.multiply(powers[r - 1], dy, out=powers[r])
        # sums of (u^(r) * 1/r!) * dy^r and (u^(r+1) * 1/r!) * dy^r: the roundings
        # of a table of u^(r)/r!, from 11 table columns instead of 20
        value = np.einsum("ir,r,ri->i", raw[:, :-1], _INVERSE_FACTORIALS, powers)
        if not derivative_too:
            return value.reshape(y.shape), None
        deriv = np.einsum("ir,r,ri->i", raw[:, 1:], _INVERSE_FACTORIALS, powers)
        return value.reshape(y.shape), deriv.reshape(y.shape)

    def __call__(self, y: np.ndarray, gathered=None) -> np.ndarray:
        value, _ = self._taylor(np.asarray(y, dtype=float), False, gathered)
        return value

    def derivative(self, y: np.ndarray) -> np.ndarray:
        _, deriv = self._taylor(np.asarray(y, dtype=float), True)
        return deriv

    def value_and_derivative(self, y: np.ndarray, gathered=None):
        return self._taylor(np.asarray(y, dtype=float), True, gathered)


_PEAK_REFINE = 64  # dense samples per grid cell for global extrema


def _torus_peak(samples: np.ndarray) -> float:
    """Max of a smooth periodic function from dense uniform samples.

    Sharpens the discrete argmax with one parabolic fit through it and its
    two neighbours.
    """
    i = int(np.argmax(samples))
    f0 = samples[i]
    f_minus = samples[(i - 1) % samples.size]
    f_plus = samples[(i + 1) % samples.size]
    curvature = f_plus + f_minus - 2.0 * f0
    if curvature < 0.0:
        return float(f0 - (f_plus - f_minus) ** 2 / (8.0 * curvature))
    return float(f0)


def shock_time(u0: GridFunction) -> tuple[float, float]:
    """(first characteristic crossing time, max |u0| over the torus).

    The crossing time is 1/max(0, -min u0') (inf if none).  Both extrema
    are taken over the whole torus, not just the grid nodes: the steepest
    point and the peak of the datum usually lie between nodes, so the
    band-limited interpolant and its slope are upsampled in one pass and
    each discrete extremum sharpened with one parabolic fit, accurate to
    well below 1e-12 for smooth data.
    """
    dense = _oversampled(u0, _PEAK_REFINE * u0.grid_size, [1, 0])
    slope_min = -_torus_peak(-dense[0])
    time = math.inf if slope_min >= 0.0 else 1.0 / (-slope_min)
    return time, max(0.0, _torus_peak(dense[1]), _torus_peak(-dense[1]))


def _stack(data: list) -> np.ndarray:
    """The (G, N) values of a list of data on one grid."""
    if len({u.grid_size for u in data}) > 1:
        raise GridMismatchError("all data of a batch must share one grid size")
    return np.stack([u.values for u in data])


def transport_flow(data: list, cfg: FlowConfig) -> list:
    """Transport at speed ``cfg.transport_speed``, solved by an exact spectral phase shift.

    Every Sobolev norm is conserved along the trajectory since the phase
    factor has modulus one.  The trajectory holds its states as spectra,
    the datum's half spectrum times the phase table exp(-i k speed t) over
    the time nodes t (rows) and the modes k = 0 .. N/2, and never leaves
    Fourier space; its grid values come from one inverse real FFT when
    read.

    ``data`` is a list of data on one grid; the result is the list of their
    trajectories, the spectra from one batched real FFT, all sharing one
    table built by the call.
    """
    spectra = np.fft.rfft(_stack(data), axis=1)
    times = cfg.time_nodes()
    speed = float(cfg.transport_speed)
    phase = np.exp(-1j * frequencies(data[0].grid_size) * speed * times[:, None])
    # The Nyquist column keeps only its real part, cos(N/2 speed t): on the
    # grid the shifted Nyquist mode is that multiple of cos(N x / 2), since
    # sin(N x / 2) vanishes at every node.  A real Nyquist entry times this
    # column stays real, so the shifted spectra are the half spectra of the
    # shifted samples.
    phase[:, -1] = phase[:, -1].real
    return [Trajectory(times, _frozen(spectrum * phase)) for spectrum in spectra]


def _characteristic_feet(interp: TrigInterpolant, x, t, seed, half_width):
    """Feet y of x = y + t u0(y) at time t for every datum of a stack.

    Safeguarded Newton from ``seed`` inside the bracket x +- t half_width
    (one half width per datum), the residual checked after every
    evaluation of the interpolant.  A datum settles, and stops iterating,
    once all its nodes meet the 1e-12 gate, so its feet never depend on the
    other data of the stack.  Returns the feet, u0 there, and u0' at each
    datum's last Newton point.
    """
    lo = x - t * half_width
    hi = x + t * half_width
    y = np.clip(seed, lo, hi)
    size = y.shape[0]
    live = np.arange(size)  # the data still iterating, as rows of the stack
    feet = values = slopes = None  # filled once a datum settles ahead of the rest
    gathered = []  # the table rows at y, gathered again only where y leaves its node
    value, deriv = interp.value_and_derivative(y, gathered)
    for half_step in range(200):
        g = y + t * value - x
        done = (np.abs(g) <= 1e-12).all(axis=1)
        if done.any():
            if done.all() and live.size == size:
                return y, value, deriv
            if feet is None:
                feet, values, slopes = (np.empty_like(seed) for _ in range(3))
            rows = live[done]
            feet[rows], values[rows], slopes[rows] = y[done], value[done], deriv[done]
            if done.all():
                return feet, values, slopes
            live, interp = live[~done], interp.rows(~done)
            y, lo, hi, g, deriv = (a[~done] for a in (y, lo, hi, g, deriv))
            gathered = [a[~done] for a in gathered]
        if half_step % 2:
            value, deriv = interp.value_and_derivative(y, gathered)
            continue
        # deriv is at y: one safeguarded Newton step, keeping the bracket
        # (g is increasing in y pre-shock)
        hi = np.where(g > 0.0, np.minimum(hi, y), hi)
        lo = np.where(g < 0.0, np.maximum(lo, y), lo)
        slope = 1.0 + t * deriv
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = y - g / slope
        fallback = 0.5 * (lo + hi)
        # closed bracket: a sub-ulp correction lands on a bracket end
        usable = (slope > 0.0) & (newton >= lo) & (newton <= hi)
        y = np.where(usable, newton, fallback)
        value = interp(y, gathered)
    residual = np.abs(y + t * value - x)
    datum, node = np.unravel_index(int(np.argmax(residual)), residual.shape)
    raise CharacteristicSolveError(
        f"characteristic solve stalled at datum {live[datum]}, node {node}, time {t}"
    )


# relative allowance on the pre-shock margin T <= 0.9 T* (burgers_flow)
_MARGIN_ALLOWANCE = 1e-12


def burgers_flow(data: list, cfg: FlowConfig) -> list:
    """Inviscid Burgers before shocks, solved by characteristics.

    For each grid node x and time t the foot y of the characteristic solves
    x = y + t u0(y); the solution value is u0(y).  The scalar equation is
    solved for the whole grid at once by safeguarded Newton iteration
    (bisection fallback inside the bracket x +- t (2 max|u0| + 1e-9), with
    max|u0| taken over the whole torus, so the bracket always contains the
    root), to residual 1e-12 per node.  Each step is seeded from the foot's
    ODE dy/dt = -u0(y) / (1 + t u0'(y)): a cubic Hermite extrapolation
    through the last two feet and their slopes (linear on the first step).
    Requires the horizon to sit below the shock time with a 10 percent
    margin, T <= 0.9 T* (1 + 1e-12).  The relative allowance of 1e-12
    covers the rounding of T*: its parabolic peak fit is not
    scale-covariant at rounding level, so a horizon set at the margin from
    the T* of a rescaled datum can read up to about 3.5e-14 above it.

    ``data`` is a list of G data on one grid; the result is the list of
    their trajectories: one Newton sweep over the (G, N) feet, served by
    one stacked interpolant.  Each datum stops iterating once it has
    converged, so its trajectory is bit for bit its solo solve.  Each
    trajectory holds the half spectra of its solved samples, from one real
    FFT per datum.
    """
    stack = _stack(data)
    half_width = np.empty((len(data), 1))
    for index, datum in enumerate(data):
        t_star, peak = shock_time(datum)
        if not cfg.T <= 0.9 * t_star * (1.0 + _MARGIN_ALLOWANCE):
            raise ShockMarginError(
                f"horizon T={cfg.T} exceeds the pre-shock margin 0.9 T* = {0.9 * t_star} "
                f"(relative allowance {_MARGIN_ALLOWANCE:g}) of datum {index}"
            )
        half_width[index] = 2.0 * peak + 1e-9
    interp = TrigInterpolant(data)
    x = data[0].nodes
    times = cfg.time_nodes()
    samples = [np.empty((times.size, x.size)) for _ in data]
    for block, values in zip(samples, stack):
        block[0] = values
    y = x
    slope_y = -stack  # dy/dt of every foot at t = 0
    y_prev = slope_prev = None
    for step, (t_prev, t) in enumerate(zip(times[:-1], times[1:]), start=1):
        h = t - t_prev
        if y_prev is None:
            seed = y + h * slope_y
        else:
            seed = 5.0 * y_prev - 4.0 * y + h * (2.0 * slope_prev + 4.0 * slope_y)
        y_prev, slope_prev = y, slope_y
        y, value, deriv = _characteristic_feet(interp, x, t, seed, half_width)
        for block, values in zip(samples, value):
            block[step] = values
        # the derivative is from the last Newton point, close enough for a seed
        slope_y = -value / (1.0 + t * deriv)
    return [Trajectory(times, _frozen(np.fft.rfft(block, axis=1))) for block in samples]


def burgers_spectral_reference(
    u0: GridFunction,
    times: np.ndarray,
    steps_per_interval: int = 32,
) -> Trajectory:
    """Independent pseudospectral RK4 solver for inviscid Burgers, used as an oracle.

    Integrates u_t + (u^2/2)_x = 0 in spectral space with a 2/3-rule
    dealiased product and fixed-step RK4 between the requested time nodes.
    Deliberately shares no code with the characteristic solver.
    """
    n = u0.grid_size
    freqs = frequencies(n)
    keep = freqs <= n // 3
    ik = 1j * freqs

    def rhs(u_hat):
        u_phys = np.fft.irfft(u_hat, n=n)
        flux_hat = np.fft.rfft(0.5 * u_phys * u_phys) * keep
        return -ik * flux_hat

    times = np.asarray(times, dtype=float)
    u_hat = np.fft.rfft(u0.values)
    spectra = np.empty((times.size, freqs.size), complex)
    spectra[0] = u_hat
    for step, (left, right) in enumerate(zip(times[:-1], times[1:]), start=1):
        dt = (right - left) / steps_per_interval
        for _ in range(steps_per_interval):
            k1 = rhs(u_hat)
            k2 = rhs(u_hat + 0.5 * dt * k1)
            k3 = rhs(u_hat + 0.5 * dt * k2)
            k4 = rhs(u_hat + dt * k3)
            u_hat = u_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        spectra[step] = u_hat
    return Trajectory(times, _frozen(spectra))


def make_flow(cfg: FlowConfig) -> Callable:
    """The configured flow as a single-argument callable on initial data.

    It maps a list of data on one grid to the list of their trajectories
    (see :func:`transport_flow` and :func:`burgers_flow`).
    """
    if cfg.flow_kind == "transport":
        return lambda data: transport_flow(data, cfg)
    return lambda data: burgers_flow(data, cfg)


# --- time-frequency norms ------------------------------------------------------

def _check_grid(traj: Trajectory, bank: FilterBank):
    if traj.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"trajectory grid {traj.grid_size} does not match bank {bank.grid_size}"
        )


def _block_l2_table(traj: Trajectory, bank: FilterBank, s: float) -> np.ndarray:
    """Matrix [j, t] of ||Delta_j u(t)||_{H^s} over blocks and time nodes."""
    _check_grid(traj, bank)
    sobolev_weight = (1.0 + frequencies(bank.grid_size) ** 2) ** s
    row_weights = bank.multipliers**2 * sobolev_weight  # (j, xi)
    return np.sqrt(_weighted_energy(traj.spectra, row_weights))


def block_time_norms(traj: Trajectory, bank: FilterBank, s: float = 0.0) -> np.ndarray:
    """Per-block scalars: the sup-in-time H^s norm of each dyadic block."""
    return _block_l2_table(traj, bank, s).max(axis=1)


def chemin_lerner_norm(traj: Trajectory, s: float, bank: FilterBank) -> float:
    """Take each block's sup in time first, then sum blocks in l^2.

    Stronger than the sup-in-time H^s norm (Minkowski, up to the
    almost-orthogonality constant sqrt(3)).
    """
    blocks = block_time_norms(traj, bank, s)
    return float(np.sqrt(np.sum(blocks**2)))


def sup_time_sobolev_norm(traj: Trajectory, s: float) -> float:
    """sup over the time nodes of t -> ||u(t)||_{H^s}."""
    weight = (1.0 + frequencies(traj.grid_size) ** 2) ** s
    return float(np.sqrt(_weighted_energy(traj.spectra, weight)).max())


# --- sequence maps ---------------------------------------------------------------

# Feet per interpolant call of a grouped characteristic solve: the sequence
# map hands the Burgers flow max(1, _FEET_PER_SWEEP // N) data at a time.
_FEET_PER_SWEEP = 2048


def flow_as_sequence_map(
    cfg: FlowConfig, bank: FilterBank, kept: dict | None = None
) -> Callable[[list], list]:
    """Conjugate the configured flow with decompose/reconstruct into a sequence map.

    The map takes a list of block sequences of initial data, rebuilds the
    data, and returns the list of their images, each a read-only (J+1,)
    row of block norms as :func:`block_time_norms` gives them for the
    trajectory of :func:`make_flow`, one scalar per block of the solution:
    the sup-in-time L2 norm of that block.

    Transport never raises a block norm above its value at t = 0 (its
    multiplier has modulus one, the Nyquist mode's cosine at most one), so
    no trajectory is built: the images are the data's block norms, rows of
    one array summed by Plancherel from one real FFT of the whole request.
    Burgers runs the flow on the data in groups of max(1, 2048 // N), so
    one Newton sweep covers about 2048 feet and only one group's
    trajectories are held at a time.

    ``kept`` is a caller's dict from sequence keys to ``None``: when the
    map solves a sequence whose key it holds, it stores the trajectory of
    the rebuilt datum there, so a caller that needs a trajectory reads it
    from the solve that made the image.  A Burgers trajectory is the one
    its group's solve made; transport builds only the kept data's
    trajectories, one flow call each.

    The engine measures an image difference as
    |‖Delta_j Phi(v)‖ - ‖Delta_j Phi(w)‖|, which is at most
    ‖Delta_j(Phi(v) - Phi(w))‖, and holds the ball on which the map is
    verified (see :func:`besovflow.engine.verify_map`).
    """
    if cfg.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"config grid {cfg.grid_size} does not match bank {bank.grid_size}"
        )
    flow = make_flow(cfg)
    kept = {} if kept is None else kept
    transport = cfg.flow_kind == "transport"
    group = max(1, _FEET_PER_SWEEP // cfg.grid_size)

    def phi(sequences: list) -> list:
        images = []
        step = max(1, len(sequences)) if transport else group
        for start in range(0, len(sequences), step):
            chunk = sequences[start : start + step]
            data = [reconstruct(f, bank) for f in chunk]
            if transport:
                energies = _weighted_energy(np.fft.rfft(_stack(data), axis=1), bank.multipliers**2)
                images.extend(_frozen(np.sqrt(energies.T, order="C")))
                for f, datum in zip(chunk, data):
                    if kept and f.key in kept:
                        (kept[f.key],) = flow([datum])
            else:
                # traj outlives the loop, so the next group's solve reuses
                # the heap this group's arrays leave behind
                for f, traj in zip(chunk, flow(data)):
                    images.append(_frozen(block_time_norms(traj, bank)))
                    if kept and f.key in kept:
                        kept[f.key] = traj
        return images

    return phi


# --- time continuity ------------------------------------------------------------

def time_continuity_modulus(traj: Trajectory, s: float, bank: FilterBank) -> np.ndarray:
    """Tails sum_{j >= N} sup_t ||Delta_j u(t)||_{H^s}^2 for N = 0 .. J+1.

    Nonincreasing in N and zero once N passes the band limit.  The tail at
    N bounds, up to the almost-orthogonality constant, the square of the
    uniform-in-time H^s size of the blocks j >= N, so it bounds the
    high-frequency part of the modulus of continuity of t -> u(t) in H^s.
    """
    squares = block_time_norms(traj, bank, s) ** 2
    return np.array(
        [float(np.sum(squares[start:])) for start in range(squares.size + 1)]
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
        "mu": "inf",  # the one time norm; the field stays until a schema bump
        "config_hash": config_hash,
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for index, state in enumerate(traj.states):
        save_grid_function(os.path.join(directory, f"state_{index:04d}.gfn"), state)
