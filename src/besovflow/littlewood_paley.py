"""Dyadic filter banks and Littlewood-Paley analysis on the 1-D torus.

The domain is the torus of length 2*pi sampled on a uniform power-of-two
grid, so frequencies are the integers xi with -N/2 < xi <= N/2.  The filter
bank consists of a smooth radial low-pass profile psi with

    psi = 1 on |xi| <= 3/4,    psi = 0 on |xi| >= 1,    0 <= psi <= 1,

the band profile phi(xi) = psi(xi/2) - psi(xi) supported in
{3/4 <= |xi| <= 2}, and "fattened" companions psi~(xi) = psi(xi/2) and
phi~(xi) = psi(xi/4) - psi(4 xi) that equal 1 on the supports of psi and
phi.  Dyadic blocks are

    Delta_0 = psi(D),    Delta_j = phi(2^{-(j-1)} D)  for j >= 1,

which telescope to an exact partition of unity on the whole discrete
frequency set, so decompose/reconstruct invert each other to rounding.

psi is built by mollifying the indicator of {|xi| <= 7/8} with a compactly
supported bump of radius 1/8 (profile exp(-1/(1-t^2))), evaluated by a fixed
64-node Gauss-Legendre rule on the ramp 3/4 < |xi| < 1 only.  The whole bank
is sampled from one stack of dilations psi(2^e |xi|) on the integer
frequencies returned by :func:`frequencies`, the one frequency grid that the
rest of the package shares.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dyadic import DyadicSequence, dyadic_norm
from .pseudonorm import PseudoNormedSpace

__all__ = [
    "TAU",
    "GridFunction",
    "GridMismatchError",
    "SpectralCoeffs",
    "spectrum",
    "frequencies",
    "FilterBank",
    "build_filters",
    "smooth_cutoff",
    "band_profile",
    "partition_of_unity",
    "almost_orthogonality",
    "decompose",
    "reconstruct",
    "apply_block",
    "grid_l2_norm",
    "lp_norm",
    "grid_l2_space",
    "sobolev_norm",
    "bessel_potential",
    "besov_norm",
    "reconstruction_stability_ratio",
    "random_grid_function",
    "save_grid_function",
    "save_grid_function_csv",
    "load_grid_function",
]

TAU = 2.0 * math.pi

GRID_MAGIC = b"GFN1\x00\x00\x00\x00"


class GridMismatchError(ValueError):
    """Grid sizes of interacting objects disagree."""


def _check_grid_size(n: int):
    """Reject grid sizes that are not a power of two of at least 8."""
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples of a periodic function on a uniform torus grid.

    The grid size must be a power of two, at least 8; the domain length is
    fixed at 2*pi.  Instances are immutable.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        _check_grid_size(values.size)
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def domain_length(self) -> float:
        return TAU

    @property
    def dx(self) -> float:
        return TAU / self.values.size

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dx

    @classmethod
    def zeros(cls, grid_size: int) -> "GridFunction":
        return cls(np.zeros(grid_size))

    @classmethod
    def from_function(cls, fn, grid_size: int) -> "GridFunction":
        x = np.arange(grid_size) * (TAU / grid_size)
        return cls(fn(x))

    def _check(self, other: "GridFunction"):
        if self.grid_size != other.grid_size:
            raise GridMismatchError(
                f"grid sizes differ: {self.grid_size} vs {other.grid_size}"
            )

    def __add__(self, other):
        self._check(other)
        return GridFunction(self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return GridFunction(self.values - other.values)

    def __neg__(self):
        return GridFunction(-self.values)

    def __mul__(self, c):
        return GridFunction(self.values * float(c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.grid_size == other.grid_size and bool(
            np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class SpectralCoeffs:
    """Fourier coefficients c_xi with u(x) = sum_xi c_xi exp(i xi x).

    Stored in FFT layout; ``frequencies`` gives the integer frequency of
    each slot.  Coefficients of a real grid function are Hermitian.
    """

    coeffs: np.ndarray

    @property
    def grid_size(self) -> int:
        return self.coeffs.size

    @property
    def frequencies(self) -> np.ndarray:
        return frequencies(self.coeffs.size).astype(int)


@lru_cache(maxsize=None)
def frequencies(n: int) -> np.ndarray:
    """Integer frequency of each FFT slot of an n-point grid, as floats.

    Cached per grid size and read-only, since every caller shares the array.
    """
    freqs = np.rint(np.fft.fftfreq(n, 1.0 / n))
    freqs.setflags(write=False)
    return freqs


def spectrum(u: GridFunction) -> SpectralCoeffs:
    return SpectralCoeffs(np.fft.fft(u.values) / u.grid_size)


# --- radial filter profiles -------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _bump(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _bump_tail(a: np.ndarray) -> np.ndarray:
    """Integral of the bump over [a, 1] for each entry of a 1-D array a."""
    half_width = 0.5 * (1.0 - a)
    x = half_width[:, None] * _GL_NODES + (0.5 * (a + 1.0))[:, None]
    return half_width * np.sum(_GL_WEIGHTS * _bump(x), axis=1)


_BUMP_TOTAL = float(_bump_tail(np.array([-1.0]))[0])


def smooth_cutoff(xi):
    """The radial low-pass profile psi, evaluated at scalar or array xi."""
    t = np.abs(np.asarray(xi, dtype=float))
    out = np.where(t <= 0.75, 1.0, 0.0)
    ramp = (t > 0.75) & (t < 1.0)
    # indicator(|.| <= 7/8) mollified by the radius-1/8 bump, clamped so the
    # plateau/support facts hold exactly in floating point; dilated grids
    # repeat ramp points, so each distinct point is integrated once
    points, index = np.unique(t[ramp], return_inverse=True)
    values = np.clip(_bump_tail(8.0 * points - 7.0) / _BUMP_TOTAL, 0.0, 1.0)
    out[ramp] = values[index]
    if out.ndim == 0:
        return float(out)
    return out


def band_profile(xi):
    """The band profile phi(xi) = psi(xi/2) - psi(xi)."""
    return smooth_cutoff(np.asarray(xi) / 2.0) - smooth_cutoff(xi)


@dataclass(frozen=True)
class FilterBank:
    """Sampled dyadic multipliers for one grid size.

    ``psi``, ``phi``, ``psi_fat``, ``phi_fat`` are the radial profiles
    sampled at the integer frequencies 0..N/2.  ``multipliers`` holds the
    block multipliers Delta_j (rows j = 0..j_max, FFT frequency layout) and
    ``fat_multipliers`` the reconstruction companions.  ``j_max`` is the
    largest block index needed to resolve every grid frequency.
    """

    grid_size: int
    j_max: int
    psi: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    psi_fat: np.ndarray = field(repr=False)
    phi_fat: np.ndarray = field(repr=False)
    multipliers: np.ndarray = field(repr=False)
    fat_multipliers: np.ndarray = field(repr=False)


def build_filters(grid_size: int) -> FilterBank:
    """Build the dyadic filter bank for a power-of-two grid.

    Blocks run from 0 to j_max = log2(N); the last band is what makes the
    partition of unity exact up to the Nyquist frequency N/2, and with it
    the reconstruction identity on arbitrary grid data.
    """
    n = int(grid_size)
    _check_grid_size(n)
    j_max = n.bit_length() - 1
    # row e + j_max + 1 of the stack is P_e = psi(2^e |xi|), e = -(j_max+1)..2
    exponents = np.arange(-(j_max + 1), 3)
    stack = smooth_cutoff(np.ldexp(np.abs(frequencies(n)), exponents[:, None]))

    def dilation(e):
        return stack[e + j_max + 1]

    j = np.arange(1, j_max + 1)
    multipliers = np.vstack((dilation(0), dilation(-j) - dilation(1 - j)))
    fat = np.vstack((dilation(-1), dilation(-1 - j) - dilation(3 - j)))
    multipliers.setflags(write=False)
    fat.setflags(write=False)
    # radial views at xi = 0..N/2: the first half of rows 0 and 1
    half = n // 2 + 1
    return FilterBank(
        grid_size=n,
        j_max=j_max,
        psi=multipliers[0, :half],
        phi=multipliers[1, :half],
        psi_fat=fat[0, :half],
        phi_fat=fat[1, :half],
        multipliers=multipliers,
        fat_multipliers=fat,
    )


def partition_of_unity(bank: FilterBank) -> np.ndarray:
    """psi(xi) + sum_p phi(2^-p xi) at every grid frequency (FFT layout)."""
    return bank.multipliers.sum(axis=0)


def almost_orthogonality(bank: FilterBank) -> np.ndarray:
    """psi^2(xi) + sum_p phi^2(2^-p xi) at every grid frequency."""
    return (bank.multipliers**2).sum(axis=0)


def _check_bank(u: GridFunction, bank: FilterBank):
    if u.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"grid size {u.grid_size} does not match bank size {bank.grid_size}"
        )


def apply_block(u: GridFunction, j: int, bank: FilterBank) -> GridFunction:
    """Apply the dyadic block Delta_j.

    Not idempotent (the filters are not sharp), but an L2 contraction since
    every multiplier is bounded by 1.
    """
    _check_bank(u, bank)
    if not 0 <= j <= bank.j_max:
        raise ValueError(f"block index {j} outside 0..{bank.j_max}")
    coeffs = np.fft.fft(u.values)
    return GridFunction(np.fft.ifft(coeffs * bank.multipliers[j]).real)


def decompose(u: GridFunction, bank: FilterBank) -> DyadicSequence:
    """Split a grid function into its dyadic blocks (Delta_0 u, ..., Delta_jmax u).

    The blocks sum back to u exactly on the grid.
    """
    _check_bank(u, bank)
    blocks = np.fft.ifft(np.fft.fft(u.values) * bank.multipliers, axis=1).real
    return DyadicSequence(
        grid_l2_space(u.grid_size), tuple(GridFunction(row) for row in blocks)
    )


def reconstruct(f: DyadicSequence, bank: FilterBank) -> GridFunction:
    """Rebuild a grid function from dyadic blocks with the fattened filters.

    Because the fattened profiles equal 1 on the matching block supports,
    reconstruct(decompose(u)) returns u to rounding.
    """
    if f.support > bank.j_max + 1:
        raise ValueError(
            f"sequence support {f.support} exceeds bank blocks {bank.j_max + 1}"
        )
    for j, entry in enumerate(f.entries):
        if entry.grid_size != bank.grid_size:
            raise GridMismatchError(
                f"block {j} has grid size {entry.grid_size}, bank {bank.grid_size}"
            )
    if not f.entries:
        return GridFunction.zeros(bank.grid_size)
    blocks = np.array([entry.values for entry in f.entries])
    total = (np.fft.fft(blocks, axis=1) * bank.fat_multipliers[: f.support]).sum(axis=0)
    return GridFunction(np.fft.ifft(total).real)


# --- norms -------------------------------------------------------------------

def grid_l2_norm(u: GridFunction) -> float:
    """Quadrature L2 norm, exact for band-limited integrands (Plancherel)."""
    return math.sqrt(u.dx * float(np.sum(u.values**2)))


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L^p norm with uniform quadrature weights."""
    if math.isinf(p):
        return float(np.abs(u.values).max())
    if p < 1:
        raise ValueError("integrability p must be >= 1")
    return float((u.dx * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def grid_l2_space(grid_size: int) -> PseudoNormedSpace:
    """The grid-L2 base space for dyadic sequences of blocks."""
    return PseudoNormedSpace(
        label=f"L2(torus,{grid_size})",
        eval=grid_l2_norm,
        element_kind="grid_function",
        zero=lambda: GridFunction.zeros(grid_size),
    )


def sobolev_norm(u: GridFunction, s: float) -> float:
    """Sobolev norm of order s via the weight (1 + xi^2)^s on the spectrum.

    Normalized so that s = 0 reproduces the quadrature L2 norm exactly.
    """
    weights = (1.0 + frequencies(u.grid_size) ** 2) ** s
    return math.sqrt(TAU * float(np.sum(weights * np.abs(spectrum(u).coeffs) ** 2)))


def bessel_potential(u: GridFunction, s: float) -> GridFunction:
    """Apply the multiplier (1 + xi^2)^{s/2}."""
    coeffs = np.fft.fft(u.values)
    freqs = frequencies(u.grid_size)
    return GridFunction(np.fft.ifft(coeffs * (1.0 + freqs**2) ** (s / 2.0)).real)


def besov_norm(u: GridFunction, s: float, p: float, q: float, bank: FilterBank):
    """Blockwise Besov norm ( sum_j 2^{q j s} ||Delta_j u||_{L^p}^q )^{1/q}."""
    if p < 1:
        raise ValueError("integrability p must be >= 1")
    block_lp = np.array([lp_norm(block, p) for block in decompose(u, bank).entries])
    weighted = np.exp2(s * np.arange(block_lp.size)) * block_lp
    if math.isinf(q):
        return float(weighted.max())
    return float(np.sum(weighted**q) ** (1.0 / q))


def reconstruction_stability_ratio(
    f: DyadicSequence, bank: FilterBank, s: float
) -> float:
    """Measured ratio ||decompose(reconstruct(f))||_{s,1} / ||f||_{s,1}.

    Decompose-after-reconstruct is not the identity on sequences; this
    reports how much the round trip can grow the s-order block norm.
    """
    denom = dyadic_norm(f, (s, 1.0))
    if denom == 0.0:
        return 0.0
    round_trip = decompose(reconstruct(f, bank), bank)
    return dyadic_norm(round_trip, (s, 1.0)) / denom


def random_grid_function(
    rng: np.random.Generator,
    grid_size: int,
    max_mode: int | None = None,
    decay: float = 1.0,
) -> GridFunction:
    """Random real grid function with Gaussian spectrum and power-law decay.

    The Nyquist mode is left empty by default: its sine partner vanishes at
    the nodes, which makes that mode ambiguous under translation.
    """
    half = grid_size // 2
    top = half - 1 if max_mode is None else min(int(max_mode), half)
    # scales as Python floats: numpy's power can differ from them by an ulp
    scales = np.array([(1.0 + k) ** (-decay) for k in range(top + 1)])
    interior = max(0, min(top, half - 1))  # modes drawn as (real, imag) pairs
    half_spectrum = np.zeros(half + 1, dtype=complex)
    half_spectrum[0] = rng.standard_normal()
    pairs = rng.standard_normal(2 * interior).reshape(interior, 2)
    half_spectrum.real[1 : interior + 1] = pairs[:, 0] * scales[1 : interior + 1]
    half_spectrum.imag[1 : interior + 1] = pairs[:, 1] * scales[1 : interior + 1]
    if top == half:
        half_spectrum[half] = rng.standard_normal() * scales[half]
    return GridFunction(np.fft.irfft(half_spectrum, n=grid_size) * grid_size)


# --- file formats -------------------------------------------------------------

def save_grid_function(path, u: GridFunction) -> None:
    """Write the little-endian binary format: magic, uint64 size, float64 data."""
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<Q", u.grid_size))
        fh.write(u.values.astype("<f8").tobytes())


def save_grid_function_csv(path, u: GridFunction) -> None:
    """Write the CSV alternative: one ``index,value`` pair per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, v in enumerate(u.values):
            fh.write(f"{i},{v:.17g}\n")


def load_grid_function(path) -> GridFunction:
    """Read either the binary or the CSV grid-function format.

    A binary file must hold exactly the samples its header counts; a CSV
    file must list every index 0 .. N-1 exactly once, in any order.
    Anything else raises ``ValueError`` naming the file.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == GRID_MAGIC:
            size_field, payload = fh.read(8), fh.read()
            n = struct.unpack("<Q", size_field)[0] if len(size_field) == 8 else None
            if n is None or len(payload) < 8 * n:
                raise ValueError(f"truncated grid file: {path}")
            if len(payload) > 8 * n:
                raise ValueError(f"trailing bytes after {n} samples in grid file: {path}")
            return GridFunction(np.frombuffer(payload, dtype="<f8").astype(float))
    indices, samples = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            index_text, value_text = line.split(",")
            try:
                index = int(index_text)
            except ValueError:
                continue  # header line
            indices.append(index)
            samples.append(float(value_text))
    if not indices:
        raise ValueError(f"no samples found in {path}")
    n = len(indices)
    counts = np.bincount([i for i in indices if 0 <= i < n], minlength=n)
    if counts.max() > 1:
        raise ValueError(f"duplicate sample index {int(counts.argmax())} in {path}")
    if counts.min() == 0:
        raise ValueError(f"missing sample index {int(counts.argmin())} in {path}")
    data = np.empty(n)
    data[indices] = samples
    return GridFunction(data)
