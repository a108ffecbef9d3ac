"""Dyadic filter banks and Littlewood-Paley analysis on the 1-D torus.

The domain is the torus of length 2*pi sampled on a uniform power-of-two
grid, so frequencies are the integers xi with -N/2 < xi <= N/2.  Every
multiplier here is radial and every grid function real, so spectra are kept
as real-FFT half spectra over xi = 0 .. N/2 only.  The filter bank consists
of a smooth radial low-pass profile psi with

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
64-node Gauss-Legendre rule, a literal table, on the ramp 3/4 < |xi| < 1
only.  The whole bank is sampled from one stack of dilations psi(2^e xi)
on the frequencies 0 .. N/2 returned by :func:`frequencies`, the one
frequency grid that the rest of the package shares.
"""
from __future__ import annotations

import math
import struct
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicSequence, _frozen, _pow_by_value, _rescaled_norms, dyadic_norm
from .pseudonorm import PseudoNormedSpace

__all__ = [
    "TAU",
    "GridFunction",
    "GridMismatchError",
    "frequencies",
    "FilterBank",
    "build_filters",
    "smooth_cutoff",
    "band_profile",
    "partition_of_unity",
    "almost_orthogonality",
    "decompose",
    "reconstruct",
    "grid_l2_norm",
    "lp_norm",
    "grid_l2_space",
    "sobolev_norm",
    "besov_norm",
    "reconstruction_stability_ratio",
    "random_grid_function",
    "save_grid_function",
    "load_grid_function",
]

TAU = 2.0 * math.pi

GRID_MAGIC = b"GFN1\x00\x00\x00\x00"
_CSV_ROW = np.dtype([("index", np.int64), ("value", float)])  # one line of a CSV grid


class GridMismatchError(ValueError):
    """Grid sizes of interacting objects disagree."""


def _check_grid_size(n: int):
    """Reject grid sizes that are not a power of two of at least 8."""
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


class GridFunction:
    """Real samples of a periodic function on a uniform torus grid.

    The grid size must be a power of two, at least 8; the domain length is
    fixed at 2*pi.  Instances are immutable.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        _check_grid_size(values.size)
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @property
    def grid_size(self) -> int:
        return self.values.size

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

    def __mul__(self, c):
        return GridFunction(self.values * float(c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.grid_size == other.grid_size and bool(
            np.array_equal(self.values, other.values)
        )


@lru_cache(maxsize=None)
def frequencies(n: int) -> np.ndarray:
    """The frequencies 0 .. N/2 of the real-FFT slots of an n-point grid, as floats.

    Cached per grid size and read-only, since every caller shares the array.
    """
    freqs = np.arange(n // 2 + 1, dtype=float)
    freqs.setflags(write=False)
    return freqs


# --- radial filter profiles -------------------------------------------------

# The 64-node Gauss-Legendre rule on [-1, 1], nodes ascending.  The rule is
# symmetric, so the table holds the 32 positive nodes and their weights and
# the negative half is their mirror image, exactly as
# numpy.polynomial.legendre.leggauss(64) returns it.
_GL_POSITIVE_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL_POSITIVE_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)
_GL_NODES = _frozen(np.concatenate((-np.array(_GL_POSITIVE_NODES[::-1]), _GL_POSITIVE_NODES)))
_GL_WEIGHTS = _frozen(np.array(_GL_POSITIVE_WEIGHTS[::-1] + _GL_POSITIVE_WEIGHTS))


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


@lru_cache(maxsize=None)
def _bump_total() -> float:
    """Integral of the bump over [-1, 1]."""
    return float(_bump_tail(np.array([-1.0]))[0])


def smooth_cutoff(xi):
    """The radial low-pass profile psi, evaluated at scalar or array xi."""
    t = np.abs(np.asarray(xi, dtype=float))
    out = np.where(t <= 0.75, 1.0, 0.0)
    ramp = (t > 0.75) & (t < 1.0)
    # indicator(|.| <= 7/8) mollified by the radius-1/8 bump, clamped so the
    # plateau/support facts hold exactly in floating point; dilated grids
    # repeat ramp points, so each distinct point is integrated once
    points, index = np.unique(t[ramp], return_inverse=True)
    values = np.clip(_bump_tail(8.0 * points - 7.0) / _bump_total(), 0.0, 1.0)
    out[ramp] = values[index]
    if out.ndim == 0:
        return float(out)
    return out


def band_profile(xi):
    """The band profile phi(xi) = psi(xi/2) - psi(xi)."""
    return smooth_cutoff(np.asarray(xi) / 2.0) - smooth_cutoff(xi)


class FilterBank(NamedTuple):
    """Sampled dyadic multipliers for one grid size.

    ``multipliers`` holds the block multipliers Delta_j (rows j = 0..j_max)
    and ``fat_multipliers`` the reconstruction companions, each a
    (j_max + 1, N/2 + 1) array over the frequencies 0..N/2 of
    :func:`frequencies`; row 0 samples psi and row 1 phi.  ``j_max`` is the
    largest block index needed to resolve every grid frequency.
    """

    grid_size: int
    j_max: int
    multipliers: np.ndarray
    fat_multipliers: np.ndarray


def build_filters(grid_size: int) -> FilterBank:
    """Build the dyadic filter bank for a power-of-two grid.

    Blocks run from 0 to j_max = log2(N); the last band is what makes the
    partition of unity exact up to the Nyquist frequency N/2, and with it
    the reconstruction identity on arbitrary grid data.
    """
    n = int(grid_size)
    _check_grid_size(n)
    j_max = n.bit_length() - 1
    # row e + j_max + 1 of the stack is P_e = psi(2^e xi), e = -(j_max+1)..2
    exponents = np.arange(-(j_max + 1), 3)
    stack = smooth_cutoff(np.ldexp(frequencies(n), exponents[:, None]))

    def dilation(e):
        return stack[e + j_max + 1]

    j = np.arange(1, j_max + 1)
    multipliers = np.vstack((dilation(0), dilation(-j) - dilation(1 - j)))
    fat = np.vstack((dilation(-1), dilation(-1 - j) - dilation(3 - j)))
    multipliers.setflags(write=False)
    fat.setflags(write=False)
    return FilterBank(grid_size=n, j_max=j_max, multipliers=multipliers, fat_multipliers=fat)


def partition_of_unity(bank: FilterBank) -> np.ndarray:
    """psi(xi) + sum_p phi(2^-p xi) at every grid frequency 0..N/2."""
    return bank.multipliers.sum(axis=0)


def almost_orthogonality(bank: FilterBank) -> np.ndarray:
    """psi^2(xi) + sum_p phi^2(2^-p xi) at every grid frequency 0..N/2."""
    return (bank.multipliers**2).sum(axis=0)


def _check_bank(u: GridFunction, bank: FilterBank):
    if u.grid_size != bank.grid_size:
        raise GridMismatchError(
            f"grid size {u.grid_size} does not match bank size {bank.grid_size}"
        )


def decompose(u: GridFunction, bank: FilterBank) -> DyadicSequence:
    """Split a grid function into its dyadic blocks (Delta_0 u, ..., Delta_jmax u).

    The blocks sum back to u exactly on the grid.
    """
    _check_bank(u, bank)
    half = np.fft.rfft(u.values) * bank.multipliers
    blocks = np.fft.irfft(half, n=u.grid_size, axis=1)
    return DyadicSequence(grid_l2_space(u.grid_size), _frozen(blocks))


def reconstruct(f: DyadicSequence, bank: FilterBank) -> GridFunction:
    """Rebuild a grid function from dyadic blocks with the fattened filters.

    Because the fattened profiles equal 1 on the matching block supports,
    reconstruct(decompose(u)) returns u to rounding.
    """
    if f.support > bank.j_max + 1:
        raise ValueError(
            f"sequence support {f.support} exceeds bank blocks {bank.j_max + 1}"
        )
    if f.blocks.shape[1] != bank.grid_size:
        raise GridMismatchError(
            f"blocks have grid size {f.blocks.shape[1]}, bank {bank.grid_size}"
        )
    total = (np.fft.rfft(f.blocks, axis=1) * bank.fat_multipliers[: f.support]).sum(axis=0)
    return GridFunction(np.fft.irfft(total, n=bank.grid_size))


# --- norms -------------------------------------------------------------------

def grid_l2_norm(u) -> float | np.ndarray:
    """Quadrature L2 norm, exact for band-limited integrands (Plancherel).

    ``u`` is a grid function (a float is returned), or a (K+1, N) block
    array whose row norms come from one reduction along the last axis.  A
    row whose sum of squares leaves float range is rescaled by its largest
    value, so only a norm that itself leaves float range is infinite.
    """
    values = u.values if isinstance(u, GridFunction) else u
    norms = _rescaled_norms(
        values, lambda v: TAU / v.shape[-1] * np.sum(v**2, axis=-1), np.sqrt
    )
    return norms if values.ndim > 1 else float(norms)


def lp_norm(u, p: float) -> float | np.ndarray:
    """Discrete L^p norm with uniform quadrature weights.

    ``u`` is a grid function (a float is returned), or a (K+1, N) block
    array whose row norms come from one reduction along the last axis.  A
    row whose power sum leaves float range is rescaled by its largest
    magnitude, so only a norm that itself leaves float range is infinite.
    """
    values = u.values if isinstance(u, GridFunction) else u
    if math.isinf(p):
        norms = np.abs(values).max(axis=-1)
    elif p < 1:
        raise ValueError("integrability p must be >= 1")
    else:
        norms = _rescaled_norms(
            values,
            lambda v: TAU / v.shape[-1] * np.sum(np.abs(v) ** p, axis=-1),
            lambda sums: _pow_by_value(sums, 1.0 / p),
        )
    return norms if values.ndim > 1 else float(norms)


def grid_l2_space(grid_size: int) -> PseudoNormedSpace:
    """The grid-L2 base space for dyadic sequences of blocks."""
    return PseudoNormedSpace(
        label=f"L2(torus,{grid_size})",
        eval=grid_l2_norm,
        element_kind="grid_function",
    )


def _folded_band(row: np.ndarray) -> tuple:
    """(a, b, folded) of a radial weight row over the frequencies 0..N/2.

    a .. b - 1 spans the row's nonzero modes (a = b = 0 if it has none), and
    ``folded`` is the row there over N^2 (exact: N is a power of two), each
    interior mode doubled for its mirror, so TAU * sum(folded *
    |rfft(u)[a:b]|^2) is the weighted energy of u.
    """
    n = 2 * (row.size - 1)
    nonzero = np.flatnonzero(row)
    if nonzero.size == 0:
        return 0, 0, row[:0]
    a, b = int(nonzero[0]), int(nonzero[-1]) + 1
    folded = row[a:b] / n**2
    folded[max(1 - a, 0) : n // 2 - a] *= 2.0  # interior modes 1 .. n/2 - 1
    return a, b, folded


def _band_energies(spectra: np.ndarray, bands: list) -> np.ndarray:
    """Energies of rfft(u) spectra (rows): a row per band of :func:`_folded_band`."""
    power = np.abs(spectra)
    power *= power
    energies = np.empty((len(bands), len(power)))
    for out, (a, b, folded) in zip(energies, bands):
        np.einsum("k,tk->t", folded, power[:, a:b], out=out)
    energies *= TAU
    return energies


def _weighted_energy(spectra: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """TAU * sum_xi weights[..., xi] |c_xi|^2 for every row of rfft(u) spectra.

    c = rfft(u) / N are the normalized Fourier coefficients and ``weights``
    are radial, over the frequencies 0..N/2.  The result has the leading
    shape of ``weights`` followed by one axis over the rows.  Each weight
    row is summed over its own band only, so a dyadic block costs its
    annulus.
    """
    bands = [_folded_band(row) for row in np.atleast_2d(weights)]
    return _band_energies(spectra, bands).reshape(weights.shape[:-1] + (len(spectra),))


def sobolev_norm(u: GridFunction, s: float) -> float:
    """Sobolev norm of order s via the weight (1 + xi^2)^s on the spectrum.

    Normalized so that s = 0 reproduces the quadrature L2 norm exactly.
    """
    weights = (1.0 + frequencies(u.grid_size) ** 2) ** s
    return math.sqrt(float(_weighted_energy(np.fft.rfft(u.values)[None], weights)[0]))


def besov_norm(u: GridFunction, s: float, p: float, q: float, bank: FilterBank):
    """Blockwise Besov norm ( sum_j 2^{q j s} ||Delta_j u||_{L^p}^q )^{1/q}.

    The (s, q) dyadic norm of the L^p block norms, so it is rescaled and
    range-checked like every other dyadic norm.
    """
    return float(dyadic_norm(lp_norm(decompose(u, bank).blocks, p)[None], (s, q))[0])


def reconstruction_stability_ratio(data, bank: FilterBank, s: float) -> list:
    """Measured ratios ||decompose(reconstruct(f))||_{s,1} / ||f||_{s,1}, f = decompose(u).

    On the half spectrum the blocks of f are m_j u^, and the round trip
    multiplies u^ by sum_j fat_j m_j.  That sum is the partition of unity
    wherever fat_j = 1 on the support of m_j, as it is for this bank, so
    the ratio reads 1 to rounding: it checks the reconstruction identity,
    not how the round trip grows sequences outside decompose's range.
    Both rows of block norms are Plancherel sums of |u^|^2 with weights
    m_j^2, so no block is built on the grid.

    ``data`` is an iterable of grid functions u; the result is the list of
    their ratios, with the bank's weights built once.
    """
    bands = [_folded_band(row) for row in bank.multipliers**2]
    gain = (bank.fat_multipliers * bank.multipliers).sum(axis=0)
    ratios = []
    for datum in data:
        _check_bank(datum, bank)
        # an exact power-of-two rescale keeps |u^|^2 in float range; the
        # ratio is unchanged by it
        values = np.ldexp(datum.values, -np.frexp(np.abs(datum.values).max())[1])
        spectrum = np.fft.rfft(values)
        energies = _band_energies(np.stack((spectrum, gain * spectrum)), bands)
        denom, round_trip = dyadic_norm(np.sqrt(energies.T), (s, 1.0)).tolist()
        ratios.append(0.0 if denom == 0.0 else round_trip / denom)
    return ratios


@lru_cache(maxsize=None)
def _power_law_scales(top: int, decay: float) -> np.ndarray:
    """(1 + k)^(-decay) for k = 0 .. top, read-only and shared by every draw."""
    # scales as Python floats: numpy's power can differ from them by an ulp
    return _frozen(np.array([(1.0 + k) ** (-decay) for k in range(top + 1)]))


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
    scales = _power_law_scales(top, float(decay))
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


def load_grid_function(path) -> GridFunction:
    """Read either the binary or the CSV grid-function format.

    A binary file must hold exactly the samples its header counts; a CSV
    file must list every index 0 .. N-1 exactly once, in any order, one
    ``index,value`` line each; only its first non-blank line may instead be
    a header, whose index field is not an integer.  Fields are ASCII decimal
    literals without digit separators.  The samples must be finite and N a
    power of two >= 8.  Anything else raises ``ValueError`` naming the file,
    and for a bad CSV line its number.
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
            return _grid_from_file(np.frombuffer(payload, dtype="<f8").astype(float), path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # the first non-blank line is the only one that may be a header
    first = next((i for i, line in enumerate(lines) if line.strip()), 0)
    fields = lines[first].split(",")
    start = first
    if len(fields) == 2:
        try:
            int(fields[0])
        except ValueError:
            start = first + 1  # a header line
    body = lines[start:]
    if not any(map(str.strip, body)):
        raise ValueError(f"no samples found in {path}")
    try:
        with warnings.catch_warnings():
            # older numpy reads an integer field such as '2.9' through float
            # and only warns; here that field is rejected
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                map(str.strip, body), dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, DeprecationWarning) as exc:
        raise _bad_csv_line(path, lines, start, exc) from None
    indices = rows["index"]
    n = indices.size
    counts = np.bincount(indices[(indices >= 0) & (indices < n)], minlength=n)
    if counts.max() > 1:
        raise ValueError(f"duplicate sample index {int(counts.argmax())} in {path}")
    if counts.min() == 0:
        raise ValueError(f"missing sample index {int(counts.argmin())} in {path}")
    data = np.empty(n)
    data[indices] = rows["value"]
    return _grid_from_file(data, path)


def _is_literal(text: str, kind) -> bool:
    """Whether a CSV field is an ASCII ``int`` or ``float`` literal without underscores."""
    if not text.isascii() or "_" in text:
        return False
    try:
        kind(text)
    except ValueError:
        return False
    return True


def _bad_csv_line(path, lines, start, exc) -> ValueError:
    """The rejection of a CSV grid that did not parse, naming its first bad line.

    ``start`` is the index of the first line after the header, if any;
    ``exc`` is the parser's error, kept for a file whose fields all read
    as literals one by one.
    """
    for lineno, line in enumerate(lines[start:], start + 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            return ValueError(f"{path}:{lineno}: expected 'index,value', got {line!r}")
        index_text, value_text = fields
        if not _is_literal(index_text, int):
            return ValueError(f"{path}:{lineno}: {index_text!r} is not an integer index")
        if not _is_literal(value_text, float):
            return ValueError(f"{path}:{lineno}: {value_text!r} is not a number")
        if not -(2**63) <= int(index_text) < 2**63:
            return ValueError(f"{path}:{lineno}: index {index_text!r} is out of range")
    return ValueError(f"{path}: {exc}")


def _grid_from_file(values: np.ndarray, path) -> GridFunction:
    """The grid function of a file's samples; a rejection names the file."""
    try:
        return GridFunction(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
