"""Finite-support sequences of pseudo-normed blocks and their dyadic norms.

A sequence f = (f_0, ..., f_K) with blocks in a base space E carries the
two-parameter family of norms

    ||f||_{s,q}   = ( sum_k (2^{k s} ||f_k||_E)^q )^(1/q)   for q in [1, inf),
    ||f||_{s,inf} = sup_k 2^{k s} ||f_k||_E,

together with the truncation operators S_n (keep blocks 0..n, zero the rest)
and the elementary inequalities built on them: the smoothing gain
||S_n f||_{r',q} <= 2^{n(r'-r)} ||f||_{r,q}, a sharpened weighted truncation
sum with the explicit constant 1/(1 - 2^{r-r'}), Young's convolution
inequality for sequences on Z, and a two-sided bound obtained by splitting a
sequence at a level N.

Sequences are always finitely supported.  Where a formula sums over all
truncation levels n in N, the summand is eventually constant or exactly
geometric, so the infinite part is added in closed form rather than
truncated.  A norm or sum that leaves floating-point range raises
``ValueError`` naming its order.
"""
from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pseudonorm import _BLOCK_NDIM, PseudoNormedSpace, eval_pseudo_norm, scalar_abs_space

__all__ = [
    "ScaleIndex",
    "as_scale_index",
    "DyadicSequence",
    "dyadic_norm",
    "truncate",
    "tail_norm",
    "smoothing_gain",
    "YoungConvolution",
    "young_convolve",
    "weighted_smoothing_sum",
    "truncation_power_sum",
    "InterpolationBound",
    "interpolation_bound",
    "interpolation_theta",
    "random_sequence",
    "sequence_report",
]


@dataclass(frozen=True)
class ScaleIndex:
    """Smoothness order s and summability q in [1, inf].

    Infinite q is the ordinary float ``inf``; all norm code branches on it
    explicitly, it is never fed through a power.
    """

    s: float
    q: float

    def __post_init__(self):
        if not self.q >= 1.0:
            raise ValueError(f"summability q must be >= 1, got {self.q}")


def as_scale_index(idx) -> ScaleIndex:
    if isinstance(idx, ScaleIndex):
        return idx
    s, q = idx
    return ScaleIndex(float(s), float(q))


def _frozen(blocks: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only so a sequence or trajectory keeps it uncopied."""
    blocks.setflags(write=False)
    return blocks


def _read_only(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only C-contiguous ``dtype`` array no caller can change.

    A read-only C-contiguous array of that dtype whose buffer's owner is
    read-only too is shared; anything else is copied.
    """
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        owner = values.base if isinstance(values.base, np.ndarray) else values
        flags = values.flags
        if flags.c_contiguous and not (flags.writeable or owner.flags.writeable):
            return values
    return _frozen(np.array(values, dtype=dtype, order="C"))


def _block_array(base: PseudoNormedSpace, blocks) -> np.ndarray:
    """Blocks as one read-only array, (K+1,) or (K+1, N), from an array or the elements."""
    ndim = _BLOCK_NDIM[base.element_kind]
    if ndim == 2 and not isinstance(blocks, np.ndarray):
        blocks = [entry.values for entry in blocks]
    blocks = _read_only(blocks)
    if blocks.ndim != ndim and blocks.size:
        raise ValueError(f"{base.element_kind} blocks need a {ndim}-D array, got {blocks.shape}")
    return blocks


@dataclass(frozen=True, eq=False)
class DyadicSequence:
    """Finite-support sequence of base-space elements.

    ``blocks`` holds f_0 .. f_K as one read-only float array, (K+1,) over a
    scalar space and (K+1, N) over a grid space, built from that array or
    from the elements; ``entries`` rebuilds the elements on access.  The
    block norms come from one :func:`eval_pseudo_norm` call on ``blocks``.
    Blocks beyond K are zero.  Sequences are immutable; arithmetic returns new
    sequences and pads the shorter operand with zero blocks.
    """

    base: PseudoNormedSpace
    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", _block_array(self.base, self.blocks))
        # digests by shape, shared with every truncation (a view of this buffer)
        object.__setattr__(self, "_digests", {})

    @property
    def support(self) -> int:
        """Number of stored blocks (K + 1 for last stored index K)."""
        return len(self.blocks)

    @property
    def last_index(self) -> int:
        return len(self.blocks) - 1

    @property
    def entries(self) -> tuple:
        """Blocks f_0 .. f_K as base-space elements, rebuilt on each access."""
        if self.base.element_kind == "scalar":
            return tuple(self.blocks.tolist())
        from .littlewood_paley import GridFunction  # that module imports this one

        return tuple(GridFunction(row) for row in self.blocks)

    @cached_property
    def block_norms(self) -> np.ndarray:
        """||f_k||_E for k = 0..K, from one call on the block array."""
        # an empty sequence's array is (0,) whatever the kind, so it is not evaluated
        norms = eval_pseudo_norm(self.base, self.blocks) if len(self) else np.zeros(0)
        finite = np.isfinite(norms)
        if not finite.all():
            raise ValueError(f"block {int(finite.argmin())} has non-finite pseudo-norm")
        return _frozen(norms)  # truncations share it

    @property
    def key(self) -> bytes:
        """blake2b digest of the base label, block shape and block data.

        Hashed once per view of a buffer: truncations share the digest table.
        """
        shape = self.blocks.shape
        digest = self._digests.get(shape)
        if digest is None:
            h = hashlib.blake2b(repr((self.base.label, shape)).encode(), digest_size=16)
            h.update(self.blocks)
            digest = self._digests[shape] = h.digest()
        return digest

    def __len__(self) -> int:
        return len(self.blocks)

    def _aligned(self, other: "DyadicSequence") -> list:
        """Both block arrays, padded with zero blocks to the longer support."""
        if self.base.label != other.base.label:
            raise ValueError(
                f"base space mismatch: {self.base.label!r} vs {other.base.label!r}"
            )
        rows = max(len(self), len(other))
        block_shape = (self if len(self) else other).blocks.shape[1:]
        return [
            np.concatenate((b.reshape(-1, *block_shape), np.zeros((rows - len(b), *block_shape))))
            for b in (self.blocks, other.blocks)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicSequence):
            return NotImplemented
        return self.base.label == other.base.label and bool(
            np.array_equal(*self._aligned(other))
        )

    def __add__(self, other: "DyadicSequence") -> "DyadicSequence":
        a, b = self._aligned(other)
        return DyadicSequence(self.base, _frozen(a + b))

    def __sub__(self, other: "DyadicSequence") -> "DyadicSequence":
        a, b = self._aligned(other)
        return DyadicSequence(self.base, _frozen(a - b))

    def __mul__(self, c) -> "DyadicSequence":
        return DyadicSequence(self.base, _frozen(self.blocks * float(c)))

    __rmul__ = __mul__


def _weighted_block_norms(f: DyadicSequence, s: float) -> np.ndarray:
    """2^{k s} ||f_k||_E for k = 0..K, with zero blocks kept at exactly 0."""
    norms = f.block_norms
    if norms.size == 0:
        return norms
    with np.errstate(over="ignore"):  # an infinite weight is rejected by the caller
        weights = np.exp2(s * np.arange(norms.size, dtype=float))
        return np.where(norms == 0.0, 0.0, weights * norms)


def _in_range(value, what: str):
    """``value`` when every entry is finite; ``ValueError`` naming ``what`` otherwise."""
    if not np.isfinite(value).all():
        raise ValueError(f"{what} leaves float range")
    return value


def _power(base: float, exponent: float, what: str) -> float:
    """``base ** exponent``; ``ValueError`` naming ``what`` when it leaves float range."""
    try:
        return base**exponent
    except OverflowError:
        raise ValueError(f"{what} leaves float range") from None


def _rescaled_norms(values: np.ndarray, power_sum, root):
    """``root(power_sum(values))``, rescaled where the power sum leaves float range.

    ``power_sum`` reduces an array along its last axis to sums of weighted
    q-th powers (one value for a 1-D array, one per row otherwise) and
    ``root`` takes their q-th roots.  A sum that is not finite, or that lies
    below the smallest normal float although its values are not all zero,
    is taken again over the values divided by their largest magnitude, and
    that magnitude multiplies its root.  Every other norm is computed as
    written and keeps its bits; only a norm that itself leaves float range
    comes back infinite (or nan).
    """
    with np.errstate(over="ignore"):
        try:
            sums = power_sum(values)
        except OverflowError:  # a Python float power raises where numpy gives inf
            sums = math.inf
    if values.ndim == 1:
        if math.isfinite(sums) and (sums >= sys.float_info.min or not values.any()):
            return root(sums)
        top = float(np.abs(values).max())
        with np.errstate(over="ignore", invalid="ignore"):  # inf / inf gives nan
            return top * root(power_sum(values / top))
    norms = root(sums)
    rescale = ~(np.isfinite(sums) & (sums >= sys.float_info.min))
    if rescale.any():
        rows = values[rescale]
        top = np.abs(rows).max(axis=-1)
        rescale[rescale] = nonzero = top > 0
        rows, top = rows[nonzero], top[nonzero]
        with np.errstate(over="ignore", invalid="ignore"):
            norms[rescale] = top * root(power_sum(rows / top[:, None]))
    return norms


def _lq_combine(values: np.ndarray, idx: ScaleIndex) -> float:
    """l^q norm of the nonnegative weighted block norms at order ``idx``."""
    if values.size == 0:
        return 0.0
    if math.isinf(idx.q):
        total = float(values.max())
    else:
        q = idx.q
        total = _rescaled_norms(values, lambda v: float((v**q).sum()), lambda t: t ** (1.0 / q))
    return _in_range(total, f"the (s, q) = ({idx.s:g}, {idx.q:g}) dyadic norm")


def dyadic_norm(f: DyadicSequence, idx) -> float:
    """The weighted-block norm ||f||_{s,q}; zero exactly on the zero sequence."""
    idx = as_scale_index(idx)
    return _lq_combine(_weighted_block_norms(f, idx.s), idx)


def truncate(f: DyadicSequence, n: int) -> DyadicSequence:
    """S_n f: keep blocks 0..n, zero everything above.

    A projection (idempotent) and a contraction for every dyadic norm.
    """
    if n < 0:
        raise ValueError("truncation level must be >= 0")
    if n >= f.last_index:
        return f
    head = DyadicSequence(f.base, f.blocks[: n + 1])  # a view of f's buffer
    object.__setattr__(head, "_digests", f._digests)
    if "block_norms" in f.__dict__:  # so the head rebuilds no block elements
        head.__dict__["block_norms"] = f.block_norms[: n + 1]
    return head


def tail_norm(f: DyadicSequence, idx, n: int) -> float:
    """||f - S_n f||_{s,q}: the norm of blocks above level n."""
    if n < 0:
        raise ValueError("truncation level must be >= 0")
    idx = as_scale_index(idx)
    weighted = _weighted_block_norms(f, idx.s)
    return _lq_combine(weighted[n + 1 :], idx)


def smoothing_gain(f: DyadicSequence, r: float, rp: float, q: float, n: int):
    """Value and bound for the truncation smoothing estimate.

    Returns ``(||S_n f||_{r',q}, 2^{n (r'-r)} ||f||_{r,q})`` for r <= r'.
    The value never exceeds the bound.
    """
    if not r <= rp:
        raise ValueError(f"need r <= r', got r={r}, r'={rp}")
    base = dyadic_norm(f, (r, q))  # first, so S_n f takes its block norms from f
    value = dyadic_norm(truncate(f, n), (rp, q))
    what = f"the smoothing bound at r={r:g}, r'={rp:g}, n={n}"
    return value, _in_range(_power(2.0, n * (rp - r), what) * base, what)


@dataclass(frozen=True)
class YoungConvolution:
    """Convolution of two finitely supported sequences on Z with its l^q bound."""

    start: int
    values: np.ndarray
    norm: float
    bound: float


def _seq_lq(values: np.ndarray, q: float) -> float:
    if values.size == 0:
        return 0.0
    if math.isinf(q):
        return float(np.abs(values).max())
    return float(np.sum(np.abs(values) ** q) ** (1.0 / q))


def young_convolve(u, v, q: float, u_start: int = 0, v_start: int = 0):
    """Convolve u and v over Z and certify ||u*v||_q <= ||u||_1 ||v||_q.

    ``u`` and ``v`` are the finitely supported values starting at indices
    ``u_start`` and ``v_start``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size == 0 or v.size == 0:
        return YoungConvolution(u_start + v_start, np.zeros(0), 0.0, 0.0)
    conv = np.convolve(u, v)
    bound = _seq_lq(u, 1.0) * _seq_lq(v, q)
    return YoungConvolution(u_start + v_start, conv, _seq_lq(conv, q), bound)


def weighted_smoothing_sum(f: DyadicSequence, r: float, rp: float, q: float):
    """Value and bound of the weighted sum over all truncation levels.

    Value is ``( sum_n ( 2^{-n(r'-r)} ||S_n f||_{r',1} )^q )^{1/q}`` (the sup
    over n when q = inf); bound is ``||f||_{r,q} / (1 - 2^{r-r'})``.  Terms
    with n beyond the support are geometric and summed in closed form, so
    the value is exact up to rounding.  Requires r < r'.
    """
    if not r < rp:
        raise ValueError(f"need r < r', got r={r}, r'={rp}")
    bound = dyadic_norm(f, (r, q)) / (1.0 - 2.0 ** (r - rp))
    inner = _weighted_block_norms(f, rp)
    if inner.size == 0:
        return 0.0, 0.0
    partial = np.cumsum(inner)  # ||S_n f||_{r',1} for n = 0..K
    n = np.arange(inner.size, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan value is rejected below
        terms = np.exp2(-(rp - r) * n) * partial
    if math.isinf(q):
        # beyond the support the weight shrinks while the partial sum is
        # constant, so the sup is attained at some n <= K
        value = float(terms.max())
    else:
        ratio = 2.0 ** (-q * (rp - r))
        head = float(np.sum(terms**q))
        geometric_tail = float(terms[-1] ** q) * ratio / (1.0 - ratio)
        value = (head + geometric_tail) ** (1.0 / q)
    return _in_range(value, f"the weighted truncation sum at r={r:g}, r'={rp:g}"), bound


def truncation_power_sum(f: DyadicSequence, r: float, rp: float, q: float):
    """q-th power form of the weighted truncation sum, with its closed bound.

    Returns ``(sum_n 2^{-q n (r'-r)} ||S_n f||_{r',q}^q, K ||f||_{r,q}^q)``
    with ``K = 1/(1 - 2^{-q(r'-r)})``.  Swapping the order of summation
    shows the two sides are equal for every finitely supported sequence, so
    the bound is attained; it is still returned as a pair for reporting.
    Requires finite q and r < r'.
    """
    if math.isinf(q):
        raise ValueError("power sum requires finite q")
    if not r < rp:
        raise ValueError(f"need r < r', got r={r}, r'={rp}")
    what = f"the truncation power sum at r={r:g}, r'={rp:g}"
    ratio = 2.0 ** (-q * (rp - r))
    constant = 1.0 / (1.0 - ratio)
    bound = _in_range(constant * _power(dyadic_norm(f, (r, q)), q, what), what)
    inner = _weighted_block_norms(f, rp)
    if inner.size == 0:
        return 0.0, 0.0
    partial_q = np.cumsum(inner**q)  # ||S_n f||_{r',q}^q for n = 0..K
    n = np.arange(inner.size, dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan value is rejected below
        terms = np.exp2(-q * (rp - r) * n) * partial_q
    head = float(np.sum(terms))
    geometric_tail = float(terms[-1]) * ratio / (1.0 - ratio)
    return _in_range(head + geometric_tail, what), bound


@dataclass(frozen=True)
class InterpolationBound:
    """actual <= low + high split of a dyadic norm at an intermediate order.

    ``low`` and ``high`` are floats for one split level and arrays, one entry
    per level, for an array of levels; ``actual`` is always a float.
    """

    actual: float
    low: float | np.ndarray
    high: float | np.ndarray


def _split_levels(n_split) -> np.ndarray:
    """Split level(s) as an integer array: 0-d for one level, 1-D otherwise."""
    levels = np.asarray(n_split)  # bools get dtype kind "b" and are rejected
    if levels.dtype.kind not in "iu" or levels.ndim > 1:
        raise ValueError(
            f"split level must be an integer or a 1-D integer array, got {n_split!r}"
        )
    if (levels < 0).any():
        raise ValueError("split level must be >= 0")
    return levels


def interpolation_bound(
    f: DyadicSequence, s0: float, s: float, s1: float, q: float, n_split
) -> InterpolationBound:
    """Two-sided bound for ||f||_{s,q} from the s0 and s1 sup norms.

    Splitting f = S_N f + (I - S_N) f at N = ``n_split`` gives

        ||S_N f||_{s,q}      <= ( sum_{n<=N} 2^{n q (s-s0)} )^{1/q} ||f||_{s0,inf}
        ||(I - S_N) f||_{s,q} <= ( sum_{n>N} 2^{n q (s-s1)} )^{1/q} ||f||_{s1,inf}

    with both geometric sums evaluated in closed form (for q = inf the
    prefactors collapse to 2^{N(s-s0)} and 2^{(N+1)(s-s1)}).  ``n_split`` is
    one int level or a 1-D integer array of levels; the three norms are
    computed once and the prefactors broadcast over the levels.  Requires
    s0 < s < s1.
    """
    if not (s0 < s < s1):
        raise ValueError(f"need s0 < s < s1, got {s0}, {s}, {s1}")
    n = _split_levels(n_split)
    actual = dyadic_norm(f, (s, q))
    m0 = dyadic_norm(f, (s0, math.inf))
    m1 = dyadic_norm(f, (s1, math.inf))
    with np.errstate(over="ignore"):  # an overflowing prefactor is rejected below
        if math.isinf(q):
            low_factor = 2.0 ** (n * (s - s0))
            high_factor = 2.0 ** ((n + 1) * (s - s1))
        else:
            x = 2.0 ** (q * (s - s0))  # > 1
            low_factor = ((x ** (n + 1) - 1.0) / (x - 1.0)) ** (1.0 / q)
            y = 2.0 ** (q * (s - s1))  # < 1
            high_factor = (y ** (n + 1) / (1.0 - y)) ** (1.0 / q)
    if not np.isfinite(low_factor).all():
        raise ValueError("split level too large: the low prefactor overflows")
    low, high = low_factor * m0, high_factor * m1
    if n.ndim == 0:
        return InterpolationBound(actual, float(low), float(high))
    return InterpolationBound(actual, low, high)


def interpolation_theta(s0: float, s: float, s1: float) -> float:
    """Interpolation weight (s1 - s)/(s1 - s0) for the order triple."""
    if not (s0 < s < s1):
        raise ValueError(f"need s0 < s < s1, got {s0}, {s}, {s1}")
    return (s1 - s) / (s1 - s0)


_SIGNS = np.array([-1.0, 1.0])


def random_sequence(
    rng: np.random.Generator,
    base: PseudoNormedSpace | None = None,
    max_support: int = 32,
    log2_range=(-20.0, 20.0),
) -> DyadicSequence:
    """Random scalar sequence for property sweeps.

    Support length is uniform in [1, max_support]; entry magnitudes are
    log-uniform in 2^[log2_range], stressing both decaying and growing
    weight regimes; signs are random.
    """
    if base is None:
        base = scalar_abs_space()
    size = int(rng.integers(1, max_support + 1))
    mags = np.exp2(rng.uniform(log2_range[0], log2_range[1], size))
    signs = _SIGNS[rng.integers(0, 2, size)]  # same draws as rng.choice(_SIGNS, size)
    return DyadicSequence(base, _frozen(signs * mags))


def sequence_report(f: DyadicSequence) -> dict:
    """Per-block norms plus the base-space label, for serialized reports."""
    return {
        "base": f.base.label,
        "block_norms": [float(v) for v in f.block_norms],
    }
