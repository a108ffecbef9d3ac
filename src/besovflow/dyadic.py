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

A row of block norms ||f_0||_E .. ||f_K||_E is a float array, and the
norms and inequalities take only a batch of such rows: a 2-D array, one
zero-padded row per sequence, with each order and q given once or once per
row.  They return one value per row.  A :class:`DyadicSequence` holds grid
blocks, and one sequence ``f`` is evaluated as the one-row batch
``f.block_norms[None]``.  Past a row's support every closed-form summand is
exactly geometric, so zero padding changes values only at rounding level.
Powers are numpy's element-wise ``np.power``, whose value does not depend
on the length of the array or the position in it, so rows of one width
evaluate bit for bit as they would one at a time.

Every bound that a caller checks, here or in the verification engine,
is one :class:`Check` row ``lhs <= rhs``, and rows or whole columns
:func:`fails` beyond the relative rounding slack ``SLACK`` or on a NaN.
"""
from __future__ import annotations

import hashlib
import math
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .pseudonorm import PseudoNormedSpace, eval_pseudo_norm, scalar_abs_space

__all__ = [
    "SLACK",
    "Check",
    "fails",
    "DyadicSequence",
    "dyadic_norm",
    "truncate",
    "smoothing_gain",
    "YoungConvolution",
    "young_convolve",
    "weighted_smoothing_sum",
    "truncation_power_sum",
    "InterpolationBound",
    "interpolation_bound",
    "random_sequence",
    "sequence_report",
]


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
    """Grid blocks as one read-only nonempty (K+1, N) array."""
    if base.element_kind != "grid_function":
        raise ValueError(
            f"a dyadic sequence holds grid blocks, not {base.element_kind} blocks; "
            "a row of block norms is a float array"
        )
    blocks = _read_only(blocks)
    if blocks.ndim != 2 or not blocks.size:
        raise ValueError(f"grid blocks need a nonempty (K+1, N) array, got shape {blocks.shape}")
    return blocks


class DyadicSequence:
    """Finite-support sequence of grid functions over a grid space.

    ``blocks`` holds f_0 .. f_K as one read-only (K+1, N) float array with
    K >= 0.  The block norms come from one :func:`eval_pseudo_norm` call on
    ``blocks``.
    Blocks beyond K are zero.  Sequences are immutable; arithmetic returns new
    sequences and pads the shorter operand with zero blocks.
    """

    def __init__(self, base: PseudoNormedSpace, blocks):
        # the row digests of the buffer, shared with every truncation (a view of it)
        self.__dict__.update(base=base, blocks=_block_array(base, blocks), _row_digests=[])

    def __setattr__(self, name, value):
        raise AttributeError("DyadicSequence is immutable")

    @property
    def support(self) -> int:
        """Number of stored blocks (K + 1 for last stored index K)."""
        return len(self.blocks)

    @cached_property
    def block_norms(self) -> np.ndarray:
        """||f_k||_E for k = 0..K, from one call on the block array."""
        norms = eval_pseudo_norm(self.base, self.blocks)
        finite = np.isfinite(norms)
        if not finite.all():
            raise ValueError(f"block {int(finite.argmin())} has non-finite pseudo-norm")
        return _frozen(norms)  # truncations share it

    @cached_property
    def key(self) -> bytes:
        """blake2b digest of the base label, block shape and the digests of the block rows.

        Each row of a buffer is hashed once: truncations share the row digests.
        """
        rows = self._row_digests
        rows += (hashlib.blake2b(row, digest_size=16).digest() for row in self.blocks[len(rows) :])
        h = hashlib.blake2b(repr((self.base.label, self.blocks.shape)).encode(), digest_size=16)
        h.update(b"".join(rows[: len(self.blocks)]))
        return h.digest()

    def _aligned(self, other: "DyadicSequence") -> list:
        """Both block arrays, padded with zero blocks to the longer support."""
        if self.base.label != other.base.label:
            raise ValueError(
                f"base space mismatch: {self.base.label!r} vs {other.base.label!r}"
            )
        rows = max(self.support, other.support)
        return [
            np.concatenate((b, np.zeros((rows - len(b), b.shape[1]))))
            for b in (self.blocks, other.blocks)
        ]

    def __add__(self, other: "DyadicSequence") -> "DyadicSequence":
        a, b = self._aligned(other)
        return DyadicSequence(self.base, _frozen(a + b))

    def __sub__(self, other: "DyadicSequence") -> "DyadicSequence":
        a, b = self._aligned(other)
        return DyadicSequence(self.base, _frozen(a - b))

    def __mul__(self, c) -> "DyadicSequence":
        return DyadicSequence(self.base, _frozen(self.blocks * float(c)))


def _norm_rows(f) -> np.ndarray:
    """A batch of block norms, checked: a nonempty 2-D array of nonnegative rows.

    Each row holds one sequence's block norms, zero past its support; like
    a sequence, it has at least one block.
    """
    norms = np.asarray(f, dtype=float)
    if norms.ndim != 2 or not norms.size:
        raise ValueError(
            f"a batch of block norms is a 2-D array of rows of at least one block, "
            f"got shape {norms.shape}"
        )
    if not (np.isfinite(norms) & (norms >= 0.0)).all():
        raise ValueError("a batch of block norms holds a negative or non-finite entry")
    return norms


def _per_row(x) -> bool:
    """``x`` is an array of values, one per row, rather than one value."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _all(condition) -> bool:
    """A condition on parameters, each a float or one per row, holds for every row."""
    return bool(condition.all() if isinstance(condition, np.ndarray) else condition)


def _param(x):
    """A parameter as a float, or as a float array when it is given one per row."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        return float(x)
    return np.asarray(x, dtype=float)


def _summability(q):
    """Summability q in [1, inf] as a float, or as a float array when given one per row.

    Infinite q is the ordinary float ``inf``; all norm code branches on it
    explicitly, it is never fed through a power.
    """
    q = _param(q)
    if not _all(q >= 1.0):
        raise ValueError(f"summability q must be >= 1, got {q}")
    return q


def _column(x, axes: int = 1):
    """A per-row parameter shaped to broadcast over ``axes`` trailing axes; a scalar as it is."""
    return np.reshape(x, (-1,) + (1,) * axes) if _per_row(x) else x


def _by_q(q, kernel, *args):
    """``kernel(q, *args)`` once per distinct summability q, on the rows carrying it.

    ``q`` is a float or one per row.  Array ``args`` hold one entry (or row)
    per row and are split with the rows; scalars are passed as they are.
    The kernel returns a per-row array, or a tuple of them, and the parts
    are put back in row order.
    """
    if not _per_row(q):
        return kernel(float(q), *args)
    whole = None
    for value in set(q.tolist()):  # not np.unique, which imports numpy.ma
        pick = q == value
        part = kernel(value, *(a[pick] if _per_row(a) else a for a in args))
        parts = part if isinstance(part, tuple) else (part,)
        if whole is None:
            whole = tuple(np.empty((q.size, *np.shape(p)[1:])) for p in parts)
        for into, p in zip(whole, parts):
            into[pick] = p
    return whole if isinstance(part, tuple) else whole[0]


def _weighted_block_norms(norms: np.ndarray, s) -> np.ndarray:
    """2^{k s} ||f_k||_E for k = 0..K on rows of block norms, zero blocks kept at exactly 0.

    ``s`` is a float or one per row.
    """
    with np.errstate(over="ignore"):  # an infinite weight is rejected by the caller
        weights = np.exp2(_column(s) * np.arange(norms.shape[-1], dtype=float))
        return np.where(norms == 0.0, 0.0, weights * norms)


def _in_range(value, what: str, **params):
    """``value`` when every entry is finite; ``ValueError`` naming ``what`` otherwise.

    ``what`` is formatted with ``params``, a per-row parameter taken at the
    first row of ``value`` that leaves float range.
    """
    finite = np.isfinite(value)
    if finite.all():
        return value
    row = int(np.argmin(finite.reshape(len(finite), -1).all(axis=-1))) if finite.ndim else 0
    at_row = {name: x if np.ndim(x) == 0 else np.ravel(x)[row] for name, x in params.items()}
    raise ValueError(f"{what.format(**at_row)} leaves float range")


def _power(base, exponent, what: str, **params):
    """``base ** exponent``; ``ValueError`` naming ``what`` when it leaves float range."""
    with np.errstate(over="ignore"):  # the overflow flag of a power that gave inf
        return _in_range(np.power(base, exponent), what, **params)


def _rescaled_norms(values: np.ndarray, power_sum, root, *per_row):
    """``root(power_sum(rows, *per_row))`` row by row, rescaled where a sum leaves float range.

    ``values`` is one row (a 0-d result) or a 2-D array of rows.
    ``power_sum`` reduces rows along the last axis to sums of weighted q-th
    powers and ``root`` takes their q-th roots; ``per_row`` holds further
    arguments of ``power_sum``, arrays with one entry per row or scalars.  A
    sum that is not finite, or that lies below the smallest normal float
    although its row is not all zero, is taken again over the row divided
    by its largest magnitude, and that magnitude multiplies its root.  Every
    other norm is computed as written and keeps its bits; only a norm that
    itself leaves float range comes back infinite (or nan).
    """
    rows = values if values.ndim == 2 else values[None]
    with np.errstate(over="ignore"):
        sums = power_sum(rows, *per_row)
    norms = root(sums)
    in_range = (sums >= sys.float_info.min) & (sums <= sys.float_info.max)  # nan is neither
    if not in_range.all():
        rescale = ~in_range
        picked = rows[rescale]
        top = np.abs(picked).max(axis=-1, initial=0.0)
        rescale[rescale] = nonzero = top > 0
        picked, top = picked[nonzero], top[nonzero]
        args = [x[rescale] if _per_row(x) else x for x in per_row]
        with np.errstate(over="ignore", invalid="ignore"):  # inf / inf gives nan
            norms[rescale] = top * root(power_sum(picked / top[:, None], *args))
    return norms if values.ndim == 2 else norms[0]


def _lq_rows(values: np.ndarray, q, what: str, s=0.0) -> np.ndarray:
    """l^q norm of each row of nonnegative ``values``; q and s a float or one per row.

    A norm that leaves float range raises ``ValueError`` naming ``what``,
    formatted with that row's q and s.
    """

    def combine(q, values, s):
        if math.isinf(q):
            norms = values.max(axis=-1, initial=0.0)
        else:
            norms = _rescaled_norms(
                values, lambda v: (v**q).sum(axis=-1), lambda t: np.power(t, 1.0 / q)
            )
        return _in_range(norms, what, q=q, s=s)

    return _by_q(q, combine, values, s)


def _geometric_lq(head: np.ndarray, q: float, ratio) -> np.ndarray:
    """l^q norm of each row of ``head`` continued by its geometric tail, for finite q.

    Past its last entry a row goes on geometrically, its q-th powers
    shrinking by ``ratio`` < 1 (a float or one per row) a step, and that
    tail is summed in closed form.  Rescaled like every other norm.
    """

    def power_sum(h, ratio):
        return (h**q).sum(axis=-1) + np.power(h[:, -1], q) * ratio / (1.0 - ratio)

    return _rescaled_norms(head, power_sum, lambda t: np.power(t, 1.0 / q), ratio)


_DYADIC_NORM = "the (s, q) = ({s:g}, {q:g}) dyadic norm"


def dyadic_norm(f, idx):
    """The weighted-block norm ||f||_{s,q} of each row of a batch of block norms.

    ``idx`` is the pair (s, q), each one value or one per row.  Zero
    exactly on a zero row.
    """
    s, q = idx
    s, q = _param(s), _summability(q)
    weighted = _weighted_block_norms(_norm_rows(f), s)
    return _lq_rows(weighted, q, _DYADIC_NORM, s=s)


def truncate(f, n):
    """S_n f: keep blocks 0..n, zero everything above.

    A projection (idempotent) and a contraction for every dyadic norm.  S_n
    acts on both forms: a grid sequence comes back as a view of its blocks,
    a batch of block norms as its rows zeroed above ``n``, one level or one
    per row.
    """
    if (n.min() if _per_row(n) else n) < 0:
        raise ValueError("truncation level must be >= 0")
    if not isinstance(f, DyadicSequence):
        norms = _norm_rows(f)
        return np.where(np.arange(norms.shape[-1]) <= _column(n), norms, 0.0)
    if n >= f.support - 1:
        return f
    head = DyadicSequence(f.base, f.blocks[: n + 1])  # a view of f's buffer
    head.__dict__["_row_digests"] = f._row_digests
    if "block_norms" in f.__dict__:  # so the head evaluates no block norms again
        head.__dict__["block_norms"] = f.block_norms[: n + 1]
    return head


# relative rounding slack allowed on every lhs <= rhs check
SLACK = 1e-9


def fails(lhs, rhs):
    """Whether lhs > rhs (1 + SLACK) or a side is NaN: a bool, or per entry of arrays."""
    return (lhs <= rhs * (1.0 + SLACK)) ^ True  # negates a bool and a bool array alike


class Check(NamedTuple):
    """One bound ``lhs <= rhs`` of a check family at a named index.

    ``index`` is a tuple of (name, integer) pairs, such as ``(("n", 3),)``
    or ``(("n", 3), ("m", 5))``; the field shadows ``tuple.index``.
    """

    family: str
    index: tuple
    lhs: float
    rhs: float

    @property
    def failed(self) -> bool:
        """Whether the row :func:`fails`."""
        return fails(self.lhs, self.rhs)


def smoothing_gain(f, r, rp, q, n):
    """Value and bound for the truncation smoothing estimate.

    Returns ``(||S_n f||_{r',q}, 2^{n (r'-r)} ||f||_{r,q})`` for r <= r',
    both one per row of the batch of block norms ``f``, with each of r, r',
    q and n one value or one per row.  The value never exceeds the bound.
    """
    r, rp = _param(r), _param(rp)
    if not _all(r <= rp):
        raise ValueError(f"need r <= r', got r={r}, r'={rp}")
    norms = _norm_rows(f)
    base = dyadic_norm(norms, (r, q))
    value = dyadic_norm(truncate(norms, n), (rp, q))
    what = "the smoothing bound at r={r:g}, r'={rp:g}, n={n}"
    with np.errstate(over="ignore"):  # an infinite bound is rejected below
        bound = _power(2.0, n * (rp - r), what, r=r, rp=rp, n=n) * base
    return value, _in_range(bound, what, r=r, rp=rp, n=n)


class YoungConvolution(NamedTuple):
    """Convolutions of pairs of finitely supported sequences on Z with their l^q bounds.

    ``values`` has one row per pair, and ``norm`` and ``bound`` one entry
    per pair.
    """

    values: np.ndarray
    norm: np.ndarray
    bound: np.ndarray


def young_convolve(u, v, q):
    """Convolve pairs u, v over Z and certify ||u*v||_q <= ||u||_1 ||v||_q.

    ``u`` and ``v`` hold the finitely supported values of a batch of pairs,
    both starting at the same index, as two 2-D arrays of zero-padded rows,
    one row per pair, with q one value or one per pair.  A norm or bound
    that leaves float range raises ``ValueError`` naming q.
    """
    q = _summability(q)
    us = np.asarray(u, dtype=float)
    vs = np.asarray(v, dtype=float)
    if us.ndim != 2 or vs.ndim != 2 or len(us) != len(vs) or not (us.size and vs.size):
        raise ValueError(f"need two batches of rows, one per pair, got shapes {us.shape}, {vs.shape}")
    a, b = us.shape[-1], vs.shape[-1]
    conv = np.zeros((len(us), a + b - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # out of range: rejected by the norm
        for lag in range(a):
            conv[:, lag : lag + b] += us[:, lag, None] * vs
    norm = _lq_rows(np.abs(conv), q, "the l^{q:g} norm of u*v")
    bound = _lq_rows(np.abs(us), 1.0, "the l^{q:g} norm of u") * _lq_rows(
        np.abs(vs), q, "the l^{q:g} norm of v"
    )
    return YoungConvolution(conv, norm, _in_range(bound, "the Young bound ||u||_1 ||v||_{q:g}", q=q))


def weighted_smoothing_sum(f, r, rp, q):
    """Value and bound of the weighted sum over all truncation levels.

    Value is ``( sum_n ( 2^{-n(r'-r)} ||S_n f||_{r',1} )^q )^{1/q}`` (the sup
    over n when q = inf); bound is ``||f||_{r,q} / (1 - 2^{r-r'})``.  Terms
    with n beyond the support are geometric and summed in closed form, so
    the value is exact up to rounding.  Requires r < r'.  Both come one per
    row of the batch of block norms ``f``, with r, r' and q each one value
    or one per row.
    """
    r, rp, q = _param(r), _param(rp), _param(q)
    if not _all(r < rp):
        raise ValueError(f"need r < r', got r={r}, r'={rp}")
    norms = _norm_rows(f)
    with np.errstate(over="ignore"):  # as a float division would
        bound = dyadic_norm(norms, (r, q)) / (1.0 - 2.0 ** (r - rp))
    value = _by_q(q, _weighted_sum, _weighted_block_norms(norms, rp), r, rp)
    what = "the weighted truncation sum at r={r:g}, r'={rp:g}"
    return _in_range(value, what, r=r, rp=rp), bound


def _weighted_sum(q: float, inner: np.ndarray, r, rp) -> np.ndarray:
    """The weighted truncation sum of each row of r'-weighted block norms ``inner``."""
    partial = np.cumsum(inner, axis=-1)  # ||S_n f||_{r',1} for n = 0..K
    n = np.arange(inner.shape[-1], dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan value is rejected by the caller
        terms = np.exp2(-(_column(rp) - _column(r)) * n) * partial
    if math.isinf(q):
        # beyond the support the weight shrinks while the partial sum is
        # constant, so the sup is attained at some n <= K
        return terms.max(axis=-1)
    return _geometric_lq(terms, q, 2.0 ** (-q * (rp - r)))


def truncation_power_sum(f, r, rp, q):
    """q-th power form of the weighted truncation sum, with its closed bound.

    Returns ``(sum_n 2^{-q n (r'-r)} ||S_n f||_{r',q}^q, K ||f||_{r,q}^q)``
    with ``K = 1/(1 - 2^{-q(r'-r)})``.  Swapping the order of summation
    shows the two sides are equal for every finitely supported sequence, so
    the bound is attained; it is still returned as a pair for reporting.
    Requires finite q and r < r'.  Both come one per row of the batch of
    block norms ``f``, with r, r' and q each one value or one per row.
    """
    r, rp, q = _param(r), _param(rp), _param(q)
    if np.isinf(q).any():
        raise ValueError("power sum requires finite q")
    if not _all(r < rp):
        raise ValueError(f"need r < r', got r={r}, r'={rp}")
    what = "the truncation power sum at r={r:g}, r'={rp:g}"
    norms = _norm_rows(f)
    constant = 1.0 / (1.0 - 2.0 ** (-q * (rp - r)))
    norm_q = _power(dyadic_norm(norms, (r, q)), q, what, r=r, rp=rp)
    with np.errstate(over="ignore"):  # an infinite bound is rejected below
        bound = _in_range(constant * norm_q, what, r=r, rp=rp)
    value = _by_q(q, _power_sum, _weighted_block_norms(norms, rp), r, rp)
    return _in_range(value, what, r=r, rp=rp), bound


def _power_sum(q: float, inner: np.ndarray, r, rp) -> np.ndarray:
    """The truncation power sum of each row of r'-weighted block norms ``inner``."""
    partial_q = np.cumsum(inner**q, axis=-1)  # ||S_n f||_{r',q}^q for n = 0..K
    n = np.arange(inner.shape[-1], dtype=float)
    with np.errstate(invalid="ignore"):  # 0 * inf: a nan value is rejected by the caller
        terms = np.exp2(-q * (_column(rp) - _column(r)) * n) * partial_q
    ratio = 2.0 ** (-q * (rp - r))
    return np.sum(terms, axis=-1) + terms[:, -1] * ratio / (1.0 - ratio)


class InterpolationBound(NamedTuple):
    """actual <= low + high split of a dyadic norm at an intermediate order.

    ``actual`` has one entry per row of the batch.  ``low`` and ``high``
    have one entry per row for one split level, and one row of entries, one
    per level, per row for an array of levels.
    """

    actual: np.ndarray
    low: np.ndarray
    high: np.ndarray


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


def interpolation_bound(f, s0, s, s1, q, n_split) -> InterpolationBound:
    """Two-sided bound for ||f||_{s,q} from the s0 and s1 sup norms.

    Splitting f = S_N f + (I - S_N) f at N = ``n_split`` gives

        ||S_N f||_{s,q}      <= ( sum_{n<=N} 2^{n q (s-s0)} )^{1/q} ||f||_{s0,inf}
        ||(I - S_N) f||_{s,q} <= ( sum_{n>N} 2^{n q (s-s1)} )^{1/q} ||f||_{s1,inf}

    with both geometric sums evaluated in closed form (for q = inf the
    prefactors collapse to 2^{N(s-s0)} and 2^{(N+1)(s-s1)}).  ``n_split`` is
    one int level or a 1-D integer array of levels; the three norms are
    computed once and the prefactors broadcast over the levels.  ``f`` is a
    batch of block norms, each order and q is one value or one per row, and
    the levels are shared by all rows.  Requires s0 < s < s1.
    """
    s0, s, s1, q = _param(s0), _param(s), _param(s1), _param(q)
    if not _all((s0 < s) & (s < s1)):
        raise ValueError(f"need s0 < s < s1, got {s0}, {s}, {s1}")
    n = _split_levels(n_split)
    norms = _norm_rows(f)
    actual = dyadic_norm(norms, (s, q))
    m0 = dyadic_norm(norms, (s0, math.inf))
    m1 = dyadic_norm(norms, (s1, math.inf))

    def split(q, s0, s, s1, m0, m1):
        s0, s, s1 = (_column(x, n.ndim) for x in (s0, s, s1))
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
        return low_factor * _column(m0, n.ndim), high_factor * _column(m1, n.ndim)

    low, high = _by_q(q, split, s0, s, s1, m0, m1)
    return InterpolationBound(actual, low, high)


_SIGNS = np.array([-1.0, 1.0])
_ABS = scalar_abs_space()


def random_sequence(
    rng: np.random.Generator, count: int, max_support: int = 32, log2_range=(-20.0, 20.0)
) -> np.ndarray:
    """Block norms of ``count`` random scalar sequences for property sweeps.

    Returns the read-only (count, width) batch whose row i is ||f_0|| ..
    ||f_K|| of sequence i, zero past its support K + 1, the form the
    batched norms and inequalities take; ``width`` is the largest support
    drawn.  Supports are uniform in [1, max_support] and entries
    log-uniform in 2^[log2_range], stressing both decaying and growing
    weight regimes.  Every entry is at least 2^{log2_range[0]} > 0, so a
    row's support is ``np.count_nonzero(row)``.  The entries are the
    absolute values of randomly signed blocks: the generator draws the
    supports, then the magnitudes and then the signs of all the blocks,
    which fill the rows in order.
    """
    supports = rng.integers(1, max_support + 1, count)
    total = int(supports.sum())
    mags = np.exp2(rng.uniform(log2_range[0], log2_range[1], total))
    signs = _SIGNS[rng.integers(0, 2, total)]
    rows = np.zeros((count, int(supports.max())))
    rows[np.arange(rows.shape[1]) < supports[:, None]] = eval_pseudo_norm(_ABS, signs * mags)
    return _frozen(rows)


def sequence_report(f: DyadicSequence) -> dict:
    """Per-block norms plus the base-space label, for serialized reports."""
    return {
        "base": f.base.label,
        "block_norms": [float(v) for v in f.block_norms],
    }
