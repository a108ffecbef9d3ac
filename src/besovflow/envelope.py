"""Frequency envelopes: slowly varying majorants of dyadic block norms.

For a sequence f and orders s < s1 the envelope is

    gamma_n = 2^{-n(s1-s)} ||S_n f||_{s1,1}
            = 2^{-n(s1-s)} sum_{k<=n} 2^{k s1} ||f_k||_E.

It dominates the weighted block norms (2^{k s} ||f_k|| <= gamma_k), varies
slowly in one direction (gamma_n <= 2^{s1-s} gamma_{n+1}), and its l^q norm
is equivalent to ||f||_{s,q} with explicit constants.  Past the support the
envelope obeys the exact recursion gamma_{n+1} = 2^{-(s1-s)} gamma_n, which
is what every l^q tail below sums in closed form.

Every function takes the rows of block norms that :mod:`.dyadic` takes, a
2-D batch with one row per sequence, and returns one value per row.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dyadic import (
    _all,
    _by_q,
    _column,
    _geometric_lq,
    _in_range,
    _norm_rows,
    _param,
    _pow_by_value,
    _rescaled_norms,
    _weighted_block_norms,
    dyadic_norm,
)

__all__ = [
    "FrequencyEnvelope",
    "compute_envelope",
    "gamma_lq_norm",
    "envelope_equivalence",
    "c_sequence",
    "c_tail_lq",
    "envelope_report_rows",
]

GUARD = 8  # envelope entries kept past the support


class FrequencyEnvelope(NamedTuple):
    """Envelope values gamma_0..gamma_{K+guard} for a batch of block norms.

    ``gamma`` has one row per row of ``source``, ``s`` and ``s1`` are one
    value or one per row, and the support is the width of the batch.
    """

    gamma: np.ndarray
    s: float | np.ndarray
    s1: float | np.ndarray
    source: np.ndarray

    @property
    def decay_ratio(self):
        """Exact per-step decay factor 2^{-(s1-s)} past the support."""
        return 2.0 ** (-(self.s1 - self.s))

    @property
    def support(self) -> int:
        return self.source.shape[-1]


def compute_envelope(f, s, s1) -> FrequencyEnvelope:
    """Envelope of each row of the batch of block norms ``f`` for the order pair s < s1.

    Values are stored for n = 0..support+GUARD-1; entries past the support
    are produced by the exact geometric recursion, as repeated products.
    s and s1 are one value or one per row.  Raises ``ValueError`` when an
    envelope value leaves float range.
    """
    s, s1 = _param(s), _param(s1)
    if not _all(s < s1):
        raise ValueError(f"need s < s1, got s={s}, s1={s1}")
    norms = _norm_rows(f)
    k = norms.shape[-1]
    gamma = np.zeros((len(norms), k + GUARD))
    n = np.arange(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or 0 * inf: rejected below
        partial = _weighted_block_norms(norms, s1).cumsum(axis=-1)
        gamma[:, :k] = np.exp2(-(_column(s1) - _column(s)) * n) * partial
    _in_range(gamma[:, :k], "the envelope at orders s={s:g}, s1={s1:g}", s=s, s1=s1)
    past = gamma[:, k - 1 :]  # gamma_{n+1} = gamma_n 2^{-(s1-s)} from the last support index
    past[:, 1:] = _column(2.0 ** (-(s1 - s)))
    past.cumprod(axis=-1, out=past)
    gamma.setflags(write=False)
    return FrequencyEnvelope(gamma=gamma, s=s, s1=s1, source=norms)


def gamma_lq_norm(env: FrequencyEnvelope, q):
    """l^q norm of the full envelope, geometric tail included.

    Past the support the envelope is exactly geometric with ratio
    2^{-(s1-s)} < 1, so for finite q the tail sum is added in closed form;
    for q = inf the sup is attained at or before the last support index.
    One norm per row, with q one value or one per row.  Raises
    ``ValueError`` when the norm leaves float range.
    """
    k = env.support

    def combine(q, head, decay):
        if math.isinf(q):
            return head.max(axis=-1)
        return _in_range(_geometric_lq(head, q, decay**q), "the l^{q:g} norm of the envelope", q=q)

    return _by_q(_param(q), combine, env.gamma[:, :k], env.decay_ratio)


def envelope_equivalence(f, s, q, s1):
    """The sandwich (1 - 2^{s-s1}) ||gamma||_q <= ||f||_{s,q} <= ||gamma||_q.

    Returns the triple (lower, mid, upper), each with one entry per row of
    the batch of block norms ``f``.
    """
    env = compute_envelope(f, s, s1)
    gnorm = gamma_lq_norm(env, q)
    lower = (1.0 - 2.0 ** (env.s - env.s1)) * gnorm
    mid = dyadic_norm(f, (s, q))
    return lower, mid, gnorm


def c_sequence(env: FrequencyEnvelope) -> np.ndarray:
    """Adjacent sums c_n = gamma_n + gamma_{n+1} over the stored range, one row per row."""
    return env.gamma[:, :-1] + env.gamma[:, 1:]


def c_tail_lq(env: FrequencyEnvelope, n: int, q: float) -> np.ndarray:
    """( sum_{p >= n} c_p^q )^{1/q} of each row, with the exact geometric tail.

    For p at or past the last support index K the envelope recursion gives
    c_p = c_K rho^{p-K} with rho = 2^{-(s1-s)}, so the infinite part is a
    closed-form geometric sum (for q = inf, a sup attained on the head).
    Raises ``ValueError`` when a tail leaves float range.
    """
    if n < 0:
        raise ValueError("tail start must be >= 0")
    last = env.support - 1  # last support index
    gamma = env.gamma
    rho = env.decay_ratio
    c_last = gamma[:, last] * (1.0 + rho)
    if n >= last:
        # entirely inside the geometric regime: c_p = c_last * rho^(p-last)
        with np.errstate(over="ignore"):  # an infinite tail is rejected below
            tail = c_last * _pow_by_value(rho, n - last)
            if not math.isinf(q):
                tail = tail * _pow_by_value(1.0 / (1.0 - _pow_by_value(rho, q)), 1.0 / q)
    elif math.isinf(q):
        tail = np.maximum((gamma[:, n:last] + gamma[:, n + 1 : last + 1]).max(axis=-1), c_last)
    else:

        def power_sum(g, rho):  # c_n .. c_{last-1}, then the tail from c_last in closed form
            tail_q = _pow_by_value(g[:, -1] * (1.0 + rho), q) / (1.0 - _pow_by_value(rho, q))
            return np.sum((g[:, :-1] + g[:, 1:]) ** q, axis=-1) + tail_q

        tail = _rescaled_norms(
            gamma[:, n : last + 1], power_sum, lambda t: _pow_by_value(t, 1.0 / q), rho
        )
    return _in_range(tail, "the l^{q:g} envelope tail from n={n}", q=q, n=n)


def envelope_report_rows(env: FrequencyEnvelope) -> list:
    """Rows (n, gamma_n, c_n, 2^{n s} ||f_n||) of the envelope report, one list per row."""
    c = c_sequence(env)
    orders = np.broadcast_to(env.s, len(env.gamma)).tolist()
    reports = []
    for gamma, c_row, norms, s in zip(env.gamma, c, env.source, orders):
        rows = []
        for n in range(c_row.size):
            if n < norms.size and norms[n] != 0.0:
                weighted = float(2.0 ** (n * s) * norms[n])
            else:
                weighted = 0.0
            rows.append((n, float(gamma[n]), float(c_row[n]), weighted))
        reports.append(rows)
    return reports
